"""Integer helpers for the sin(1/(kx)) witness constructions."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence


def lcm_list(ks: Sequence[int]) -> int:
    if not ks:
        raise ValueError("lcm of an empty list")
    out = 1
    for k in ks:
        if k <= 0:
            raise ValueError("lcm needs positive integers")
        out = math.lcm(out, k)
    return out


def _primes():
    yield 2
    n = 3
    while True:
        if all(n % p for p in range(3, int(math.isqrt(n)) + 1, 2)):
            yield n
        n += 2


def prime_power_nondivisor(ks: Sequence[int]) -> Optional[tuple[int, int]]:
    """Smallest prime power p**m (by value) dividing none of the listed
    integers, returned as (p, m).  Always exists for a non-empty list."""
    for k in ks:
        if k <= 0:
            raise ValueError("need positive integers")
    if not ks:
        return (2, 1)
    bound = max(ks) + 1
    best = None
    for p in _primes():
        if p > bound:
            break
        m = 1
        while any(k % p ** m == 0 for k in ks):
            m += 1
        value = p ** m
        if best is None or value < best[0]:
            best = (value, p, m)
        bound = min(bound, best[0])
    return (best[1], best[2])


def dyadic_divisibility_subsequence(seed: int, count: int) -> list[int]:
    """Indices k_0 .. k_count with 2**(j+2) * k_j = k_{j+1}; the shape
    along which every subsequence of naturals that kills all prime-power
    witnesses must eventually run."""
    if seed <= 0 or count < 0:
        raise ValueError("seed must be positive and count non-negative")
    ks = [seed]
    for j in range(count):
        ks.append(2 ** (j + 2) * ks[-1])
    return ks


def nested_midpoint(ks: Sequence[int]) -> Fraction:
    """Midpoint m_0 of the nested half-open intervals built downward from
    [0, k_J): each step takes the interval of length k_{j-1} just left of the
    current midpoint.  Guarantees (m_0 mod k_j) / k_j is in [1/4, 1/2] for
    every j >= 1, hence |sin(m_0 pi / k_j)| >= sin(pi/4)."""
    if len(ks) < 2:
        raise ValueError("need at least k_0 and k_1")
    for j in range(1, len(ks)):
        step = 2 ** (j + 1) * ks[j - 1]
        if ks[j] % step != 0:
            raise ValueError(f"k_{j} is not a 2^{j + 1}-fold multiple of k_{j - 1}")
    m = Fraction(ks[-1], 2)
    for j in range(len(ks) - 2, -1, -1):
        m -= Fraction(ks[j], 2)
    return m

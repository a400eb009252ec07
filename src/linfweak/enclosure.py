"""Certified rational enclosures for pi and sine.

All bounds are rigorous: pi comes from Machin's formula with alternating
arctan series (the truncation error is at most the first omitted term), and
sine is evaluated by an argument-reduced Taylor polynomial whose Lagrange
remainder after the x^(2N+1) term is at most |x|^(2N+3)/(2N+3)!.  Interval
arguments are handled through the Lipschitz bound |sin'| <= 1.  Everything
is a Fraction; no floating point enters any bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


@dataclass(frozen=True)
class RatInterval:
    """A closed rational interval [lo, hi] enclosing an exact real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("enclosure with lo > hi")

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def __neg__(self) -> "RatInterval":
        return RatInterval(-self.hi, -self.lo)

    def __add__(self, other) -> "RatInterval":
        if isinstance(other, RatInterval):
            return RatInterval(self.lo + other.lo, self.hi + other.hi)
        return RatInterval(self.lo + other, self.hi + other)

    def __sub__(self, other) -> "RatInterval":
        if isinstance(other, RatInterval):
            return RatInterval(self.lo - other.hi, self.hi - other.lo)
        return RatInterval(self.lo - other, self.hi - other)

    def scale(self, c: Fraction) -> "RatInterval":
        if c >= 0:
            return RatInterval(self.lo * c, self.hi * c)
        return RatInterval(self.hi * c, self.lo * c)

    def abs(self) -> "RatInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RatInterval(Fraction(0), max(-self.lo, self.hi))


def _arctan_enclosure(x: Fraction, err: Fraction) -> RatInterval:
    """arctan(x) for 0 < x < 1 by the alternating Taylor series."""
    total = Fraction(0)
    term = x
    n = 0
    sign = 1
    while term > err:
        total += sign * term
        n += 1
        sign = -sign
        term = x ** (2 * n + 1) / (2 * n + 1)
    # alternating series: truncation error bounded by the next term
    if sign > 0:
        return RatInterval(total, total + term)
    return RatInterval(total - term, total)


@lru_cache(maxsize=None)
def _pi_enclosure_pow2(k: int) -> RatInterval:
    """pi to within 2**-k, cached per precision."""
    err = Fraction(1, 2 ** (k + 6))
    a = _arctan_enclosure(Fraction(1, 5), err)
    b = _arctan_enclosure(Fraction(1, 239), err)
    return a.scale(Fraction(16)) - b.scale(Fraction(4))


def pi_enclosure(err: Fraction) -> RatInterval:
    if err <= 0:
        raise ValueError("err must be positive")
    k = 1
    while Fraction(1, 2 ** k) > err:
        k += 1
    out = _pi_enclosure_pow2(k)
    while out.width() > err:
        k += 8
        out = _pi_enclosure_pow2(k)
    return out


def _sin_taylor_point(x: Fraction, err: Fraction) -> RatInterval:
    """sin(x) for |x| <= 4, Taylor with Lagrange remainder."""
    if abs(x) > 4:
        raise ValueError("reduce the argument first")
    total = Fraction(0)
    term = x
    n = 0
    while True:
        total += term
        # remainder after the x^(2n+1) term
        rem = abs(x) ** (2 * n + 3)
        for i in range(2, 2 * n + 4):
            rem /= i
        if rem < err:
            return RatInterval(total - rem, total + rem)
        n += 1
        term = term * (-1) * x * x / ((2 * n) * (2 * n + 1))


def _sin_of_interval(arg: RatInterval, err: Fraction) -> RatInterval:
    """sin over a short interval argument: midpoint value +- (radius + err),
    by |sin'| <= 1."""
    mid = arg.midpoint()
    rad = arg.width() / 2
    core = _sin_taylor_point(mid, err)
    out = RatInterval(core.lo - rad, core.hi + rad)
    return RatInterval(max(out.lo, Fraction(-1)), min(out.hi, Fraction(1)))


def sin_of_pi_multiple(q: Fraction, target_width: Fraction) -> RatInterval:
    """Certified enclosure of sin(q * pi) for rational q.

    Reduction is exact: q mod 2, the half-turn sign flip and the quarter-turn
    reflection are all rational operations, so only the final argument
    q' * pi with q' in [0, 1/2] needs an interval for pi.
    """
    if target_width <= 0:
        raise ValueError("target width must be positive")
    q = Fraction(q)
    q -= 2 * (q.numerator // (2 * q.denominator))  # q mod 2, in [0,2)
    sign = 1
    if q > 1:
        sign = -1
        q -= 1
    if q > Fraction(1, 2):
        q = 1 - q
    # now sin(q*pi) with q in [0, 1/2]; the argument is at most pi/2 < 2
    err = target_width / 8
    while True:
        pi_iv = pi_enclosure(err)
        arg = pi_iv.scale(q)
        out = _sin_of_interval(arg, err)
        if out.width() <= target_width:
            return out if sign > 0 else -out
        err /= 16


def sin_of_rational(x: Fraction, target_width: Fraction) -> RatInterval:
    """Certified enclosure of sin(x) for rational x (radians)."""
    if target_width <= 0:
        raise ValueError("target width must be positive")
    x = Fraction(x)
    err = target_width / 8
    while True:
        pi_iv = pi_enclosure(min(err, Fraction(1, 10 ** 12)) / (1 + abs(x)))
        two_pi = pi_iv.scale(Fraction(2))
        # nearest multiple of 2*pi, from the rational midpoint
        n = round(x / two_pi.midpoint())
        y = RatInterval(x - n * two_pi.hi, x - n * two_pi.lo) if n >= 0 else \
            RatInterval(x - n * two_pi.lo, x - n * two_pi.hi)
        if max(abs(y.lo), abs(y.hi)) <= 4:
            out = _sin_of_interval(y, err)
            if out.width() <= target_width:
                return out
        err /= 16


def certified_at_least(value: RatInterval, threshold: Fraction) -> bool:
    """True only when the whole enclosure sits at or above the threshold."""
    return value.lo >= threshold

"""Certified rational enclosures for pi and sine.

All bounds are rigorous: pi comes from Machin's formula with alternating
arctan series (the truncation error is at most the first omitted term), and
sine is evaluated by an argument-reduced Taylor polynomial whose Lagrange
remainder after the x^(2N+1) term is at most |x|^(2N+3)/(2N+3)!.  Interval
arguments are handled through the Lipschitz bound |sin'| <= 1.

The series run on Python integers scaled by 2**p, where p is the bit length
of 1/err plus GUARD bits.  Every quantity is an integer interval [lo, hi]
standing for [lo/2**p, hi/2**p], and every operation rounds outward: lower
ends down (floor), upper ends up (ceil).  Each rounded interval therefore
contains the exact one, so every enclosure built from them contains the
true value (Moore, Interval Analysis, 1966; Rump, Acta Numerica 19, 2010).
Rounding costs at most about one unit 2**-p per series term, which the guard
bits absorb, and the width loop of the callers checks the result anyway.
Results are dyadic Fractions with p + O(1) bit denominators, where exact
arithmetic grew them by the bits of every term; no floating point enters
any bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

# guard bits beyond the requested width: the rounding of the N series terms
# costs at most about N units of the last place
GUARD = 8


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


def _precision(err: Fraction) -> int:
    """The least k >= 1 with 2**-k <= err, from bit lengths."""
    a, b = err.numerator, err.denominator
    k = max(b.bit_length() - a.bit_length(), 1)
    return k + 1 if a << k < b else k


def _ceil_shift(x: int, s: int) -> int:
    return -(-x >> s)


def _ceil_div(x: int, d: int) -> int:
    return -(-x // d)


def _arctan_inv_scaled(c: int, x: int, s: int) -> tuple[int, int]:
    """c * arctan(1/x) * 2**s for an integer x >= 2, as an integer interval,
    by the alternating series of arctan.  Each term c * 2**s / ((2n+1)
    x**(2n+1)) is rounded outward.  Since floor(floor(y)/d) = floor(y/d) for
    an integer d, and so for ceil, plo and phi stay the floor and ceiling of
    c * 2**s / x**(2n+1).  The truncation error is at most the first omitted
    term."""
    xx = x * x
    plo, phi = (c << s) // x, _ceil_div(c << s, x)   # c * 2**s / x**(2n+1)
    lo = hi = 0
    n = 0
    while True:
        tlo, thi = plo // (2 * n + 1), _ceil_div(phi, 2 * n + 1)
        if thi <= 1:
            # the value lies between this partial sum and the next one
            return (lo, hi + thi) if n % 2 == 0 else (lo - thi, hi)
        if n % 2 == 0:
            lo, hi = lo + tlo, hi + thi
        else:
            lo, hi = lo - thi, hi - tlo
        n += 1
        plo, phi = plo // xx, _ceil_div(phi, xx)


@lru_cache(maxsize=None)
def _pi_enclosure_pow2(k: int) -> RatInterval:
    """pi to within 2**-k by Machin's pi = 16 arctan(1/5) - 4 arctan(1/239),
    cached per precision.  The two series take about 0.28 s terms together
    at scale 2**s, and each term and each truncation widens the sum by at
    most one unit 2**-s: far fewer than the 2**(GUARD + k.bit_length()) >
    256 k units that width 2**-k allows."""
    s = k + GUARD + k.bit_length()
    alo, ahi = _arctan_inv_scaled(16, 5, s)
    blo, bhi = _arctan_inv_scaled(4, 239, s)
    return RatInterval(Fraction(alo - bhi, 1 << s), Fraction(ahi - blo, 1 << s))


def pi_enclosure(err: Fraction) -> RatInterval:
    if err <= 0:
        raise ValueError("err must be positive")
    k = _precision(err)
    out = _pi_enclosure_pow2(k)
    while out.width() > err:
        k += 8
        out = _pi_enclosure_pow2(k)
    return out


def _sin_of_interval(arg: RatInterval, err: Fraction) -> RatInterval:
    """sin over a short interval argument: midpoint value +- (radius + err),
    by |sin'| <= 1.

    The ends are rounded outward to p = bits(1/err) + GUARD bits, so the
    midpoint m is exact at scale 2**w, w = p + 1.  The Taylor terms
    t_n = (-1)**n m**(2n+1) / (2n+1)! are integer intervals at that scale,
    each one -t * m**2 / ((2n)(2n+1)) of the last with floor and ceil.  The
    Lagrange remainder after the m**(2n+1) term, |m|**(2n+3) / (2n+3)!, is
    the magnitude of the next term, rounded up."""
    p = _precision(err) + GUARD
    lo = (arg.lo.numerator << p) // arg.lo.denominator
    hi = _ceil_div(arg.hi.numerator << p, arg.hi.denominator)
    w = p + 1
    m, rad = lo + hi, hi - lo
    if abs(m) > 4 << w:
        raise ValueError("reduce the argument first")
    # rem * 2**-w < err holds for an integer rem exactly when rem < limit
    limit = _ceil_div(err.numerator << w, err.denominator)
    mm, shift = m * m, 2 * w
    tlo = thi = m
    slo = shi = 0
    n = 0
    while True:
        slo, shi = slo + tlo, shi + thi
        n += 1
        d = (2 * n) * (2 * n + 1)
        tlo, thi = (-_ceil_div(_ceil_shift(thi * mm, shift), d),
                    -((tlo * mm >> shift) // d))
        rem = max(-tlo, thi)  # the Lagrange remainder bound, |t_n| rounded up
        if rem < limit:
            break
    one = 1 << w
    return RatInterval(Fraction(max(slo - rem - rad, -one), one),
                       Fraction(min(shi + rem + rad, one), one))


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

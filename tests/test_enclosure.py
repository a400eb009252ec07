import math
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from conftest import within_seconds
from linfweak.enclosure import (GUARD, RatInterval, _arctan_inv_scaled,
                                certified_at_least, pi_enclosure,
                                sin_of_pi_multiple, sin_of_rational)

TIGHT = F(1, 10 ** 9)
WIDTHS = tuple(F(1, 10 ** w) for w in (9, 15, 25, 40, 60))


# ---------------------------------------------------------------------------
# reference: every Machin and Taylor bound kept as an exact Fraction


def _ref_arctan(x: F, err: F) -> RatInterval:
    """arctan(x) for 0 < x < 1 by the alternating Taylor series."""
    total = F(0)
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
def _ref_pi_pow2(k: int) -> RatInterval:
    err = F(1, 2 ** (k + 6))
    a = _ref_arctan(F(1, 5), err)
    b = _ref_arctan(F(1, 239), err)
    return a.scale(F(16)) - b.scale(F(4))


def ref_pi_enclosure(err: F) -> RatInterval:
    k = 1
    while F(1, 2 ** k) > err:
        k += 1
    out = _ref_pi_pow2(k)
    while out.width() > err:
        k += 8
        out = _ref_pi_pow2(k)
    return out


def _ref_sin_taylor_point(x: F, err: F) -> RatInterval:
    """sin(x) for |x| <= 4, Taylor with Lagrange remainder."""
    total = F(0)
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


def _ref_sin_of_interval(arg: RatInterval, err: F) -> RatInterval:
    rad = arg.width() / 2
    core = _ref_sin_taylor_point(arg.midpoint(), err)
    return RatInterval(max(core.lo - rad, F(-1)), min(core.hi + rad, F(1)))


def ref_sin_of_pi_multiple(q: F, target_width: F) -> RatInterval:
    q = F(q)
    q -= 2 * (q.numerator // (2 * q.denominator))
    sign = 1
    if q > 1:
        sign = -1
        q -= 1
    if q > F(1, 2):
        q = 1 - q
    err = target_width / 8
    while True:
        out = _ref_sin_of_interval(ref_pi_enclosure(err).scale(q), err)
        if out.width() <= target_width:
            return out if sign > 0 else -out
        err /= 16


def ref_sin_of_rational(x: F, target_width: F) -> RatInterval:
    x = F(x)
    err = target_width / 8
    while True:
        two_pi = ref_pi_enclosure(min(err, F(1, 10 ** 12)) / (1 + abs(x))).scale(F(2))
        n = round(x / two_pi.midpoint())
        y = RatInterval(x - n * two_pi.hi, x - n * two_pi.lo) if n >= 0 else \
            RatInterval(x - n * two_pi.lo, x - n * two_pi.hi)
        if max(abs(y.lo), abs(y.hi)) <= 4:
            out = _ref_sin_of_interval(y, err)
            if out.width() <= target_width:
                return out
        err /= 16


def assert_meets_reference(out: RatInterval, ref: RatInterval, width: F):
    """Both enclosures contain the true value, so they must meet; the two
    Taylor loops may stop at different orders, so neither need contain the
    other."""
    assert out.width() <= width
    assert out.lo <= ref.hi and ref.lo <= out.hi, (out, ref)


def bits(width: F) -> int:
    """The least k with 2**-k <= width."""
    k = 0
    while F(1, 2 ** k) > width:
        k += 1
    return k


# ---------------------------------------------------------------------------


def test_pi_enclosure_brackets_float_pi():
    enc = pi_enclosure(F(1, 10 ** 12))
    assert enc.width() <= F(1, 10 ** 12)
    assert enc.lo < F(math.pi) < enc.hi or enc.contains(F(math.pi))


def test_pi_known_rational_bounds():
    enc = pi_enclosure(F(1, 10 ** 6))
    assert F(223, 71) < enc.lo and enc.hi < F(22, 7)


@pytest.mark.parametrize("q,expected", [
    (F(1, 2), 1.0),
    (F(1, 3), math.sin(math.pi / 3)),
    (F(1, 4), math.sin(math.pi / 4)),
    (F(1, 6), 0.5),
    (F(5, 4), math.sin(5 * math.pi / 4)),
    (F(7, 3), math.sin(7 * math.pi / 3)),
    (F(-1, 5), math.sin(-math.pi / 5)),
    (F(115, 7), math.sin(115 * math.pi / 7)),
])
def test_sin_pi_multiple_matches_float(q, expected):
    enc = sin_of_pi_multiple(q, TIGHT)
    assert enc.width() <= TIGHT
    assert enc.lo <= F(expected) + F(1, 10 ** 12)
    assert enc.hi >= F(expected) - F(1, 10 ** 12)


def test_sin_pi_sixth_is_exactly_half_bracketed():
    enc = sin_of_pi_multiple(F(1, 6), TIGHT)
    assert enc.contains(F(1, 2))


def test_sin_pi_quarter_squares_to_half():
    enc = sin_of_pi_multiple(F(1, 4), TIGHT)
    assert enc.lo ** 2 <= F(1, 2) <= enc.hi ** 2


@pytest.mark.parametrize("x", [F(1), F(-3), F(355, 113), F(100, 7), F(1, 1000)])
def test_sin_rational_matches_float(x):
    enc = sin_of_rational(x, TIGHT)
    assert enc.width() <= TIGHT
    assert abs(enc.midpoint() - F(math.sin(x))) < F(1, 10 ** 7)


@given(st.integers(-400, 400), st.integers(1, 40))
def test_sin_pi_multiple_random(num, den):
    q = F(num, den)
    enc = sin_of_pi_multiple(q, F(1, 10 ** 6))
    true = math.sin(math.pi * num / den)
    assert float(enc.lo) - 1e-9 <= true <= float(enc.hi) + 1e-9


def test_interval_arithmetic():
    a = RatInterval(F(1, 4), F(1, 2))
    b = RatInterval(F(-1, 3), F(1, 3))
    assert (a + b).lo == F(-1, 12)
    assert (a - b).hi == F(5, 6)
    assert (-a).hi == F(-1, 4)
    assert a.abs() == a
    assert b.abs().lo == 0
    assert certified_at_least(a, F(1, 4))
    assert not certified_at_least(a, F(1, 3))


def test_width_control_is_honored():
    for k in (3, 9, 15):
        enc = sin_of_pi_multiple(F(7, 13), F(1, 10 ** k))
        assert enc.width() <= F(1, 10 ** k)


# ---------------------------------------------------------------------------
# the scaled-integer kernel against the exact reference


@given(st.integers(-400, 400), st.integers(1, 40), st.sampled_from(WIDTHS))
def test_sin_pi_multiple_meets_exact_reference(num, den, width):
    q = F(num, den)
    assert_meets_reference(sin_of_pi_multiple(q, width),
                           ref_sin_of_pi_multiple(q, width / 2 ** 32), width)


@given(st.integers(-400, 400), st.integers(1, 40), st.sampled_from(WIDTHS))
def test_sin_rational_meets_exact_reference(num, den, width):
    x = F(num, den)
    assert_meets_reference(sin_of_rational(x, width),
                           ref_sin_of_rational(x, width / 2 ** 32), width)


@pytest.mark.parametrize("width", WIDTHS + (F(3, 7), F(1, 2 ** 100), F(5, 3 ** 90)))
def test_pi_meets_exact_reference(width):
    assert_meets_reference(pi_enclosure(width), ref_pi_enclosure(width / 2 ** 32), width)


@pytest.mark.parametrize("width", WIDTHS + (F(1, 10 ** 300),))
def test_exact_sine_values_stay_bracketed(width):
    for q, value in ((F(0), 0), (F(1, 6), F(1, 2)), (F(1, 2), 1), (F(5, 6), F(1, 2))):
        assert sin_of_pi_multiple(q, width).contains(value), q
    enc = sin_of_pi_multiple(F(1, 4), width)
    assert enc.lo ** 2 <= F(1, 2) <= enc.hi ** 2


def _denominator_bits(enc: RatInterval) -> int:
    for end in (enc.lo, enc.hi):
        d = end.denominator
        assert d & (d - 1) == 0, f"denominator {d} is not a power of two"
    return max(enc.lo.denominator.bit_length(), enc.hi.denominator.bit_length())


@pytest.mark.parametrize("width", WIDTHS + (F(1, 10 ** 300),))
def test_denominators_are_bounded_powers_of_two(width):
    """Sine works at w = bits(8/width) + GUARD + 1 bits, one more for the
    exact midpoint; pi at k + GUARD + k.bit_length(), the last for the
    rounding of its series terms.  A denominator 2**w has w + 1 bits."""
    k = bits(width)
    for q in (F(1, 3), F(-7, 5), F(1, 6), F(115, 7), F(3, 4)):
        assert _denominator_bits(sin_of_pi_multiple(q, width)) <= k + GUARD + 5
    for x in (F(1), F(-3), F(355, 113), F(100, 7), F(1, 1000)):
        assert _denominator_bits(sin_of_rational(x, width)) <= k + GUARD + 5
    assert _denominator_bits(pi_enclosure(width)) <= k + GUARD + k.bit_length() + 1


def test_sine_at_width_1e_300_is_fast():
    width = F(1, 10 ** 300)
    with within_seconds(5):
        enc = sin_of_pi_multiple(F(1, 3), width)
    assert enc.width() <= width
    assert enc.lo ** 2 <= F(3, 4) <= enc.hi ** 2


@pytest.mark.parametrize("c,x", [(1, 2), (1, 3), (16, 5), (4, 239)])
def test_scaled_arctan_contains_exact_reference(c, x):
    """Each rounded term and the truncation bound matter in the last unit,
    so the scaled series must contain a reference 2**-64 units wide."""
    for s in range(0, 300, 7):
        lo, hi = _arctan_inv_scaled(c, x, s)
        ref = _ref_arctan(F(1, x), F(1, 2 ** (s + 64))).scale(F(c * 2 ** s))
        assert lo <= ref.lo and ref.hi <= hi, s

"""The exact rational kernel against plain `Fraction` operators.

Each kernel reads `Fraction` slots or unreduced integer pairs; each must
agree with the operators on every kind of end: Fractions with negative
numerators and equal or unequal denominators, `int` ends, and infinities
made afresh (never the objects NEG_INF and POS_INF).
"""

import math
from collections import namedtuple
from fractions import Fraction as F

from hypothesis import given, strategies as st

from conftest import rationals
from linfweak.rational import (NEG_INF, POS_INF, approx, cauchy_bound, crossing,
                               deviates, diff, end_value, eq, fit_abc, lt,
                               max_abs_pair, poly_values, side, total_length)

# Infinities made afresh on every draw: none is the object NEG_INF or POS_INF.
fresh_infinities = st.sampled_from(
    (lambda: -math.inf, lambda: float("inf"), lambda: float("-inf"),
     lambda: math.inf * 2)).map(lambda make: make())
big_fractions = st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**40))
fractions = st.one_of(rationals(), big_fractions)
kernel_values = st.one_of(rationals(), big_fractions, st.integers(-10**6, 10**6),
                          fresh_infinities)
# laws and coefficients: zero often, so that every a = 0 / b = 0 branch runs
coefficients = st.one_of(st.just(F(0)), rationals(), big_fractions)
# an unreduced pair (n, d), d > 0
pairs = st.builds(lambda n, d, k: (n * k, d * k), st.integers(-10**6, 10**6),
                  st.integers(1, 10**4), st.integers(1, 50))
coefficient_pairs = st.one_of(st.just((0, 1)), st.just((0, 7)), pairs)


@st.composite
def kernel_pairs(draw):
    """Two ends or values: independent draws, the same object twice, or two
    distinct Fraction objects of equal value."""
    kind = draw(st.sampled_from(("any", "same", "equal")))
    if kind == "any":
        return draw(kernel_values), draw(kernel_values)
    if kind == "same":
        x = draw(kernel_values)
        return x, x
    x = draw(st.one_of(rationals(), big_fractions))
    k = draw(st.integers(2, 10**6))
    return x, F(x.numerator * k, x.denominator * k)


@st.composite
def fraction_pairs(draw):
    """Two Fractions with unequal denominators, or with one denominator
    (the second an integer shift of the first)."""
    x = draw(fractions)
    if draw(st.booleans()):
        return x, draw(fractions)
    return x, x + draw(st.integers(-10**6, 10**6))


@st.composite
def end_pairs(draw):
    """(lo, hi) with lo <= hi: Fractions, ints or fresh infinities."""
    finite = st.one_of(rationals(), big_fractions, st.integers(-10**6, 10**6))
    lo, hi = sorted((draw(finite), draw(finite)))
    if draw(st.integers(0, 9)) == 0:
        lo = -math.inf
    if draw(st.integers(0, 9)) == 0:
        hi = float("inf")
    return lo, hi


@st.composite
def pieces(draw):
    """A flat law on any ends, or a sloped one on finite ends; now and then
    on a single point."""
    lo, hi = draw(end_pairs())
    a = draw(coefficients)
    if a != 0 and (type(lo) is float or type(hi) is float):
        lo, hi = sorted((draw(fractions), draw(st.one_of(fractions, st.integers(-99, 99)))))
    if type(lo) is not float and draw(st.integers(0, 9)) == 0:
        hi = F(lo)  # a point: equal, but not the same object
    return Piece(a, draw(coefficients), Span(lo, hi))


Span = namedtuple("Span", "lo hi")
Piece = namedtuple("Piece", "slope intercept interval")


def sign(x) -> int:
    return (x > 0) - (x < 0)


class TestComparisonKernel:
    """`lt`/`eq`/`side` read Fraction slots; they must agree with `<`/`==`."""

    @given(kernel_pairs())
    def test_agrees_with_the_operators(self, pair):
        x, y = pair
        assert lt(x, y) == (x < y) and lt(y, x) == (y < x)
        assert eq(x, y) == (x == y) and eq(y, x) == (y == x)

    @given(kernel_values, st.integers(-10**6, 10**6), st.integers(1, 10**6),
           st.integers(1, 50))
    def test_side_agrees_with_the_operators(self, e, n, d, k):
        # the crossing n/d comes unreduced, so it is scaled here by k
        x0 = F(n, d)
        assert side(e, n * k, d * k) == (e > x0) - (e < x0)

    def test_fresh_infinities_are_not_the_constants(self):
        neg, pos = -math.inf, float("inf")
        assert neg is not NEG_INF and pos is not POS_INF
        assert eq(neg, NEG_INF) and eq(pos, POS_INF)
        assert lt(neg, F(-10**9)) and lt(F(10**9), pos) and lt(neg, pos)
        assert not lt(pos, F(0)) and not eq(F(0), neg)


class TestPairArithmetic:
    @given(fraction_pairs())
    def test_diff(self, xy):
        x, y = xy
        n, d = diff(x, y)
        assert d > 0 and F(n, d) == x - y
        if x.denominator == y.denominator:
            assert d == x.denominator

    @given(coefficients, coefficients, coefficients, coefficients)
    def test_crossing(self, a1, b1, a2, b2):
        s, n, d = crossing(a1, b1, a2, b2)
        assert sign(s) == sign(a1 - a2)
        if s == 0:
            assert n == d == 0
            return
        x0 = F(n, d)
        assert d > 0 and a1 * x0 + b1 == a2 * x0 + b2
        # the level and root forms: a2 = 0, and a2 = b2 = 0
        s, n, d = crossing(a1, b1, F(0), b2)
        assert sign(s) == sign(a1) and (a1 == 0 or (d > 0 and F(n, d) == (b2 - b1) / a1))

    @given(st.lists(end_pairs(), max_size=6))
    def test_total_length(self, ends):
        got = total_length([Span(lo, hi) for lo, hi in ends])
        if any(type(e) is float for end in ends for e in end):
            assert got == POS_INF
        else:
            assert type(got) is F and got == sum((F(hi) - F(lo) for lo, hi in ends), F(0))

    @given(st.lists(pieces(), max_size=6))
    def test_max_abs_pair(self, given_pieces):
        # reduced to a Fraction by PiecewiseFn.ess_sup_norm, which
        # tests/test_piecewise.py checks against its own reference
        n, d = max_abs_pair(given_pieces)
        values = [abs(b) if a == 0 else max(abs(a * x + b) for x in iv)
                  for a, b, iv in given_pieces if iv.lo != iv.hi]
        assert type(n) is int and type(d) is int and d > 0
        assert F(n, d) == max(values, default=F(0))

    @given(pairs, fractions, coefficients.map(abs))
    def test_deviates(self, pair, c, r):
        n, d = pair
        assert deviates(n, d, c, r) == (abs(F(n, d) - c) > r)
        # at the boundary |n/d - c| = r exactly it does not deviate
        assert not deviates(n, d, F(n, d) - r, r)
        assert not deviates(n, d, F(n, d) + r, r)

    @given(st.lists(st.one_of(coefficients, st.integers(-5, 5).map(F)), max_size=5),
           st.lists(st.one_of(st.sampled_from((F(0), F(1), F(-1), F(2, 3))), fractions),
                    max_size=6))
    def test_poly_values(self, coeffs, values):
        got = poly_values(coeffs, values)
        want = []
        for v in values:
            acc = F(0)
            for c in reversed(coeffs):
                acc = acc * v + c
            want.append(acc)
        assert all(type(x) is F for x in got) and got == want

    @given(kernel_pairs())
    def test_approx_keeps_the_order(self, pair):
        x, y = pair
        if lt(x, y):
            assert approx(x) <= approx(y)
        assert approx(x) == float(x)

    def test_approx_past_the_float_range(self):
        big = 10 ** 400
        assert approx(F(big, 3)) == POS_INF and approx(F(-big, 3)) == NEG_INF
        assert approx(big) == POS_INF and approx(-big) == NEG_INF
        assert approx(F(1, big)) == 0.0

    @given(coefficients, coefficients, coefficients, st.integers(1, 10**6))
    def test_end_value(self, const, inv, lin, ell):
        got = end_value(const, inv, lin, ell)
        assert type(got) is F and got == const + inv / ell + lin * ell


def ref_cauchy_bound(a, b, c):
    if a == 0 and b == 0:
        return None
    if a == 0:
        root = -c / b
        return max(1, math.ceil(root) + 1) if root > 0 else 1
    return max(1, math.ceil(1 + max(abs(b), abs(c)) / abs(a)) + 1)


class TestThresholdKernels:
    @given(coefficient_pairs, coefficient_pairs, coefficient_pairs)
    def test_cauchy_bound(self, a, b, c):
        got = cauchy_bound(a, b, c)
        A, B, C = F(*a), F(*b), F(*c)
        assert got == ref_cauchy_bound(A, B, C)
        if got is not None:
            # past the bound the quadratic keeps one sign, and is not zero
            signs = {sign(A * m * m + B * m + C) for m in range(got, got + 12)}
            assert len(signs) == 1 and 0 not in signs

    @given(coefficients, coefficients, coefficients,
           st.lists(st.integers(1, 10**4), min_size=3, max_size=3, unique=True))
    def test_fit_abc_recovers_the_law(self, a, b, c, ells):
        pts = [(ell, a + b / ell + c * ell) for ell in ells]
        assert fit_abc(*pts) == (a, b, c)

    @given(st.lists(st.integers(1, 60), min_size=3, max_size=3, unique=True),
           st.lists(fractions, min_size=3, max_size=3))
    def test_fit_abc_passes_through_the_samples(self, ells, vals):
        a, b, c = fit_abc(*zip(ells, vals))
        assert all(a + b / ell + c * ell == v for ell, v in zip(ells, vals))

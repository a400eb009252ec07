"""The exact rational kernel: how ends and values are compared and combined.

Every order relation, difference and product of rationals in `sets`,
`piecewise` and `restriction` goes through this module, the only one that
reads the integer ``_numerator``/``_denominator`` slots of ``Fraction``
(elsewhere a slot is read at most to test a sign).  The convention:

- An end or value is a ``Fraction``, an ``int`` (accepted as an end) or an
  infinity, ``-math.inf`` or ``math.inf``.  :func:`is_finite` tests the type
  itself (``Fraction`` or ``int``, never ``bool``): an ``isinstance``
  against ``Fraction``, a ``numbers.Rational``, goes through ABC dispatch.
- An infinity is told by ``type(e) is float`` and its sign, never by
  identity with :data:`NEG_INF`/:data:`POS_INF`: every ``-math.inf`` is a
  new float object.
- A pair ``(n, d)`` is the rational n/d, unreduced, with d > 0.  A crossing
  that is only compared stays a pair; ``Fraction(n, d)`` is built only where
  a value is kept, and reduces the pair once.

``Fraction``'s operators dispatch through ``numbers.Rational``, which makes
a comparison about four times as slow as one cross product of the slots (a
normalized ``Fraction`` has a positive denominator); the public
``numerator``/``denominator`` are properties, no faster than ``Fraction <``.
Any other pair of types, such as an ``int`` end, falls back to the operator.
:func:`lt`, :func:`eq`, :func:`side` and :func:`crossing` run on every cell
of every sweep: each calls no other kernel, and callers import them by name.

The certificate checks use three more kernels.  A sort of many ends keys
them by (:func:`approx`, end), so that it compares floats and reaches a
``Fraction`` comparison only on a float tie.  :func:`max_abs_pair` gives
the norm of a piecewise function as a pair, which ``PiecewiseFn.norm_pair``
works out once per function, :func:`side` compares with a bound and
:func:`deviates` with a limit and a deviation; only a failing check
reduces it to a ``Fraction``.  :func:`poly_values` works out
a polynomial at each distinct level by Horner's rule on integers and
builds one ``Fraction`` per level.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

NEG_INF = -math.inf
POS_INF = math.inf
_INFINITIES = (NEG_INF, POS_INF)


def is_finite(e) -> bool:
    t = type(e)
    return t is Fraction or t is int


def lt(x, y) -> bool:
    """x < y for two ends or values."""
    tx, ty = type(x), type(y)
    if tx is Fraction:
        if ty is Fraction:
            return x._numerator * y._denominator < y._numerator * x._denominator
        if ty is float and y in _INFINITIES:
            return y > 0
    elif tx is float and ty is Fraction and x in _INFINITIES:
        return x < 0
    return x < y


def eq(x, y) -> bool:
    """x == y for two ends or values."""
    if x is y:
        return True
    tx, ty = type(x), type(y)
    if tx is Fraction:
        if ty is Fraction:
            return x._numerator == y._numerator and x._denominator == y._denominator
        if ty is float and y in _INFINITIES:
            return False
    elif tx is float and ty is Fraction and x in _INFINITIES:
        return False
    return x == y


def approx(e) -> float:
    """e as the nearest float, or an infinity of e's sign past the float
    range.  The rounding is correct, so it never reverses an order: x < y
    gives approx(x) <= approx(y).  A sort by (approx(e), e) compares
    floats and falls back to the exact ends only on a float tie."""
    t = type(e)
    if t is float:
        return e
    n, d = (e._numerator, e._denominator) if t is Fraction else (e, 1)
    try:
        return n / d
    except OverflowError:
        return POS_INF if n > 0 else NEG_INF


def side(e, n: int, d: int) -> int:
    """The sign of e - n/d for an end or value e and a pair n/d, by one
    cross product."""
    t = type(e)
    if t is Fraction:
        x, y = e._numerator * d, n * e._denominator
    elif t is float:
        return 1 if e > 0 else -1
    else:
        x, y = e * d, n
    return (x > y) - (x < y)


def diff(x: Fraction, y: Fraction) -> tuple[int, int]:
    """x - y as a pair; the denominator is shared when x and y share one."""
    xd, yd = x._denominator, y._denominator
    if xd == yd:
        return x._numerator - y._numerator, xd
    return x._numerator * yd - y._numerator * xd, xd * yd


def crossing(a1: Fraction, b1: Fraction, a2: Fraction, b2: Fraction) -> tuple[int, int, int]:
    """(s, n, d) for the laws a1 x + b1 and a2 x + b2: s has the sign of
    a1 - a2, and when s != 0, x0 = n/d is the pair where they cross, so
    that (a1 x + b1) - (a2 x + b2) = (a1 - a2)(x - x0).  n = d = 0 when
    s = 0.  With a2 = b2 = 0 it is the root of a1 x + b1; with a2 = 0 and
    b2 = c, where a1 x + b1 crosses the level c."""
    a1d, a2d = a1._denominator, a2._denominator
    s = a1._numerator * a2d - a2._numerator * a1d
    if s == 0:
        return 0, 0, 0
    b1d, b2d = b1._denominator, b2._denominator
    # x0 = (b2 - b1) / (a1 - a2), the difference b2 - b1 over b1d b2d
    n = (b2._numerator * b1d - b1._numerator * b2d) * a1d * a2d
    d = b1d * b2d * s
    return (s, -n, -d) if d < 0 else (s, n, d)


def total_length(spans: Iterable) -> Union[Fraction, float]:
    """The sum of hi - lo over spans with `lo` and `hi` ends (intervals), or
    inf when some end is infinite.  The lengths are summed as one pair, whose
    denominator stays the larger when one divides the other."""
    n, d = 0, 1
    for span in spans:
        lo, hi = span.lo, span.hi
        if type(lo) is not Fraction or type(hi) is not Fraction:
            if type(lo) is float or type(hi) is float:
                return POS_INF
            lo, hi = Fraction(lo), Fraction(hi)  # int ends
        pn, pd = diff(hi, lo)
        if d % pd == 0:
            n += pn * (d // pd)
        elif pd % d == 0:
            n, d = n * (pd // d) + pn, pd
        else:
            n, d = n * pd + pn * d, d * pd
    return Fraction(n, d)


def _end_abs(pieces: Iterable):
    """The pairs (n, d), unreduced, of |a x + b| at the interval ends of the
    non-null pieces (`slope` a, `intercept` b, `interval` with `lo` and
    `hi`); a flat piece gives |b| once and may be unbounded."""
    for p in pieces:
        iv = p.interval
        lo, hi = iv.lo, iv.hi
        if eq(lo, hi):
            continue
        a, b = p.slope, p.intercept
        an, bn, bd = a._numerator, b._numerator, b._denominator
        if an == 0:
            yield abs(bn), bd
            continue
        # a x + b = (an xn bd + bn ad xd) / (ad xd bd) at x = xn / xd
        ad = a._denominator
        for x in (lo, hi):
            xn, xd = (x._numerator, x._denominator) if type(x) is Fraction else (x, 1)
            yield abs(an * xn * bd + bn * ad * xd), ad * xd * bd


def max_abs_pair(pieces: Iterable) -> tuple[int, int]:
    """The largest |a x + b| at the interval ends of the non-null pieces
    (`_end_abs`), (0, 1) for none, as an unreduced pair."""
    best_n, best_d = 0, 1
    for n, d in _end_abs(pieces):
        if n * best_d > best_n * d:
            best_n, best_d = n, d
    return best_n, best_d


def deviates(n: int, d: int, c: Fraction, r: Fraction) -> bool:
    """|n/d - c| > r for a pair n/d, by one cross product."""
    cn, cd = c._numerator, c._denominator
    return abs(n * cd - cn * d) * r._denominator > r._numerator * d * cd


def min_abs(pieces: Iterable, cap: Fraction) -> Fraction:
    """The smallest nonzero |a x + b| below `cap` at the interval ends of
    the non-null pieces (`_end_abs`), or `cap` itself when none lies below
    it; compared as pairs, one ``Fraction`` built for a new value."""
    best_n, best_d = cap._numerator, cap._denominator
    found = False
    for n, d in _end_abs(pieces):
        if n and n * best_d < best_n * d:
            best_n, best_d, found = n, d, True
    return Fraction(best_n, best_d) if found else cap


def poly_values(coeffs: Sequence[Fraction], values: Iterable[Fraction]) -> list[Fraction]:
    """p(v) for each v of `values`, p = c0 + c1 t + ... + cm t^m given by
    its coefficients; p = 0 when there are none.  Over the common
    denominator D of the coefficients, C_i = c_i D are integers, and at
    v = n/d, p(v) = (C_m n^m + C_(m-1) n^(m-1) d + ... + C_0 d^m) / (D d^m),
    worked out by Horner's rule on integers.  Each distinct value is worked
    out once, and its ``Fraction`` is built and reduced once."""
    den = 1
    for c in coeffs:
        den = math.lcm(den, c._denominator)
    top, *rest = [c._numerator * (den // c._denominator) for c in reversed(coeffs)] or [0]
    seen: dict = {}
    out = []
    for v in values:
        key = v._numerator, v._denominator
        got = seen.get(key)
        if got is None:
            n, d = key
            acc, dm = top, 1
            for c in rest:
                dm *= d
                acc = acc * n + c * dm
            got = seen[key] = Fraction(acc, den * dm)
        out.append(got)
    return out


def end_value(const: Fraction, inv: Fraction, lin: Fraction, ell: int) -> Fraction:
    """const + inv/l + lin*l at the integer l >= 1, over the one denominator
    cd*id*ld*l; ``Fraction(n, d)`` reduces it once."""
    n, d = const._numerator, const._denominator
    if inv._numerator:
        idl = inv._denominator * ell
        n, d = n * idl + inv._numerator * d, d * idl
    if lin._numerator:
        md = lin._denominator
        n, d = n * md + lin._numerator * ell * d, d * md
    return Fraction(n, d)


def cauchy_bound(a: tuple[int, int], b: tuple[int, int],
                 c: tuple[int, int]) -> Optional[int]:
    """An integer l >= 1 past which a l^2 + b l + c keeps one sign, for the
    pairs a, b and c; None when a = b = 0 (no sign change at all).  When
    a = 0 it is ceil(-c/b) + 1 for a positive root -c/b and 1 otherwise,
    else the Cauchy bound 1 + max(|b|, |c|)/|a| on the roots, its ceiling
    plus one.  Ceilings by floor division."""
    (an, ad), (bn, bd), (cn, cd) = a, b, c
    if an == 0:
        if bn == 0:
            return None
        num, den = -cn * bd, cd * bn  # the root -c/b, its sign moved to the top
        if den < 0:
            num, den = -num, -den
        return -(-num // den) + 1 if num > 0 else 1
    # max(|b|, |c|) / |a| as num/den; ceil(1 + x) + 1 = ceil(x) + 2
    bn, cn = abs(bn), abs(cn)
    mn, md = (bn, bd) if bn * cd >= cn * bd else (cn, cd)
    return -(-(mn * ad) // (md * abs(an))) + 2


def fit_abc(p1, p2, p3) -> tuple[Fraction, Fraction, Fraction]:
    """Solve v = a + b/l + c*l through three (l, v) samples at distinct
    integers l, with ``Fraction`` values v.  Times l, the system is
    v_i l_i = a l_i + b + c l_i^2, with integer matrix rows (l_i, 1, l_i^2).
    With the v_i over the common denominator D = d1 d2 d3, Cramer's rule
    gives a, b and c as integer determinants over D times the matrix
    determinant, which is the Vandermonde product
    (l2 - l1)(l3 - l1)(l3 - l2) up to sign."""
    (l1, v1), (l2, v2), (l3, v3) = p1, p2, p3
    d1, d2, d3 = v1._denominator, v2._denominator, v3._denominator
    den = d1 * d2 * d3
    # right-hand sides v_i l_i over the common denominator den
    r1 = v1._numerator * d2 * d3 * l1
    r2 = v2._numerator * d1 * d3 * l2
    r3 = v3._numerator * d1 * d2 * l3
    q1, q2, q3 = l1 * l1, l2 * l2, l3 * l3
    # det [[l_i, 1, l_i^2]] = -(l2 - l1)(l3 - l1)(l3 - l2)
    det = -(l2 - l1) * (l3 - l1) * (l3 - l2)
    # Cramer: the column of the unknown replaced by (r1, r2, r3), expanded
    # along that column by its cofactors
    a = r1 * (q3 - q2) + r2 * (q1 - q3) + r3 * (q2 - q1)
    b = (r1 * (l3 * q2 - l2 * q3) + r2 * (l1 * q3 - l3 * q1)
         + r3 * (l2 * q1 - l1 * q2))
    c = r1 * (l2 - l3) + r2 * (l3 - l1) + r3 * (l1 - l2)
    scale = det * den
    return Fraction(a, scale), Fraction(b, scale), Fraction(c, scale)

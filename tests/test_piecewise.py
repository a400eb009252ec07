import ast
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given, strategies as st

from conftest import (ORACLE_DOMAIN, _ref_gt, function_probes, grid_points,
                      interval_sets, piecewise_fns, rationals, ref_ae_equal, ref_cells,
                      ref_exceeds, scaled, shifted)
from linfweak.piecewise import (EvaluationError, Piece, PiecewiseFn,
                                UnsupportedOperationError, _coalesced, min_of)
from linfweak.corpus import FAMILIES, family_by_name
from linfweak.engine import default_alpha_grid
from linfweak.families import MappedStepFamily, SummableDisjointFamily, TentFamily
from linfweak.sets import (NEG_INF, POS_INF, Domain, Interval, IntervalSet,
                           SetAlgebraError, closed, ico, ioc, ivl, opened, point)

DOM01 = Domain(IntervalSet.of(ico(0, 1)))


def chi(s, domain=DOM01):
    return PiecewiseFn.indicator(domain, s)


class TestEval:
    def test_step_inside(self):
        u = chi(IntervalSet.of(ico(0, F(1, 2))))
        assert u.eval(F(1, 4)) == 1

    def test_tent_plateau(self):
        u = TentFamily().term(5)
        assert u.eval(F(1, 5)) == 1
        assert u.eval(F(-1, 5)) == 1
        assert u.eval(0) == 0

    def test_breakpoint_convention(self):
        u = chi(IntervalSet.of(ico(0, F(1, 2))))
        assert u.eval(F(1, 2)) == 0  # right piece owns the breakpoint

    def test_outside_domain(self):
        u = chi(IntervalSet.of(ico(0, F(1, 2))))
        with pytest.raises(EvaluationError):
            u.eval(2)

    def test_null_gap_left_piece(self):
        dom = Domain(IntervalSet.of(opened(0, 1)))
        u = PiecewiseFn.from_pieces(dom, [(opened(0, F(1, 2)), 0, 3),
                                          (opened(F(1, 2), 1), 0, 7)])
        assert u.eval(F(1, 2)) == 3


class TestMinAbsCombo:
    def test_min_of_steps(self):
        a = chi(IntervalSet.of(ico(0, F(1, 2))))
        b = chi(IntervalSet.of(ico(F(1, 4), F(3, 4))))
        m = min_of([a, b])
        above = m.exceeds(PiecewiseFn.constant(DOM01, F(1, 2)))
        assert above == IntervalSet.of(ico(F(1, 4), F(1, 2))) == ref_gt_set(m, F(1, 2))

    def test_abs_of_negated_indicator(self):
        a = scaled(chi(IntervalSet.of(ico(0, F(1, 2)))), -1)
        assert ref_ae_equal(a.abs_fn(), chi(IntervalSet.of(ico(0, F(1, 2)))))

    def test_min_of_tents_sampling_oracle(self):
        # symbolic min of tents u_3, u_5 equals the pointwise min on a grid
        t = TentFamily()
        u3, u5 = t.term(3).abs_fn(), t.term(5).abs_fn()
        m = min_of([u3, u5])
        one = PiecewiseFn.constant(m.domain, 1)
        level_one = m.domain.carrier.difference(
            ref_exceeds(m, one).union(ref_exceeds(one, m)))
        assert level_one == IntervalSet.of(ivl(F(-1, 5), 0, True, False),
                                           ivl(0, F(1, 5), False, True))
        for x in [F(n, 60) for n in range(-59, 60)]:
            assert m.eval(x) == min(u3.eval(x), u5.eval(x))

    def test_linear_combo(self):
        a = IntervalSet.of(ico(0, F(1, 2)))
        b = IntervalSet.of(ico(F(1, 4), F(3, 4)))
        s = PiecewiseFn.step(DOM01, [(a, F(2)), (b, F(-1))])
        assert s.eval(F(1, 8)) == 2
        assert s.eval(F(3, 8)) == 1
        assert s.eval(F(5, 8)) == -1


class TestSuperlevel:
    def test_indicator(self):
        u = chi(IntervalSet.of(ico(0, F(1, 2))))
        assert u.superlevel(F(1, 2)) == IntervalSet.of(ico(0, F(1, 2)))

    def test_alpha_must_be_positive(self):
        u = chi(IntervalSet.of(ico(0, F(1, 2))))
        with pytest.raises(ValueError):
            u.superlevel(0)

    def test_zero_function(self):
        u = PiecewiseFn.constant(DOM01, 0)
        assert u.superlevel(F(1, 3)).is_empty()

    def test_tent_sign_check_oracle(self):
        # solve per piece, then confirm by sign checks at grid midpoints
        u = TentFamily().term(4)
        alpha = F(1, 2)
        got = u.superlevel(alpha)
        assert got == IntervalSet.of(opened(F(-3, 8), 0), opened(0, F(3, 8)))
        for x in [F(n, 64) for n in range(-63, 64)]:
            assert got.contains(x) == (abs(u.eval(x)) > alpha)

    def test_strict_inequality_flags(self):
        ramp = PiecewiseFn.from_pieces(DOM01, [(ico(0, 1), 1, 0)])
        got = ramp.superlevel(F(1, 2))
        # {x > 1/2}: endpoint excluded by strictness
        assert got == IntervalSet.of(opened(F(1, 2), 1))


class TestEssSup:
    def test_indicator(self):
        assert chi(IntervalSet.of(ico(0, F(1, 2)))).ess_sup_norm() == 1

    def test_null_piece_ignored(self):
        dom = Domain(IntervalSet.of(closed(0, 1)))
        u = PiecewiseFn.from_pieces(dom, [(ico(0, F(1, 2)), 0, 1),
                                          (point(F(1, 2)), 0, 7),
                                          (opened(F(1, 2), 1), 0, 1),
                                          (point(1), 0, 1)])
        assert u.ess_sup_norm() == 1

    def test_vj_plateau_norm(self):
        # pointwise min of the piled dyadic blocks keeps norm 1 for every J
        from linfweak.corpus import dyadic_indicators_plus
        fam = dyadic_indicators_plus()
        for J in (1, 3, 6):
            m = min_of([fam.term(k).abs_fn() for k in range(1, J + 1)])
            assert m.ess_sup_norm() == 1


class TestComposePoly:
    def test_square_of_indicator(self):
        u = chi(IntervalSet.of(ico(0, F(1, 2))))
        assert ref_ae_equal(u.compose_poly([0, 0, 1]), u)

    def test_constant_poly(self):
        u = chi(IntervalSet.of(ico(0, F(1, 2))))
        c = u.compose_poly([1])
        assert ref_ae_equal(c, PiecewiseFn.constant(DOM01, 1))

    def test_affine_shift(self):
        u = chi(IntervalSet.of(ico(0, F(1, 2))))
        v = u.compose_poly([-1, 2])  # 2t - 1
        assert v.eval(F(1, 4)) == 1
        assert v.eval(F(3, 4)) == -1

    def test_rejects_ramps(self):
        ramp = PiecewiseFn.from_pieces(DOM01, [(ico(0, 1), 1, 0)])
        with pytest.raises(UnsupportedOperationError):
            ramp.compose_poly([0, 1])


class TestProperties:
    @given(interval_sets(max_parts=2), rationals(lo=1, hi=4, max_den=6))
    def test_superlevel_ess_sup_duality(self, s, alpha):
        dom = Domain(IntervalSet.of(closed(-20, 20)))
        u = PiecewiseFn.indicator(dom, s.intersect(dom.carrier))
        null_level = u.superlevel(alpha).is_null() if alpha > 0 else None
        if alpha > 0:
            assert null_level == (u.ess_sup_norm() <= alpha)

    @given(st.integers(1, 8), st.integers(1, 8))
    def test_min_is_pointwise_min(self, i, j):
        t = TentFamily()
        u, v = t.term(i).abs_fn(), t.term(j).abs_fn()
        m = min_of([u, v])
        for x in [F(n, 17) for n in range(-16, 17)]:
            assert m.eval(x) == min(u.eval(x), v.eval(x))

    @given(st.integers(1, 6))
    def test_vj_superlevel_monotone_in_J(self, J):
        t = TentFamily()
        fns = [t.term(k).abs_fn() for k in range(1, J + 2)]
        for alpha in (F(1, 4), F(1, 2), F(3, 4)):
            a = min_of(fns[:J]).superlevel(alpha)
            b = min_of(fns).superlevel(alpha)
            assert b.is_subset(a)

    @given(interval_sets(max_parts=2))
    def test_translate_is_exact(self, s):
        dom = Domain.real_line()
        u = PiecewiseFn.indicator(dom, s)
        v = u.translate(3)
        for x in grid_points(s):
            assert v.eval(x - 3) == u.eval(x)


def _assert_canonical(pieces):
    """No two touching pieces share slope and intercept."""
    for p, q in zip(pieces, pieces[1:]):
        touching = (p.interval.hi == q.interval.lo
                    and p.interval.hi_closed != q.interval.lo_closed)
        assert not (touching and (p.slope, p.intercept) == (q.slope, q.intercept))


class TestGridOracles:
    """The sweep-based kernels against pointwise evaluation at every probe
    of the refined breakpoint grid."""

    @given(st.lists(piecewise_fns(), min_size=1, max_size=4))
    def test_min_of(self, fns):
        m = min_of(fns)
        for x in function_probes(m, *fns):
            assert m.eval(x) == min(f.eval(x) for f in fns)

    @given(st.lists(piecewise_fns(), min_size=1, max_size=4))
    def test_min_of_is_canonical(self, fns):
        _assert_canonical(min_of(fns).pieces)

    @given(piecewise_fns(), st.integers(1, 12).map(lambda n: F(n, 4)))
    def test_superlevel(self, u, alpha):
        s = u.superlevel(alpha)
        for x in function_probes(u, extra=(s,)):
            assert s.contains(x) == (abs(u.eval(x)) > alpha)

    @given(piecewise_fns(), interval_sets(max_parts=3))
    def test_restrict(self, u, window):
        assume(not u.domain.carrier.intersect(window).is_empty())
        r = u.restrict(window)
        assert r.domain.carrier == u.domain.carrier.intersect(window)
        for x in function_probes(u, extra=(window,)):
            in_piece = any(p.interval.contains(x) for p in r.pieces)
            assert in_piece == window.contains(x)
            if in_piece:
                assert r.eval(x) == u.eval(x)

    @given(piecewise_fns())
    def test_abs_fn(self, u):
        a = u.abs_fn()
        for x in function_probes(u, a):
            assert a.eval(x) == abs(u.eval(x))

    @given(piecewise_fns(step=True),
           st.lists(rationals(lo=-3, hi=3, max_den=4), max_size=4))
    def test_compose_poly(self, s, coeffs):
        p = s.compose_poly(coeffs)
        for x in function_probes(s, p):
            assert p.eval(x) == sum(c * s.eval(x) ** i for i, c in enumerate(coeffs))

    @given(piecewise_fns(), rationals())
    def test_translate(self, u, d):
        t = u.translate(d)
        assert t.domain.carrier == u.domain.carrier.shift(-d)
        for x in function_probes(u):
            assert any(p.interval.contains(x - d) for p in t.pieces)
            assert t.eval(x - d) == u.eval(x)

    def test_min_of_tents_is_one_piece_per_run(self):
        # v_32 of the tents has 7 maximal affine runs: 0, ramp, 1, 0, 1, ramp, 0
        t = TentFamily()
        m = min_of([t.term(k).abs_fn() for k in range(1, 33)])
        assert len(m.pieces) == 7

    def test_min_of_keeps_a_puncture_of_the_carrier(self):
        # equal laws on both sides of a missing point are not touching pieces
        dom = Domain(IntervalSet.of(opened(-1, 0), opened(0, 1)))
        m = min_of([PiecewiseFn.constant(dom, 1), PiecewiseFn.constant(dom, 2)])
        assert [str(p.interval) for p in m.pieces] == ["(-1,0)", "(0,1)"]


def _pieces(*triples):
    return tuple(Piece(iv, F(a), F(b)) for iv, a, b in triples)


TWO_PARTS = Domain(IntervalSet.of(ico(0, 1), ico(2, 3)))


class TestValidation:
    """Every construction checks its pieces against the carrier; the raw
    constructor takes the pieces in the order given."""

    @pytest.mark.parametrize("domain, triples, message", [
        (DOM01, [(closed(0, F(1, 2)), 0, 1), (ico(F(1, 4), 1), 0, 2)], "overlapping"),
        (DOM01, [(opened(F(1, 2), 1), 0, 1), (closed(0, F(1, 2)), 0, 2)], "overlapping"),
        (DOM01, [(closed(0, F(1, 2)), 0, 1), (ico(F(1, 2), 1), 0, 2)], "overlapping"),
        (DOM01, [(ico(0, F(1, 4)), 0, 1), (ico(F(1, 2), 1), 0, 2)], "non-null gap"),
        (DOM01, [(ico(F(1, 4), 1), 0, 1)], "non-null gap"),
        (DOM01, [(ico(0, F(1, 2)), 0, 1)], "non-null gap"),
        (TWO_PARTS, [(ico(0, 1), 0, 1)], "non-null gap"),
        (DOM01, [(ico(0, 1), 0, 1), (ico(1, 2), 0, 2)], "exceed"),
        (DOM01, [(closed(0, 1), 0, 1)], "exceed"),
        (Domain(IntervalSet.of(opened(0, 1))), [(ico(0, 1), 0, 1)], "exceed"),
        (TWO_PARTS, [(ico(0, 1), 0, 1), (point(F(3, 2)), 0, 1), (ico(2, 3), 0, 1)],
         "exceed"),
        (Domain.real_line(), [(opened(NEG_INF, POS_INF), 1, 0)],
         "a piece with nonzero slope must be bounded"),
    ], ids=("overlapping", "out-of-order", "closed-ends-touch", "gap",
            "gap-at-start", "gap-at-end", "part-without-piece", "outside-carrier",
            "closed-end-past-open-carrier-end", "closed-start-at-open-carrier-start",
            "piece-in-carrier-hole", "unbounded-slope"))
    def test_rejects(self, domain, triples, message):
        with pytest.raises(SetAlgebraError, match=message):
            PiecewiseFn(domain, _pieces(*triples))

    @pytest.mark.parametrize("domain, triples", [
        # a missing point between two open ends is a null gap
        (DOM01, [(ico(0, F(1, 2)), 0, 1), (opened(F(1, 2), 1), 0, 2)]),
        # an isolated point of the carrier may hold no piece
        (Domain(IntervalSet.of(ico(0, 1), point(2))), [(ico(0, 1), 0, 1)]),
        # a point piece between two pieces that leave it out
        (DOM01, [(ico(0, F(1, 2)), 1, 0), (point(F(1, 2)), 0, 7),
                 (opened(F(1, 2), 1), 0, 2)]),
        (Domain.real_line(), [(opened(NEG_INF, 0), 0, 1), (closed(0, 1), 1, 0),
                              (opened(1, POS_INF), 0, 1)]),
    ], ids=("punctured", "isolated-carrier-point", "point-piece", "real-line"))
    def test_accepts_null_gaps(self, domain, triples):
        PiecewiseFn(domain, _pieces(*triples))


def _assert_pointwise(fn, oracle, *fns, ties=()):
    """fn equals the oracle at every probe of the breakpoint grid of fn and
    fns, with the tie points added to the grid."""
    extra = [IntervalSet.of(point(x)) for x in ties]
    probes = function_probes(fn, *fns, extra=extra)
    assert {x for x in ties if fn.domain.carrier.contains(x)} <= set(probes)
    for x in probes:
        assert fn.eval(x) == oracle(x)


DOM11 = Domain(IntervalSet.of(closed(-1, 1)))
X = PiecewiseFn.from_pieces(DOM11, [(closed(-1, 1), 1, 0)])


class TestTies:
    """Crossings, roots and level hits that fall on a cell end or inside a
    point cell, where the side each law wins on is decided by the sign of a
    slope difference."""

    @pytest.mark.parametrize("triples", [
        # -x crosses x at 0, the closed left end of the cell [0, 1]
        [(ico(-1, 0), 0, 5), (closed(0, 1), -1, 0)],
        # ... at 0, the open left end of (0, 1]
        [(closed(-1, 0), 0, 5), (ioc(0, 1), -1, 0)],
        # ... at 0, the closed right end of [-1, 0]
        [(closed(-1, 0), -1, 0), (ioc(0, 1), 0, 5)],
        # ... inside the point cell {0}, and beside it
        [(ico(-1, 0), 0, 5), (point(0), -1, 0), (ioc(0, 1), 0, 5)],
        [(ico(-1, 0), 0, -5), (point(0), -1, 0), (ioc(0, 1), 0, -5)],
        [(ico(-1, F(1, 2)), 0, 5), (point(F(1, 2)), -1, 0), (ioc(F(1, 2), 1), 0, 5)],
    ], ids=("closed-cell-end", "open-cell-end", "closed-right-end", "point-cell",
            "point-cell-below", "point-cell-off-crossing"))
    def test_min_of_crossing_on_a_cell_end(self, triples):
        v = PiecewiseFn.from_pieces(DOM11, triples)
        for fns in ([X, v], [v, X]):
            m = min_of(fns)
            _assert_pointwise(m, lambda x: min(f.eval(x) for f in fns), *fns,
                              ties=(F(0),))
            _assert_canonical(m.pieces)

    def test_min_of_crossing_at_a_closed_cell_end_adds_no_point_piece(self):
        v = PiecewiseFn.from_pieces(DOM11, [(ico(-1, 0), 0, 5), (closed(0, 1), -1, 0)])
        m = min_of([X, v])
        assert [str(p.interval) for p in m.pieces] == ["[-1,0)", "[0,1]"]
        assert [(p.slope, p.intercept) for p in m.pieces] == [(1, 0), (-1, 0)]

    @pytest.mark.parametrize("triples, root", [
        ([(closed(0, 1), 1, 0)], F(0)),                # root at a closed left end
        ([(ioc(0, 1), -1, 0)], F(0)),                  # ... at an open left end
        ([(closed(0, 1), 1, -1)], F(1)),               # ... at a closed right end
        ([(ico(0, 1), -1, 1)], F(1)),                  # ... at an open right end
        ([(ico(-1, 0), 0, 2), (point(0), -1, 0), (ioc(0, 1), 0, -2)], F(0)),
        ([(ico(-1, 0), 2, 0), (closed(0, 1), -2, 0)], F(0)),
    ], ids=("closed-left", "open-left", "closed-right", "open-right", "point-piece",
            "root-at-breakpoint"))
    def test_abs_fn_root_at_a_piece_end(self, triples, root):
        carrier = IntervalSet.of(*[iv for iv, _, _ in triples])
        u = PiecewiseFn.from_pieces(Domain(carrier), triples)
        a = u.abs_fn()
        _assert_pointwise(a, lambda x: abs(u.eval(x)), u, ties=(root,))

    def test_abs_fn_root_at_a_closed_end_adds_no_point_piece(self):
        u = PiecewiseFn.from_pieces(DOM11, [(ico(-1, 0), 2, 0), (closed(0, 1), -2, 0)])
        a = u.abs_fn()
        assert [str(p.interval) for p in a.pieces] == ["[-1,0)", "[0,1]"]
        assert [(p.slope, p.intercept) for p in a.pieces] == [(-2, 0), (2, 0)]

    # ramps whose end values are 0, 1 and -1
    RAMPS = PiecewiseFn.from_pieces(Domain(IntervalSet.of(closed(-2, 2))), [
        (ico(-2, -1), 1, 2), (closed(-1, 0), -1, 0), (opened(0, 1), 2, -1),
        (closed(1, 2), -2, 3)])

    @pytest.mark.parametrize("c", [F(-1), F(0), F(1), F(1, 2)])
    def test_gt_set_at_end_values(self, c):
        u = self.RAMPS
        s = u.exceeds(PiecewiseFn.constant(u.domain, c))
        assert s == ref_gt_set(u, c)
        for x in function_probes(u, extra=(s,)):
            assert s.contains(x) == (u.eval(x) > c)

    @pytest.mark.parametrize("alpha", [F(1), F(1, 2), F(3)])
    def test_superlevel_at_end_values(self, alpha):
        u = self.RAMPS
        s = u.superlevel(alpha)
        for x in function_probes(u, extra=(s,)):
            assert s.contains(x) == (abs(u.eval(x)) > alpha)

    def test_level_sets_at_end_values(self):
        # |u| reaches 1 only at piece ends, where 1 > 1 is false
        u = self.RAMPS
        assert u.superlevel(1).is_empty()
        for c, want in ((0, IntervalSet.of(opened(-2, 0), opened(F(1, 2), F(3, 2)))),
                        (-1, IntervalSet.of(ico(-2, 2)))):
            assert u.exceeds(PiecewiseFn.constant(u.domain, c)) == want == ref_gt_set(u, c)


# -- the integer crossing kernel against plain Fraction arithmetic -------------
#
# The reference below is the arithmetic of the piecewise layer written with
# Fraction operators: each crossing is (b2 - b1) / (a1 - a2), each level
# root (c - b) / a, each length hi - lo.  Its common cells are an all-pairs
# loop (`ref_cells` of conftest, with `ref_exceeds` and `_ref_gt`), which
# `TestCellWalkDifferential` checks the one cell walk `_cells_with` against;
# `_coalesced` is shared.


def _ref_split(cell, x0, left, right, tie):
    if cell.lo >= x0:
        return [Piece(cell, *(tie if cell.lo == cell.hi == x0 else right))]
    if x0 >= cell.hi:
        return [Piece(cell, *left)]
    return [Piece(Interval(cell.lo, x0, cell.lo_closed, True), *left),
            Piece(Interval(x0, cell.hi, False, cell.hi_closed), *right)]


def _ref_min2(u, v):
    pieces = []
    for lo, hi, lo_closed, hi_closed, p, q in ref_cells(u, v):
        cell = Interval(lo, hi, lo_closed, hi_closed)
        (a1, b1), (a2, b2) = (p.slope, p.intercept), (q.slope, q.intercept)
        if a1 == a2:
            pieces.append(Piece(cell, *((a1, b1) if b1 <= b2 else (a2, b2))))
            continue
        x0 = (b2 - b1) / (a1 - a2)
        left, right = ((a1, b1), (a2, b2)) if a1 > a2 else ((a2, b2), (a1, b1))
        pieces += _ref_split(cell, x0, left, right, (a1, b1))
    return PiecewiseFn(u.domain, _coalesced(pieces))


def ref_min_of(fns):
    out = PiecewiseFn(fns[0].domain, _coalesced(fns[0].pieces))
    for f in fns[1:]:
        out = _ref_min2(out, f)
    return out


def ref_abs_fn(u):
    pieces = []
    for p in u.pieces:
        a, b = p.slope, p.intercept
        if a == 0:
            pieces.append(Piece(p.interval, a, abs(b)))
            continue
        left, right = ((-a, -b), (a, b)) if a > 0 else ((a, b), (-a, -b))
        pieces += _ref_split(p.interval, -b / a, left, right, (a, b))
    return PiecewiseFn(u.domain, tuple(pieces))


def _ref_lt(p, c):
    """{a x + b < c} = {-a x - b > -c} on the piece."""
    return _ref_gt(Piece(p.interval, -p.slope, -p.intercept), -c)


def ref_gt_set(u, c):
    return IntervalSet.of(*[_ref_gt(p, c) for p in u.pieces])


def ref_superlevel(u, alpha):
    return IntervalSet.of(*[f(p, c) for p in u.pieces
                            for f, c in ((_ref_gt, alpha), (_ref_lt, -alpha))])


def ref_support(u):
    parts = []
    for p in u.pieces:
        if p.slope == 0:
            parts.append(p.interval if p.intercept != 0 else None)
        else:
            parts += [_ref_gt(p, F(0)), _ref_lt(p, F(0))]
    return IntervalSet.of(*parts)


def ref_measure(s):
    total = F(0)
    for p in s.parts:
        if not p.is_bounded():
            return POS_INF
        total += p.hi - p.lo
    return total


# integral slopes and values next to proper fractions; the crossing of two
# laws anchored at one (cut, value) lies exactly on a cell end
KERNEL_SLOPES = (F(0), F(1), F(-1), F(3), F(-2), F(1, 2), F(-5, 3))
KERNEL_VALUES = (F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 4))


KERNEL_CUTS = st.lists(rationals(lo=-3, hi=3, max_den=3), max_size=5)


@st.composite
def kernel_fns(draw, unbounded, drawn=None):
    """Random functions on the real line (whose outer pieces are constant
    rays) or on [-4, 4], with integer and fractional cuts (`drawn`, unless
    given), point pieces, null gaps and laws through chosen (cut, value)
    anchors."""
    if drawn is None:
        drawn = draw(KERNEL_CUTS)
    cuts = sorted({c for c in drawn if -4 < c < 4})
    ends = ([NEG_INF] if unbounded else [F(-4)]) + cuts + \
        ([POS_INF] if unbounded else [F(4)])
    anchors = cuts + [F(0)]

    def law(bounded):
        if not bounded:
            return F(0), draw(st.sampled_from(KERNEL_VALUES))
        a = draw(st.sampled_from(KERNEL_SLOPES))
        y = draw(st.sampled_from(KERNEL_VALUES))
        if draw(st.booleans()):
            return a, y - a * draw(st.sampled_from(anchors))
        return a, y

    triples = []
    lo_closed = not unbounded
    for i, (a, b) in enumerate(zip(ends, ends[1:])):
        last = i == len(ends) - 2
        owner = ("gap" if unbounded else "left") if last else draw(
            st.sampled_from(("left", "right", "point", "gap")))
        iv = ivl(a, b, lo_closed, owner == "left")
        triples.append((iv, *law(iv.is_bounded())))
        if owner == "point":
            # a law through (b, 0) or (b, 1): half the time its root is b
            a = draw(st.sampled_from(KERNEL_SLOPES))
            triples.append((point(b), a, draw(st.sampled_from((F(0), F(1)))) - a * b))
        lo_closed = owner == "right"
    dom = Domain.real_line() if unbounded else ORACLE_DOMAIN
    return PiecewiseFn.from_pieces(dom, triples)


def ref_ess_sup_norm(u):
    """max |a x + b| over the closure ends of the non-null pieces."""
    vals = [F(0)]
    for p in u.pieces:
        iv = p.interval
        if iv.lo == iv.hi:
            continue
        if p.slope == 0:
            vals.append(abs(p.intercept))
        else:
            vals += [abs(p.slope * iv.lo + p.intercept), abs(p.slope * iv.hi + p.intercept)]
    return max(vals)


def _with_int_ends(u):
    """u with every integral end stored as an int, as Interval allows."""
    def end(e):
        return int(e) if type(e) is F and e.denominator == 1 else e
    return PiecewiseFn(u.domain, tuple(
        Piece(Interval(end(p.interval.lo), end(p.interval.hi), p.interval.lo_closed,
                       p.interval.hi_closed), p.slope, p.intercept) for p in u.pieces))


def _ends(obj):
    ivs = [p.interval for p in obj.pieces] if isinstance(obj, PiecewiseFn) else obj.parts
    return {e for iv in ivs for e in (iv.lo, iv.hi)}


def _assert_same(got, want, *inputs):
    """Equal results whose every finite end is a normalized Fraction; an end
    that no input has is a new crossing, equal to the reference's with the
    same hash."""
    assert got == want
    old = set().union(*[_ends(u) for u in inputs])
    want_ends = {e: e for e in _ends(want)}
    for e in _ends(got):
        if type(e) is float:
            continue
        assert type(e) is F
        assert e.denominator > 0 and math.gcd(e.numerator, e.denominator) == 1
        assert e == F(e.numerator, e.denominator)
        if e not in old:
            assert hash(e) == hash(want_ends[e]) == hash(F(e.numerator, e.denominator))


# u has a point piece at 0 with the law -x + 1 of the piece before it, and
# v = 1 ties with that law at 0: a fold that kept u's point piece split the
# run of v's law 1 at the point cell {0}
TIE_U = PiecewiseFn.from_pieces(ORACLE_DOMAIN, [
    (ico(-4, 0), -1, 1), (point(0), -1, 1), (ioc(0, 1), 0, 0), (ioc(1, 4), 0, 0)])
TIE_V = PiecewiseFn.constant(ORACLE_DOMAIN, 1)


class TestKernelDifferential:
    """min_of, abs_fn, superlevel, support, {u > c}, measure, exceeds,
    ess_sup_norm and the null tests exceeds_somewhere and vanishes_off
    against the Fraction-operator reference, piece by piece and part by
    part."""

    @given(st.booleans().flatmap(lambda unb: st.lists(kernel_fns(unb), min_size=1,
                                                      max_size=4)))
    @example([TIE_U, TIE_V])
    def test_min_of(self, fns):
        _assert_same(min_of(fns), ref_min_of(fns), *fns)

    def test_min_of_joins_a_point_piece_of_its_first_input(self):
        m = min_of([TIE_U, TIE_V])
        assert [(str(p.interval), p.slope, p.intercept) for p in m.pieces] == [
            ("[-4,0]", 0, 1), ("(0,4]", 0, 0)]
        assert m == ref_min_of([TIE_U, TIE_V])

    @given(st.booleans().flatmap(kernel_fns))
    def test_abs_fn(self, u):
        got = u.abs_fn()
        _assert_same(got, ref_abs_fn(u), u)
        if all(p.slope == 0 and p.intercept >= 0 for p in u.pieces):
            assert got is u

    @given(st.booleans().flatmap(kernel_fns), st.sampled_from(KERNEL_VALUES[1:]))
    def test_level_sets(self, u, c):
        const = PiecewiseFn.constant(u.domain, c)
        _assert_same(u.exceeds(const), ref_gt_set(u, c), u, const)
        if c > 0:
            _assert_same(u.superlevel(c), ref_superlevel(u, c), u)
        _assert_same(u.support(), ref_support(u), u)

    @given(st.booleans().flatmap(kernel_fns), st.sampled_from(KERNEL_VALUES[1:]))
    def test_measure(self, u, c):
        for s in (u.exceeds(PiecewiseFn.constant(u.domain, c)), u.support(), u.domain.carrier,
                  IntervalSet.of(*[p.interval for p in u.pieces if p.interval.is_bounded()])):
            assert s.measure() == ref_measure(s)

    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(0, 6),
                              st.booleans()), max_size=5))
    def test_measure_with_integer_ends(self, triples):
        # ints are ends too; Interval keeps them as given
        parts = [Interval(lo, lo + w, closed, closed) for lo, w, closed in triples
                 if w > 0 or closed]
        s = IntervalSet.of(*parts)
        assert s.measure() == ref_measure(s)
        for p in s.parts:
            assert p.length() == p.hi - p.lo

    def test_abs_fn_of_a_nonnegative_function_is_itself(self):
        u = TentFamily().term(6)
        assert u.abs_fn() is u
        assert scaled(u, -1).abs_fn() == u

    def test_abs_fn_keeps_each_unchanged_piece(self):
        # 2x - 1 < 0 on [-1, 0): that piece flips, the constant 3 stays
        u = PiecewiseFn.from_pieces(DOM11, [(ico(-1, 0), 2, -1), (closed(0, 1), 0, 3)])
        a = u.abs_fn()
        assert (a.pieces[0].slope, a.pieces[0].intercept) == (-2, 1)
        assert a.pieces[1] is u.pieces[1]

    def test_abs_fn_keeps_a_point_piece_at_its_root(self):
        # -x is 0 on the point piece {0}: its law stays, though -x < 0 right of 0
        u = PiecewiseFn.from_pieces(DOM11, [(ico(-1, 0), 0, 2), (point(0), -1, 0),
                                            (ioc(0, 1), 0, 2)])
        assert u.abs_fn() is u

    def test_integer_laws_are_stored_as_fractions(self):
        u = PiecewiseFn(DOM11, (Piece(closed(-1, 1), 1, 0),))
        assert all(type(q) is F for p in u.pieces for q in (p.slope, p.intercept))
        assert u.abs_fn().superlevel(F(1, 2)) == IntervalSet.of(
            ivl(-1, F(-1, 2), True, False), ivl(F(1, 2), 1, False, True))

    @given(st.booleans().flatmap(lambda unb: st.tuples(kernel_fns(unb), kernel_fns(unb))))
    def test_exceeds(self, pair):
        u, v = pair
        _assert_same(u.exceeds(v), ref_exceeds(u, v), u, v)
        _assert_same(v.exceeds(u), ref_exceeds(v, u), u, v)

    def test_exceeds_crossing_on_a_cell_end(self):
        # x and -x cross at the cut 0; a point piece at 0 keeps u's value 1
        u = PiecewiseFn.from_pieces(DOM11, [(ico(-1, 0), 1, 0), (point(0), 0, 1),
                                            (ioc(0, 1), 1, 0)])
        v = PiecewiseFn.from_pieces(DOM11, [(ico(-1, 0), -1, 0), (closed(0, 1), -1, 0)])
        assert u.exceeds(v) == IntervalSet.of(closed(0, 1)) == ref_exceeds(u, v)
        assert v.exceeds(u) == IntervalSet.of(ico(-1, 0)) == ref_exceeds(v, u)

    def test_exceeds_on_constant_rays(self):
        line = Domain.real_line()
        u = PiecewiseFn.from_pieces(line, [(ivl(NEG_INF, 0, False, True), 0, 1),
                                           (ivl(0, POS_INF, False, False), 0, 0)])
        half = PiecewiseFn.constant(line, F(1, 2))
        assert u.exceeds(half) == IntervalSet.of(ivl(NEG_INF, 0, False, True))
        assert half.exceeds(u) == IntervalSet.of(ivl(0, POS_INF, False, False))
        assert u.exceeds(u).is_empty()

    @given(st.booleans().flatmap(lambda unb: st.tuples(kernel_fns(unb), kernel_fns(unb))))
    def test_exceeds_somewhere(self, pair):
        u, v = pair
        assert u.exceeds_somewhere(v) == (not ref_exceeds(u, v).is_null())
        # u <= v with crossings inside cells: min(u, v) exceeds neither
        low = min_of([u, v])
        assert not low.exceeds_somewhere(u) and not low.exceeds_somewhere(v)
        assert not u.exceeds_somewhere(u.abs_fn())
        # both null tests: u = v almost everywhere, as the reference says
        assert (not u.exceeds_somewhere(v) and not v.exceeds_somewhere(u)) == \
            ref_ae_equal(u, v) == ref_ae_equal(v, u)
        high = min_of([v, u])
        assert not low.exceeds_somewhere(high) and not high.exceeds_somewhere(low)

    @given(st.booleans().flatmap(kernel_fns), interval_sets(max_parts=4, bounded=False))
    def test_vanishes_off(self, u, s):
        assert u.vanishes_off(s) == ref_support(u).subset_up_to_null(s)
        # the support itself and every set that holds it
        assert u.vanishes_off(ref_support(u))
        assert u.vanishes_off(ref_support(u).union(s))

    def test_vanishes_off_counts_a_sloped_piece_minus_its_root(self):
        # x on [-1, 1] vanishes only at its root 0; a zero piece needs no cover
        u = PiecewiseFn.from_pieces(DOM11, [(ico(-1, 0), 1, 0), (ico(0, 1), 1, 0),
                                            (point(1), 0, 0)])
        assert u.vanishes_off(IntervalSet.of(ico(-1, 0), opened(0, 1)))
        assert not u.vanishes_off(IntervalSet.of(ico(-1, 0), opened(F(1, 2), 1)))
        zero = PiecewiseFn.constant(DOM11, 0)
        assert zero.vanishes_off(IntervalSet.empty())

    @given(st.booleans().flatmap(kernel_fns), st.sampled_from(KERNEL_VALUES[1:]))
    def test_ess_sup_norm(self, u, c):
        for f in (u, scaled(u, -1), scaled(u, c), _with_int_ends(u)):
            got = f.ess_sup_norm()
            assert type(got) is F and got == ref_ess_sup_norm(f)
            assert math.gcd(got.numerator, got.denominator) == 1

    def test_ess_sup_norm_with_int_ends_and_negative_laws(self):
        dom = Domain(IntervalSet.of(Interval(0, 3, True, True)))
        u = PiecewiseFn(dom, (Piece(Interval(0, 1, True, False), F(2), F(-3)),
                              Piece(Interval(1, 1, True, True), F(0), F(-9)),
                              Piece(Interval(1, 3, False, True), F(-2), F(1, 3))))
        # |2x - 3| peaks at 0 with 3, |-2x + 1/3| at 3 with 17/3; the point
        # piece is null
        assert u.ess_sup_norm() == F(17, 3) == ref_ess_sup_norm(u)
        assert scaled(u, F(-3, 17)).ess_sup_norm() == 1

    @given(st.booleans().flatmap(kernel_fns), st.randoms())
    def test_from_pieces_in_any_order(self, u, rng):
        triples = [(p.interval, p.slope, p.intercept) for p in u.pieces]
        rng.shuffle(triples)
        assert PiecewiseFn.from_pieces(u.domain, triples) == u


@st.composite
def kernel_pairs(draw):
    """Two `kernel_fns` on one domain, half the time on the same cuts, so
    that each shared cut meets with both owners drawn independently: left,
    right, a point piece or a null gap."""
    unbounded = draw(st.booleans())
    cuts = draw(KERNEL_CUTS) if draw(st.booleans()) else None
    return draw(kernel_fns(unbounded, cuts)), draw(kernel_fns(unbounded, cuts))


class TestCellWalkDifferential:
    """The one walk over two piece lists, `_cells_with`, against the
    all-pairs reference `ref_cells`: the same cells in the same order, each
    with the same ends, flags and pieces."""

    @staticmethod
    def _assert_cells(u, v):
        got, want = list(u._cells_with(v)), ref_cells(u, v)
        assert [cell[:4] for cell in got] == [cell[:4] for cell in want]
        for (*_, p, q), (*_, ref_p, ref_q) in zip(got, want):
            assert p is ref_p and q is ref_q

    @given(kernel_pairs(), st.booleans())
    def test_cells(self, pair, int_ends):
        u, v = pair
        if int_ends:
            u = _with_int_ends(u)
        self._assert_cells(u, v)
        self._assert_cells(v, u)
        self._assert_cells(u, u)

    def test_touching_ends_with_mixed_flags(self):
        # u owns 0 from the left and v from the right: the walk passes the
        # point cell {0} between the two open rays
        line = Domain.real_line()
        u = PiecewiseFn.from_pieces(line, [(ivl(NEG_INF, 0, False, True), 0, 1),
                                           (ivl(0, POS_INF, False, False), 0, 2)])
        v = PiecewiseFn.from_pieces(line, [(ivl(NEG_INF, 0, False, False), 0, 3),
                                           (ivl(0, POS_INF, True, False), 0, 4)])
        cells = [(lo, hi, lo_closed, hi_closed, p.intercept, q.intercept)
                 for lo, hi, lo_closed, hi_closed, p, q in u._cells_with(v)]
        assert cells == [(NEG_INF, 0, False, False, 1, 3), (0, 0, True, True, 1, 4),
                         (0, POS_INF, False, False, 2, 4)]
        self._assert_cells(u, v)


def ref_compose_poly(u, coeffs):
    """p(u) piece for piece: Horner's rule in Fraction operators at each
    piece's level, on u's own intervals."""
    pieces = []
    for p in u.pieces:
        acc = F(0)
        for c in reversed(coeffs):
            acc = acc * p.intercept + c
        pieces.append(Piece(p.interval, F(0), acc))
    return tuple(pieces)


@st.composite
def levelled_steps(draw):
    """Step functions whose levels come from a pool of one to six drawn
    values, zero and negative ones among them: few pools repeat levels
    often, large ones give distinct levels."""
    u = draw(piecewise_fns(step=True))
    pool = draw(st.lists(st.one_of(st.just(F(0)), rationals(), rationals(max_den=1000)),
                         min_size=1, max_size=6))
    return PiecewiseFn(u.domain, tuple(
        Piece(p.interval, F(0), pool[draw(st.integers(0, len(pool) - 1))])
        for p in u.pieces))


POLY_COEFFS = st.lists(st.one_of(st.just(F(0)), st.integers(-4, 4), rationals(lo=-3, hi=3)),
                       max_size=5)


def _negative_blocks():
    """Blocks of height -5/2 on [2^-(k+1), 3 2^-(k+2)), one layer of a
    summable family."""
    return SummableDisjointFamily(Domain.open_interval(-1, 1), [
        (F(-5, 2), lambda k: IntervalSet.of(ico(F(1, 2 ** (k + 1)), F(3, 2 ** (k + 2)))))],
        name="negative-blocks")


class TestComposePolyDifferential:
    """compose_poly, one integer Horner pass per distinct level, against
    Horner's rule in Fraction operators, piece for piece; and the terms of
    `MappedStepFamily`, one compose_poly with p - p(0), against
    p(u_k) shifted by -p(0)."""

    @given(levelled_steps(), POLY_COEFFS)
    def test_compose_poly(self, u, coeffs):
        got = u.compose_poly(coeffs)
        assert got.domain == u.domain
        assert got.pieces == ref_compose_poly(u, coeffs)
        assert all(type(p.slope) is F and type(p.intercept) is F for p in got.pieces)

    @given(st.sampled_from(("dyadic-indicators", "summable-disjoint", "negative-blocks")),
           POLY_COEFFS.filter(bool))
    def test_mapped_step_terms(self, name, coeffs):
        inner = _negative_blocks() if name == "negative-blocks" else family_by_name(name)
        mapped = MappedStepFamily(inner, coeffs)
        for k in range(1, 21):
            u = inner.term(k)
            want = shifted(PiecewiseFn(u.domain, ref_compose_poly(u, coeffs)), -F(coeffs[0]))
            assert mapped.term(k).pieces == want.pieces


DEPTH_FAMILIES = ("tents", "escape-translates", "sided-translates",
                  "dyadic-indicators-plus", "summable-disjoint")
DEPTH_STRATEGIES = {"identity": lambda j: j, "even": lambda j: 2 * j,
                    "odd": lambda j: 2 * j - 1, "dyadic": lambda j: 2 ** j}


class TestBenchmarkDepth:
    """The v_J folds of the evidence families, J up to 48 along each default
    strategy (indices up to 96), and their level sets at the default alpha
    grid, against the Fraction-operator reference at every J."""

    @pytest.mark.parametrize("strategy", DEPTH_STRATEGIES)
    @pytest.mark.parametrize("name", DEPTH_FAMILIES)
    def test_v_j_folds_and_level_sets(self, name, strategy):
        family = family_by_name(name)
        alphas = default_alpha_grid(family, 12)
        ks = [DEPTH_STRATEGIES[strategy](j) for j in range(1, 49)]
        terms = [family.term(k).abs_fn() for k in ks if k <= 96]
        vj = want = None
        for t in terms:
            got = min_of([t] if vj is None else [vj, t])
            want = ref_min_of([t]) if vj is None else _ref_min2(want, t)
            _assert_same(got, want, *([t] if vj is None else [vj, t]))
            vj = got
            _assert_canonical(vj.pieces)
            for alpha in alphas:
                _assert_same(vj.superlevel(alpha), ref_superlevel(vj, alpha), vj)
                const = PiecewiseFn.constant(vj.domain, alpha)
                _assert_same(vj.exceeds(const), ref_gt_set(vj, alpha), vj, const)
            _assert_same(vj.support(), ref_support(vj), vj)


# -- the cut sweep ------------------------------------------------------------
# References: the constructors the sweep replaced.  A one-level step
# function was the parts of the level set in the carrier and of the rest of
# the carrier, sorted by `from_pieces`; a sum of levels was the pairwise sum
# of the scaled indicators, one piece per common cell (`ref_add`).


def ref_step(domain, levels):
    remaining = domain.carrier
    triples = []
    for s, v in reversed(levels):
        hit = s.intersect(remaining)
        remaining = remaining.difference(hit)
        triples += [(part, 0, v) for part in hit.parts]
    triples += [(part, 0, 0) for part in remaining.parts]
    return PiecewiseFn.from_pieces(domain, triples)


def ref_add(u, v):
    return PiecewiseFn.from_pieces(u.domain, [
        (Interval(lo, hi, lo_closed, hi_closed), p.slope + q.slope, p.intercept + q.intercept)
        for lo, hi, lo_closed, hi_closed, p, q in ref_cells(u, v)])


def ref_layer_sum(domain, layers):
    if not layers:
        return ref_step(domain, [])
    (s0, c0), *rest = layers
    out = scaled(ref_step(domain, [(s0, F(1))]), c0)
    for s, c in rest:
        out = ref_add(out, scaled(ref_step(domain, [(s, F(1))]), c))
    return out


# half-integer ends in [-3, 3], so that cuts of different sets often meet
SWEEP_ENDS = tuple(F(n, 2) for n in range(-6, 7))
SWEEP_VALUES = (0, 1, -2, F(0), F(1), F(-1), F(1, 2), F(-3, 4), F(5, 3))


@st.composite
def sweep_sets(draw, min_parts=0, max_parts=3):
    """Normalized sets with rays, point parts and ends shared with other
    sets."""
    parts = []
    for _ in range(draw(st.integers(min_parts, max_parts))):
        a, b = sorted(draw(st.sampled_from(SWEEP_ENDS)) for _ in range(2))
        shape = draw(st.sampled_from(("interval", "interval", "point", "left-ray",
                                      "right-ray")))
        if shape == "point":
            parts.append(point(a))
            continue
        lo = NEG_INF if shape == "left-ray" else a
        hi = POS_INF if shape == "right-ray" else b
        parts.append(ivl(lo, hi, draw(st.booleans()), draw(st.booleans())))
    return IntervalSet.of(*parts)


sweep_domains = sweep_sets(min_parts=1, max_parts=3).filter(
    lambda s: not s.is_empty()).map(Domain)
sweep_levels = st.lists(st.tuples(sweep_sets(), st.sampled_from(SWEEP_VALUES)),
                        max_size=4)


class TestCutSweep:
    """step against the constructors it replaced, piece by piece with ==,
    not almost everywhere."""

    @given(sweep_domains, sweep_levels)
    def test_step(self, domain, levels):
        got = PiecewiseFn.step(domain, levels)
        assert got.pieces == ref_layer_sum(domain, levels).pieces
        assert all(type(q) is F for p in got.pieces for q in (p.slope, p.intercept))

    @given(sweep_domains, sweep_levels, sweep_levels)
    def test_layer_sum(self, domain, head, tail):
        # the sum splits along the level list: the levels of head plus those of tail
        got = PiecewiseFn.step(domain, head + tail)
        want = ref_add(PiecewiseFn.step(domain, head), PiecewiseFn.step(domain, tail))
        assert got.pieces == want.pieces
        assert all(type(q) is F for p in got.pieces for q in (p.slope, p.intercept))

    @given(sweep_domains, sweep_sets(), st.sampled_from(SWEEP_VALUES))
    def test_indicator(self, domain, s, v):
        # the one-level shape of every program caller
        got = PiecewiseFn.step(domain, [(s, v)])
        assert got.pieces == ref_step(domain, [(s, v)]).pieces
        assert all(type(q) is F for p in got.pieces for q in (p.slope, p.intercept))
        assert PiecewiseFn.indicator(domain, s).pieces == ref_step(domain, [(s, F(1))]).pieces

    @given(sweep_domains)
    def test_empty_level_lists(self, domain):
        assert PiecewiseFn.step(domain, []).pieces == PiecewiseFn.constant(domain, 0).pieces
        assert (PiecewiseFn.step(domain, [(domain.carrier, 3)]).pieces
                == PiecewiseFn.constant(domain, 3).pieces)

    def test_cells_across_a_puncture_and_at_points(self):
        # carrier (-1, 0) u (0, 1] u {2}; a level [0, 1/2] and a point {1},
        # 1 elsewhere: a level on the carrier, the other shifted by -1
        dom = Domain(IntervalSet.of(opened(-1, 0), ioc(0, 1), point(2)))
        levels = [(IntervalSet.of(closed(0, F(1, 2)), point(1)), F(1, 2))]
        summed = [(dom.carrier, 1), (levels[0][0], F(1, 2) - 1)]
        u = PiecewiseFn.step(dom, summed)
        assert u.pieces == ref_layer_sum(dom, summed).pieces
        assert [(p.interval, p.intercept) for p in u.pieces] == [
            (opened(-1, 0), 1), (ioc(0, F(1, 2)), F(1, 2)), (opened(F(1, 2), 1), 1),
            (point(1), F(1, 2)), (point(2), 1)]
        s = PiecewiseFn.step(dom, [levels[0], (IntervalSet.of(ico(0, 2)), F(-2))])
        assert [p.intercept for p in s.pieces] == [0, F(-3, 2), -2, F(-3, 2), 0]


def _piecewise_images(name):
    """term(k).pieces of a corpus family, its |.| image and, for step
    families, its t^2 image, for k <= 64; built on a fresh family (not the
    shared one, whose cache may hold terms already), so that the
    constructors in use when called build every term."""
    fam = FAMILIES[name]()
    images = [fam, fam.abs_mapped()]
    if all(fam.term(k).is_step() for k in range(1, 65)):
        images.append(MappedStepFamily(fam, [F(0), F(0), F(1)]))
    return [[f.term(k).pieces for k in range(1, 65)] for f in images]


@pytest.mark.parametrize("name", [n for n in FAMILIES
                                  if family_by_name(n).has_piecewise_terms()])
def test_corpus_terms_match_the_reference_builds(name):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PiecewiseFn, "step", staticmethod(ref_layer_sum))
        want = _piecewise_images(name)
    assert _piecewise_images(name) == want


@pytest.mark.parametrize("name", [n for n in FAMILIES
                                  if family_by_name(n).has_piecewise_terms()])
def test_null_tests_agree_with_the_sets_on_corpus_terms(name):
    """exceeds_somewhere and vanishes_off answer as the sets they replace
    do, on every ordered pair of the first 12 terms and their |.| images
    (each term's own support among the sets)."""
    fam = family_by_name(name)
    terms = [fam.term(k) for k in range(1, 13)]
    terms += [u.abs_fn() for u in terms]
    supports = [u.support() for u in terms]
    for u, supp in zip(terms, supports):
        for v, other in zip(terms, supports):
            assert u.exceeds_somewhere(v) == (not u.exceeds(v).is_null())
            assert u.vanishes_off(other) == supp.subset_up_to_null(other)


def _alpha_grid(u):
    """The positive piece values of u, the midpoints between neighbouring
    ones and a value past each end."""
    values = sorted(c for c in u.piece_value_candidates() if c > 0) or [F(1)]
    return sorted({*values, *((a + b) / 2 for a, b in zip(values, values[1:])),
                   values[0] / 2, values[-1] + 1})


@pytest.mark.parametrize("name", [n for n in FAMILIES
                                  if family_by_name(n).has_piecewise_terms()])
@pytest.mark.parametrize("image", ("terms", "abs"))
def test_kept_values_match_the_references(name, image):
    """abs_fn, support, ess_sup_norm and superlevel keep what they build on
    the term: for k <= 64, on a fresh family and on its |.| image, each
    answer equals the reference, and asking again gives the same object."""
    fam = FAMILIES[name]()
    if image == "abs":
        fam = fam.abs_mapped()
    for k in range(1, 65):
        u = fam.term(k)
        got = u.abs_fn()
        _assert_same(got, ref_abs_fn(u), u)
        assert u.abs_fn() is got and got.abs_fn() is got
        got = u.support()
        _assert_same(got, ref_support(u), u)
        assert u.support() is got
        got = u.ess_sup_norm()
        assert got == ref_ess_sup_norm(u) and u.ess_sup_norm() == got
        for alpha in _alpha_grid(u):
            got = u.superlevel(alpha)
            _assert_same(got, ref_superlevel(u, alpha), u)
            assert u.superlevel(alpha) is got


def test_every_public_method_has_a_program_caller():
    """PiecewiseFn offers only what the program reads: each public method is
    named as an attribute (`x.name`) somewhere in the package, bench/ or
    demos/.  The scan reads source text and imports none of it; it matches
    by name, so a method of another class with the same name also counts."""
    root = Path(__file__).resolve().parents[1]
    read = set()
    for folder in ("src/linfweak", "bench", "demos"):
        for path in sorted((root / folder).glob("*.py")):
            read.update(node.attr for node in ast.walk(ast.parse(path.read_text(), str(path)))
                        if isinstance(node, ast.Attribute))
    public = [name for name, value in vars(PiecewiseFn).items()
              if not name.startswith("_") and isinstance(value, (staticmethod, type(min_of)))]
    assert "exceeds" in public and "from_pieces" in public
    assert not [name for name in public if name not in read]

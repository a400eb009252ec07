from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

from conftest import (function_probes, grid_points, interval_sets,
                      piecewise_fns, rationals)
from linfweak.piecewise import (EvaluationError, Piece, PiecewiseFn,
                                UnsupportedOperationError, linear_combo, min_of)
from linfweak.families import TentFamily
from linfweak.sets import (NEG_INF, POS_INF, Domain, IntervalSet, SetAlgebraError,
                           closed, ico, ioc, ivl, opened, point)

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
        assert m.gt_set(F(1, 2)) == IntervalSet.of(ico(F(1, 4), F(1, 2)))

    def test_abs_of_negated_indicator(self):
        a = chi(IntervalSet.of(ico(0, F(1, 2)))).negate()
        assert a.abs_fn().ae_equal(chi(IntervalSet.of(ico(0, F(1, 2)))))

    def test_min_of_tents_sampling_oracle(self):
        # symbolic min of tents u_3, u_5 equals the pointwise min on a grid
        t = TentFamily()
        u3, u5 = t.term(3).abs_fn(), t.term(5).abs_fn()
        m = min_of([u3, u5])
        level_one = m.domain.carrier.difference(m.sub(
            PiecewiseFn.constant(m.domain, 1)).ne_set(
                PiecewiseFn.constant(m.domain, 0)))
        assert level_one == IntervalSet.of(ivl(F(-1, 5), 0, True, False),
                                           ivl(0, F(1, 5), False, True))
        for x in [F(n, 60) for n in range(-59, 60)]:
            assert m.eval(x) == min(u3.eval(x), u5.eval(x))

    def test_linear_combo(self):
        a = chi(IntervalSet.of(ico(0, F(1, 2))))
        b = chi(IntervalSet.of(ico(F(1, 4), F(3, 4))))
        s = linear_combo([F(2), F(-1)], [a, b])
        assert s.eval(F(1, 8)) == 2
        assert s.eval(F(3, 8)) == 1
        assert s.eval(F(5, 8)) == -1

    def test_product_needs_a_step(self):
        ramp = PiecewiseFn.from_pieces(DOM01, [(ico(0, 1), 1, 0)])
        with pytest.raises(UnsupportedOperationError):
            ramp.product(ramp)
        step = chi(IntervalSet.of(ico(0, F(1, 2))))
        prod = ramp.product(step)
        assert prod.eval(F(1, 4)) == F(1, 4)
        assert prod.eval(F(3, 4)) == 0


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
        assert u.compose_poly([0, 0, 1]).ae_equal(u)

    def test_constant_poly(self):
        u = chi(IntervalSet.of(ico(0, F(1, 2))))
        c = u.compose_poly([1])
        assert c.ae_equal(PiecewiseFn.constant(DOM01, 1))

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

    @given(piecewise_fns(), piecewise_fns())
    def test_add(self, u, v):
        w = u.add(v)
        for x in function_probes(u, v, w):
            assert w.eval(x) == u.eval(x) + v.eval(x)

    @given(piecewise_fns(step=True), piecewise_fns())
    def test_product_with_a_step(self, s, u):
        for w in (s.product(u), u.product(s)):
            for x in function_probes(s, u, w):
                assert w.eval(x) == s.eval(x) * u.eval(x)

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
         "unbounded piece with nonzero slope"),
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
        s = u.gt_set(c)
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
        assert self.RAMPS.superlevel(1).is_empty()
        assert self.RAMPS.gt_set(0) == IntervalSet.of(opened(-2, 0), opened(F(1, 2), F(3, 2)))
        assert self.RAMPS.gt_set(-1) == IntervalSet.of(ico(-2, 2))

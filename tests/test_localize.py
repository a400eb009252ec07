from fractions import Fraction as F

import pytest

from linfweak.corpus import (CORPUS, LOCAL_CORPUS, center_segment,
                             dyadic_indicators_plus, family_by_name,
                             ring_indicators, sided_translates, tents)
from linfweak.engine import (INCONCLUSIVE, NONNULL, NULL, EngineError, Policy,
                             test_weak_null)
from linfweak.families import IndicatorFamily, SuperlevelKernel
from linfweak.localize import (accumulates_at, compact_exhaustion,
                               essential_range, essential_range_at,
                               essential_range_in, escape_points, in_closure,
                               neighborhood, test_weak_null_at)
from linfweak.piecewise import PiecewiseFn
from linfweak.points import ExtPoint
from linfweak.sets import Domain, IntervalSet, closed, ico, ivl, opened, point

X = Domain.open_interval(-1, 1)


class TestNeighborhoods:
    def test_finite_ball(self):
        w = neighborhood(X, ExtPoint.at(F(1, 2)), 4)
        assert w == IntervalSet.of(opened(F(1, 4), F(3, 4)))

    def test_ball_clipped_by_carrier(self):
        w = neighborhood(X, ExtPoint.at(F(3, 4)), 2)
        assert w == IntervalSet.of(opened(F(1, 4), 1))

    def test_infinity_on_real_line(self):
        w = neighborhood(Domain.real_line(), ExtPoint.infinity(), 3)
        assert not w.is_bounded() and not w.contains(0)

    def test_infinity_on_open_interval(self):
        w = neighborhood(X, ExtPoint.infinity(), 4)
        assert w == IntervalSet.of(opened(-1, F(-3, 4)), opened(F(3, 4), 1))

    def test_compact_x_has_isolated_infinity(self):
        dom = Domain.closed_interval(0, 1)
        assert compact_exhaustion(dom.carrier, 3) == dom.carrier
        assert neighborhood(dom, ExtPoint.infinity(), 3).is_empty()

    def test_nested_decreasing(self):
        for x0 in (ExtPoint.at(0), ExtPoint.infinity()):
            prev = None
            for ell in range(1, 7):
                w = neighborhood(X, x0, ell)
                if prev is not None:
                    assert w.is_subset(prev)
                prev = w

    def test_escape_points(self):
        pts, neg, pos = escape_points(X.carrier)
        assert pts == [F(-1), F(1)] and not neg and not pos
        pts2, neg2, pos2 = escape_points(Domain.real_line().carrier)
        assert pts2 == [] and neg2 and pos2


class TestEssentialRange:
    def test_indicator(self):
        u = PiecewiseFn.indicator(Domain(IntervalSet.of(ico(0, 1))),
                                  IntervalSet.of(ico(0, F(1, 2))))
        assert essential_range(u) == IntervalSet.of(point(0), point(1))

    def test_constant(self):
        u = PiecewiseFn.constant(X, F(-5, 7))
        assert essential_range(u) == IntervalSet.of(point(F(-5, 7)))

    def test_tent_sweeps_unit_interval(self):
        # oracle: the per-piece value sweep of the k=4 tent covers [0,1]
        u = tents().term(4)
        assert essential_range(u) == IntervalSet.of(closed(0, 1))

    def test_null_pieces_invisible(self):
        dom = Domain(IntervalSet.of(closed(0, 1)))
        u = PiecewiseFn.from_pieces(dom, [(ico(0, 1), 0, 1), (point(1), 0, 9)])
        assert essential_range(u) == IntervalSet.of(point(1))


class TestEssentialRangeAt:
    def test_interior_point_of_block(self):
        u = PiecewiseFn.indicator(Domain(IntervalSet.of(ico(0, 1))),
                                  IntervalSet.of(ico(0, F(1, 2))))
        assert essential_range_at(u, ExtPoint.at(F(1, 4))) == \
            IntervalSet.of(point(1))

    def test_breakpoint_sees_both(self):
        u = PiecewiseFn.indicator(Domain(IntervalSet.of(ico(0, 1))),
                                  IntervalSet.of(ico(0, F(1, 2))))
        assert essential_range_at(u, ExtPoint.at(F(1, 2))) == \
            IntervalSet.of(point(0), point(1))

    def test_center_segment_both_values(self):
        # one-sided segment at the origin: R(u)(0) = {0, 1}
        u = center_segment()
        assert essential_range_at(u, ExtPoint.at(0)) == \
            IntervalSet.of(point(0), point(1))

    def test_two_sided_limits_at_infinity(self):
        fam = sided_translates()
        assert essential_range_at(fam.profile, ExtPoint.infinity()) == \
            IntervalSet.of(point(0), point(1))

    def test_subset_of_global_range(self):
        for u in (tents().term(3), center_segment(), sided_translates().profile):
            global_range = essential_range(u)
            for x0 in (ExtPoint.at(0), ExtPoint.at(F(1, 2)), ExtPoint.infinity()):
                assert essential_range_at(u, x0).is_subset(global_range)

    def test_equality_when_all_pieces_touch_the_point(self):
        dom = Domain(IntervalSet.of(opened(0, 1)))
        u = PiecewiseFn.from_pieces(dom, [(opened(0, F(1, 2)), 0, 2),
                                          (ivl(F(1, 2), 1, True, False), 0, 5)])
        assert essential_range_at(u, ExtPoint.at(F(1, 2))) == essential_range(u)

    def test_outside_closure_rejected(self):
        u = center_segment()
        with pytest.raises(EngineError):
            essential_range_at(u, ExtPoint.at(5))


class TestAccumulation:
    def test_interval_accumulates_at_endpoints(self):
        s = IntervalSet.of(opened(0, F(1, 2)))
        assert accumulates_at(s, ExtPoint.at(0), X.carrier)
        assert accumulates_at(s, ExtPoint.at(F(1, 4)), X.carrier)
        assert not accumulates_at(s, ExtPoint.at(F(3, 4)), X.carrier)

    def test_points_do_not_accumulate(self):
        s = IntervalSet.of(point(0))
        assert not accumulates_at(s, ExtPoint.at(0), X.carrier)

    def test_boundary_adjacent_set_accumulates_at_infinity(self):
        s = IntervalSet.of(opened(F(3, 4), 1))
        assert accumulates_at(s, ExtPoint.infinity(), X.carrier)
        s2 = IntervalSet.of(opened(0, F(1, 2)))
        assert not accumulates_at(s2, ExtPoint.infinity(), X.carrier)


class TestLocalVerdicts:
    @pytest.mark.parametrize("name,pt,expected", LOCAL_CORPUS,
                             ids=[f"{n}@{p}" for n, p, _ in LOCAL_CORPUS])
    def test_local_corpus(self, name, pt, expected):
        verdict = test_weak_null_at(family_by_name(name), ExtPoint.parse(pt),
                                    Policy())
        assert verdict.kind == expected

    def test_point_outside_closure_is_an_engine_error(self):
        # the CLI rejects such a point as input; API callers get EngineError
        with pytest.raises(EngineError, match="not in the closure"):
            test_weak_null_at(family_by_name("dini-null"), ExtPoint.at(-1))

    def test_closure_membership(self):
        assert in_closure(X, ExtPoint.at(1)) and in_closure(X, ExtPoint.at(-1))
        assert in_closure(X, ExtPoint.infinity())
        assert not in_closure(X, ExtPoint.at(F(-3, 2)))

    def test_sided_translates_20_point_sample(self):
        fam = sided_translates()
        for i in range(20):
            x0 = ExtPoint.at(F(i - 10, 2))
            assert test_weak_null_at(fam, x0, Policy()).kind == NULL

    def test_piled_blocks_nonnull_at_zero(self):
        v = test_weak_null_at(dyadic_indicators_plus(), ExtPoint.at(0), Policy())
        assert v.kind == NONNULL

    def test_sin_family_null_at_interior_points(self):
        fam = family_by_name("sin-reciprocal")
        v = test_weak_null_at(fam, ExtPoint.at(1), Policy())
        assert v.kind == NULL and v.scheme == "local-evaluable-envelope"

    def test_globalization_null_implies_local_null(self):
        policy = Policy()
        sample = [ExtPoint.at(0), ExtPoint.at(F(1, 3)), ExtPoint.infinity()]
        for item in CORPUS:
            if item.family == "sin-reciprocal":
                continue
            fam = family_by_name(item.family)
            if test_weak_null(fam, policy).is_null:
                for x0 in sample:
                    assert test_weak_null_at(fam, x0, policy).is_null, \
                        f"{item.family} at {x0}"

    def test_globalization_nonnull_has_nonnull_point(self):
        policy = Policy()
        sample = [ExtPoint.at(0), ExtPoint.at(F(1, 3)), ExtPoint.infinity()]
        for item in CORPUS:
            if item.family == "sin-reciprocal":
                continue
            fam = family_by_name(item.family)
            if test_weak_null(fam, policy).is_nonnull:
                kinds = [test_weak_null_at(fam, x0, policy).kind for x0 in sample]
                assert NONNULL in kinds, f"{item.family}: {kinds}"


class TestKernelAccumulation:
    """The kernel scheme certifies non-nullity only at the accumulation point
    of its certificate.  Both families vanish on a neighborhood of 1/8 from
    some k on, and the window of radius 1/6 around 1/8 still holds 0, where
    their kernels shrink to."""

    @pytest.mark.parametrize("name", ["tents", "dyadic-indicators-plus"])
    @pytest.mark.parametrize("pt", [F(1, 8), F(-1, 8)])
    def test_null_near_the_accumulation_point(self, name, pt):
        v = test_weak_null_at(family_by_name(name), ExtPoint.at(pt), Policy())
        assert v.kind == NULL and v.scheme == "local-monotone-vanishing"

    @pytest.mark.parametrize("name", ["tents", "dyadic-indicators-plus"])
    def test_still_nonnull_at_the_accumulation_point(self, name):
        v = test_weak_null_at(family_by_name(name), ExtPoint.at(0), Policy())
        assert v.kind == NONNULL and v.scheme == "local-superlevel-kernel"

    def test_certificate_without_accumulation_point_is_skipped(self):
        # the piled blocks with their kernel certificate alone, stripped of
        # its accumulation point: no local scheme may certify anything
        fam = dyadic_indicators_plus()
        kernel = fam.certificates_of(SuperlevelKernel)[0]
        bare = IndicatorFamily(fam.domain, fam.sets, name="piled-kernel-only",
                               certificates=(SuperlevelKernel(kernel.alpha,
                                                              kernel.kernel),))
        for x0 in (ExtPoint.at(0), ExtPoint.at(F(1, 8))):
            assert test_weak_null_at(bare, x0, Policy()).kind == INCONCLUSIVE


class TestEllMax:
    @pytest.mark.parametrize("ell_max", [0, -3])
    def test_ell_max_below_one_rejected(self, ell_max):
        with pytest.raises(EngineError, match="ell_max must be at least 1"):
            test_weak_null_at(dyadic_indicators_plus(), ExtPoint.at(0),
                              ell_max=ell_max)


class TestNecessufRegression:
    """1-D shadow of the disjoint-segments example: globally null rings whose
    essential range inside every fixed neighborhood of 0 stays {0, 1} for all
    large k, so sup { |t| : t in local range of u_k } does not vanish even
    though the family is weakly null at 0.  (The original example lives in
    the plane; two-sided rings are its exact one-dimensional counterpart.)"""

    def test_rings_globally_and_locally_null(self):
        fam = ring_indicators()
        assert test_weak_null(fam, Policy()).is_null
        assert test_weak_null_at(fam, ExtPoint.at(0), Policy()).is_null

    def test_unit_values_persist_in_every_neighborhood(self):
        fam = ring_indicators()
        for ell in range(1, 7):
            w = neighborhood(fam.domain, ExtPoint.at(0), ell)
            for k in range(ell + 1, ell + 5):
                local = essential_range_in(fam.term(k), w)
                assert local == IntervalSet.of(point(0), point(1))

    def test_exact_pointwise_range_collapses(self):
        # each single term has essential range {0} at the origin itself
        fam = ring_indicators()
        for k in (1, 3, 6):
            assert essential_range_at(fam.term(k), ExtPoint.at(0)) == \
                IntervalSet.of(point(0))

from fractions import Fraction as F

import pytest

from linfweak.corpus import (CORPUS, LOCAL_CORPUS, center_segment,
                             dyadic_indicators_plus, family_by_name,
                             ring_indicators, sided_translates, tents)
from linfweak.engine import (INCONCLUSIVE, NONNULL, NULL, EngineError, Policy,
                             test_weak_null)
from linfweak.families import (CertificateError, ExplicitListFamily,
                               IndicatorFamily, LowerEnvelope,
                               SuperlevelKernel, SupportEnvelope, TranslateFamily)
from linfweak.localize import (accumulates_at, compact_exhaustion,
                               essential_range, essential_range_at,
                               essential_range_in, escape_points, in_closure,
                               neighborhood, test_weak_null_at)
from linfweak.piecewise import PiecewiseFn
from linfweak.points import ExtPoint
from linfweak.sets import (NEG_INF, POS_INF, Domain, IntervalSet, closed, ico,
                           ivl, opened, point)

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

    @pytest.mark.parametrize("name,pt", [("tents", "0"), ("tents", "1/30"),
                                         ("sided-translates", "inf"),
                                         ("dini-nonnull", "inf")])
    def test_local_rules_carry_the_certificate_reports(self, name, pt):
        # a kernel rule, the evidence table, the translate tail and the lower
        # envelope: each reports the certificate checks it ran, as the
        # global verdict does
        fam = family_by_name(name)
        local = test_weak_null_at(fam, ExtPoint.parse(pt), Policy(), ell_max=2)
        assert not local.scheme or local.scheme.startswith("local-")
        assert local.cert_reports
        assert ([(r.certificate, r.passed, r.checked_upto) for r in local.cert_reports]
                == [(r.certificate, r.passed, r.checked_upto)
                    for r in test_weak_null(fam, Policy()).cert_reports])

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
        assert v.kind == NULL and v.scheme == "local-decay-envelope"

    def test_globalization_null_implies_local_null(self):
        policy = Policy()
        sample = [ExtPoint.at(0), ExtPoint.at(F(1, 3)), ExtPoint.infinity()]
        for item in CORPUS:
            fam = family_by_name(item.family)
            if test_weak_null(fam, policy).is_null:
                for x0 in sample:
                    assert test_weak_null_at(fam, x0, policy).is_null, \
                        f"{item.family} at {x0}"

    def test_globalization_nonnull_has_nonnull_point(self):
        policy = Policy()
        sample = [ExtPoint.at(0), ExtPoint.at(F(1, 3)), ExtPoint.infinity()]
        for item in CORPUS:
            fam = family_by_name(item.family)
            if test_weak_null(fam, policy).is_nonnull:
                kinds = [test_weak_null_at(fam, x0, policy).kind for x0 in sample]
                assert NONNULL in kinds, f"{item.family}: {kinds}"


class TestKernelAccumulation:
    """The kernel scheme certifies non-nullity only at the accumulation point
    of its certificate.  Both families vanish on a neighborhood of each point
    below from some k on, although the window of radius 1/6 around it still
    holds 0, where their kernels shrink to: the support envelope stops
    accumulating there from k0 = the first k with 2/k < |x0| for the tents,
    (-2/k, 2/k), and with 2^-k < x0 for the piled blocks, [0, 2^-k), whose
    envelope never reaches a negative point (k0 = 1)."""

    VANISHING_FROM = {"tents": {F(1, 8): 17, F(-1, 8): 17, F(1, 20): 41,
                                F(-1, 20): 41, F(3, 32): 22},
                      "dyadic-indicators-plus": {F(1, 8): 4, F(-1, 8): 1,
                                                 F(1, 20): 5, F(-1, 20): 1,
                                                 F(3, 32): 4}}

    @pytest.mark.parametrize("name", ["tents", "dyadic-indicators-plus"])
    @pytest.mark.parametrize("pt", [F(1, 8), F(-1, 8), F(1, 20), F(-1, 20),
                                    F(3, 32)])
    def test_null_near_the_accumulation_point(self, name, pt):
        v = test_weak_null_at(family_by_name(name), ExtPoint.at(pt), Policy())
        assert v.kind == NULL and v.scheme == "local-support-envelope"
        assert v.evidence == {"x0": str(pt),
                              "vanishing_from": self.VANISHING_FROM[name][pt]}

    @pytest.mark.parametrize("name", ["tents", "dyadic-indicators-plus"])
    def test_still_nonnull_at_the_accumulation_point(self, name):
        v = test_weak_null_at(family_by_name(name), ExtPoint.at(0), Policy())
        assert v.kind == NONNULL and v.scheme == "local-superlevel-kernel"

    @pytest.mark.parametrize("ell_max", [1, 6, 64])
    @pytest.mark.parametrize("k_max", [20, 48, 256])
    def test_tents_nonnull_at_zero_for_every_budget(self, ell_max, k_max):
        # the kernels accumulate at 0 for every k; no window search is made
        v = test_weak_null_at(family_by_name("tents"), ExtPoint.at(0),
                              Policy(k_max=k_max), ell_max=ell_max)
        assert v.kind == NONNULL and v.scheme == "local-superlevel-kernel"
        assert v.witness.subsequence == "identity"
        assert [row["kernel_measure"] for row in v.witness.table] == \
            [F(2, J) for J in range(1, 13)]

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

    def test_support_envelope_alone_decides_no_point_it_accumulates_at(self):
        # the piled blocks with their support envelope [0, 2^-k) alone: it
        # accumulates at 0 for every k, so 0 stays open; at 1/8 it stops at k = 4
        fam = dyadic_indicators_plus()
        env = fam.certificates_of(SupportEnvelope)[0]
        bare = IndicatorFamily(fam.domain, fam.sets, name="piled-envelope-only",
                               certificates=(env,))
        assert test_weak_null_at(bare, ExtPoint.at(0), Policy()).kind == INCONCLUSIVE
        v = test_weak_null_at(bare, ExtPoint.at(F(1, 8)), Policy())
        assert v.kind == NULL and v.evidence["vanishing_from"] == 4


class TestKernelPastBudget:
    """A kernel that exceeds its superlevel intersections from k = 5 on,
    inside the certificate budget, is refused at a point as it is globally."""

    @staticmethod
    def _stalled_kernel_family():
        # the piled blocks [0, 2^-(k+1)) with a kernel that stops shrinking
        # at k = 4: |kernel(5)| = 1/32 > |A_1/2(u_5)| = 1/64
        fam = dyadic_indicators_plus()
        kernel = lambda k: IntervalSet.of(opened(0, F(1, 2 ** (min(k, 4) + 1))))
        return IndicatorFamily(fam.domain, fam.sets, name="stalled-kernel",
                               certificates=(SuperlevelKernel(
                                   F(1, 2), kernel, ExtPoint.at(0)),))

    @pytest.mark.parametrize("x0", ["0", "inf"])
    def test_default_budget_refuses_the_certificate(self, x0):
        fam = self._stalled_kernel_family()
        for ask in (lambda: test_weak_null(fam),
                    lambda: test_weak_null_at(fam, ExtPoint.parse(x0))):
            with pytest.raises(CertificateError, match="kernel.5. escapes") as exc:
                ask()
            assert exc.value.k == 5


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


def _nonnull_truth(name, x0):
    """Closed-form localized answers: the tents and the piled blocks pile up
    only at 0, the one-sided translates only at infinity, and the Dini floor
    (1/2) chi((0,1/2)) keeps its limit value 1/2 on [0, 1/2] and at the
    escape point 0 of (0, 1), hence at infinity."""
    if name in ("tents", "dyadic-indicators-plus"):
        return not x0.is_infinite and x0.x == 0
    if name == "sided-translates":
        return x0.is_infinite
    return x0.is_infinite or 0 <= x0.x <= F(1, 2)


# the points where the floor branch of the former monotone scheme certified
# the tents non-null: ±1/100 ... ±3/32
_FORMER_FLOOR_POINTS = [F(s * n, d) for s in (1, -1) for n, d in
                        [(1, 100), (1, 64), (1, 50), (3, 100), (1, 32), (1, 30),
                         (1, 25), (3, 64), (1, 20), (3, 50), (1, 16), (1, 15),
                         (7, 100), (5, 64), (2, 25), (9, 100), (3, 32)]]


def _sweep_points(domain):
    grid = {F(n, d) for d in (8, 10, 20, 30) for n in range(-d, d + 1)}
    pts = [ExtPoint.at(x) for x in sorted(grid | set(_FORMER_FLOOR_POINTS))]
    return [ExtPoint.infinity()] + [x0 for x0 in pts if in_closure(domain, x0)]


class TestLocalSweep:
    """Every certified local verdict agrees with the closed form; the tents
    are allowed to decline only at 0 < |x0| <= 1/24, where their envelope
    (-2/k, 2/k) clears x0 only past k_max = 48."""

    @pytest.mark.parametrize("name", ["tents", "dyadic-indicators-plus",
                                      "sided-translates", "dini-nonnull"])
    def test_certified_kinds_match_the_closed_form(self, name):
        fam = family_by_name(name)
        assert len(_FORMER_FLOOR_POINTS) == 34
        for x0 in _sweep_points(fam.domain):
            kind = test_weak_null_at(fam, x0, Policy()).kind
            if kind == INCONCLUSIVE:
                assert name == "tents" and 0 < abs(x0.x) <= F(1, 24), str(x0)
            else:
                assert (kind == NONNULL) == _nonnull_truth(name, x0), str(x0)

    def test_dini_floor_is_the_witness(self):
        fam = family_by_name("dini-nonnull")
        for pt in ("0", "1/4", "1/2", "inf"):
            v = test_weak_null_at(fam, ExtPoint.parse(pt), Policy())
            assert v.kind == NONNULL and v.scheme == "local-lower-envelope"
            assert v.witness.alpha == F(1, 4)
            assert v.witness.kernel(7) == IntervalSet.of(opened(0, F(1, 2)))
        v = test_weak_null_at(fam, ExtPoint.at(F(3, 4)), Policy())
        assert v.kind == NULL and v.scheme == "local-monotone-vanishing"
        assert v.evidence["vanishing_from"] == 1

    def test_sin_family_null_close_to_the_singular_end(self):
        fam = family_by_name("sin-reciprocal")
        v = test_weak_null_at(fam, ExtPoint.at(F(1, 100)), Policy())
        assert v.kind == NULL and v.scheme == "local-decay-envelope"
        assert v.evidence["window"] == "(1/200,3/200)"


class TestBudgetsNeverFlipKinds:
    """ell_max and k_max may make a scheme decline; they never turn one
    certified kind into the other.  At -1/20 the tents decline for
    k_max = 20 and are null from k = 41 on for the larger budgets."""

    POINTS = ["0", "-1/20", "1/8", "1/3", "1/2", "inf"]

    @pytest.mark.parametrize("name", ["tents", "dyadic-indicators-plus",
                                      "sided-translates", "dini-nonnull"])
    def test_certified_kinds_agree_across_budgets(self, name):
        fam = family_by_name(name)
        for pt in self.POINTS:
            x0 = ExtPoint.parse(pt)
            if not in_closure(fam.domain, x0):
                continue
            kinds = {test_weak_null_at(fam, x0, Policy(k_max=k_max),
                                       ell_max=ell_max).kind
                     for ell_max in (1, 6, 64) for k_max in (20, 48, 256)}
            assert len(kinds - {INCONCLUSIVE}) == 1, f"{pt}: {kinds}"


def _rising_translates():
    """Profile 0 on (-inf, 0], x on (0, 1), 1 on [1, inf), step 1: every
    A_{1/2}(u_k) = (1/2 - k, inf) grows with k."""
    profile = PiecewiseFn.from_pieces(Domain.real_line(), [
        (ivl(NEG_INF, 0, False, True), 0, 0), (opened(0, 1), 1, 0),
        (ivl(1, POS_INF, True, False), 0, 1)])
    return TranslateFamily(profile, F(1), name="rising-translates")


class TestTranslateTails:
    @pytest.mark.parametrize("make", [_rising_translates, sided_translates],
                             ids=["rising", "sided"])
    def test_tail_ray_kernels_are_nested_in_every_earlier_superlevel_set(self, make):
        fam = make()
        v = test_weak_null_at(fam, ExtPoint.infinity(), Policy())
        assert v.kind == NONNULL and v.scheme == "local-translate-tail"
        alpha, kernel = v.witness.alpha, v.witness.kernel
        assert alpha == F(1, 2)
        for k in range(1, 9):
            ker = kernel(k)
            assert accumulates_at(ker, ExtPoint.infinity(), fam.domain.carrier)
            if k > 1:
                assert ker.subset_up_to_null(kernel(k - 1))
            for j in range(1, k + 1):
                assert ker.subset_up_to_null(fam.term(j).superlevel(alpha)), (j, k)

    def test_rising_kernel_is_the_first_step_of_the_ray(self):
        v = test_weak_null_at(_rising_translates(), ExtPoint.infinity(), Policy())
        for k in (1, 2, 8):
            assert v.witness.kernel(k) == IntervalSet.of(opened(F(-1, 2), POS_INF))

    @pytest.mark.parametrize("x0,k0", [(F(0), 3), (F(-3), 6), (F(5, 2), 1)])
    def test_rising_nonnull_at_finite_points_by_the_tail(self, x0, k0):
        # u_k = 1 on the unit ball around x0 once x0 - 1 + k >= 1
        v = test_weak_null_at(_rising_translates(), ExtPoint.at(x0), Policy())
        assert v.kind == NONNULL and v.scheme == "local-eventual-constant"
        assert v.witness.alpha == F(1, 2)
        assert v.witness.subsequence == f"k_j = {k0} + j"
        for k in (k0 + 1, k0 + 5):
            assert v.witness.kernel(k) == IntervalSet.of(opened(x0 - 1, x0 + 1))


class TestLowerEnvelope:
    def test_dini_floor_passes(self):
        fam = family_by_name("dini-nonnull")
        (cert,) = fam.certificates_of(LowerEnvelope)
        assert cert.verify(fam, 20).passed

    @pytest.mark.parametrize("level", [F(7, 10), F(-7, 10)])
    def test_names_the_first_index_below_the_floor(self, level):
        # u_k = 1/2 + 1/k on (0, 1/2) drops below |level| = 7/10 at k = 6
        fam = family_by_name("dini-nonnull")
        block = IntervalSet.of(opened(0, F(1, 2)))
        floor = PiecewiseFn.step(fam.domain, [(block, level)])
        rep = LowerEnvelope(floor).verify(fam, 20)
        assert not rep.passed and rep.counterexample_k == 6
        assert rep.witness == block


class TestExactTailFirst:
    """The exact eventual tail answers before the rules that trust a
    certificate past its budget.  The lower envelope 1/2 chi((0,1)) below
    holds for k <= 24 only, so it passes its check to k = 20, but from
    k = 25 on u_k = 0 near 1/4."""

    @staticmethod
    def _late_drop():
        dom = Domain.open_interval(0, 1)
        whole, right = IntervalSet.of(opened(0, 1)), IntervalSet.of(opened(F(1, 2), 1))
        terms = [PiecewiseFn.indicator(dom, whole)] * 24 + [PiecewiseFn.indicator(dom, right)]
        floor = PiecewiseFn.step(dom, [(whole, F(1, 2))])
        return ExplicitListFamily(dom, terms, name="late-drop",
                                  certificates=(LowerEnvelope(floor),))

    def test_tail_answers_before_the_lower_envelope(self):
        v = test_weak_null_at(self._late_drop(), ExtPoint.at(F(1, 4)), Policy())
        assert (v.kind, v.scheme) == (NULL, "local-eventual-constant")
        assert v.evidence == {"x0": "1/4", "vanishing_from": 25}

    def test_global_verdict_is_the_tail(self):
        v = test_weak_null(self._late_drop(), Policy())
        assert (v.kind, v.scheme) == (NONNULL, "eventual-constant")

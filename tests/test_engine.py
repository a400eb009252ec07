import random
from collections import Counter
from fractions import Fraction as F

import pytest

import linfweak.families
from conftest import ref_ae_equal, shifted
from linfweak.corpus import (CORPUS, FAMILIES, LOCAL_CORPUS, dyadic_indicators,
                             dyadic_indicators_plus, family_by_name, tents)
from linfweak.engine import (CERT_BUDGET, EngineError, NONNULL, INCONCLUSIVE, Policy,
                             _spot_alpha, _spot_alphas, default_alpha_grid,
                             intersection_measure, test_weak_null, v_inf,
                             witness_lower_bound)
from linfweak.enclosure import sin_of_pi_multiple
from linfweak.families import (CertificateError, DisjointSupports, EscapeBound,
                               ExplicitListFamily, IndicatorFamily, MappedStepFamily,
                               NormLimit, PointFloor, SequenceFamily,
                               SinReciprocalFamily, SuperlevelKernel, TranslateFamily)
from linfweak.localize import test_weak_null_at
from linfweak.numtheory import (dyadic_divisibility_subsequence, lcm_list,
                                nested_midpoint, prime_power_nondivisor)
from linfweak.piecewise import PiecewiseFn
from linfweak.points import ExtPoint, WitnessPoint
from linfweak.sets import Domain, IntervalSet, ico, opened, point

DOM = Domain.open_interval(-1, 1)


class TestVInf:
    def test_disjoint_pair_is_zero(self):
        fam = dyadic_indicators()
        v2 = v_inf(fam, [1, 2], 2)
        assert v2.ess_sup_norm() == 0

    def test_j1_is_abs_of_first(self):
        fam = dyadic_indicators()
        v1 = v_inf(fam, [1, 2], 1)
        assert ref_ae_equal(v1, fam.term(1).abs_fn())

    def test_piled_blocks_keep_plateau(self):
        fam = dyadic_indicators_plus()
        v3 = v_inf(fam, [1, 2, 3], 3)
        plateau = IntervalSet.of(opened(0, F(1, 16)))
        assert v3.restrict(plateau).ess_sup_norm() == 1
        assert shifted(v3.restrict(plateau), -1).ess_sup_norm() == 0

    def test_rejects_bad_subsequences(self):
        fam = dyadic_indicators()
        with pytest.raises(EngineError):
            v_inf(fam, [2, 2], 2)
        with pytest.raises(EngineError):
            v_inf(fam, [1], 2)


class TestIntersectionMeasure:
    def test_disjoint_pair(self):
        fam = dyadic_indicators()
        assert intersection_measure(fam, [1, 2], F(1, 2), 2) == 0

    def test_single_block(self):
        fam = dyadic_indicators()
        # A_1 = [1/4, 1/2)
        assert intersection_measure(fam, [1], F(1, 2), 1) == F(1, 4)

    def test_tents_kernel_lower_bound(self):
        fam = tents()
        got = intersection_measure(fam, [3, 4, 5], F(1, 2), 3)
        assert got >= F(2, 5)  # kernel (-1/5,0) u (0,1/5)

    def test_identity_with_superlevel_of_v(self):
        # the identity is asserted inside; exercise it over a grid
        fam = tents()
        for alpha in (F(1, 4), F(1, 2), F(3, 4)):
            for J in (1, 2, 4):
                intersection_measure(fam, [1, 2, 3, 4], alpha, J)


class TestVerdicts:
    @pytest.mark.parametrize("item", CORPUS, ids=lambda i: i.family)
    def test_corpus_expectations(self, item):
        verdict = test_weak_null(family_by_name(item.family), Policy())
        assert verdict.kind == item.expected_kind
        if item.expected_scheme:
            assert verdict.scheme == item.expected_scheme
        assert verdict.trust

    def test_single_term_family_null_iff_zero_norm(self):
        zero = ExplicitListFamily(DOM, [PiecewiseFn.constant(DOM, 0)])
        assert test_weak_null(zero).is_null
        half = ExplicitListFamily(DOM, [PiecewiseFn.constant(DOM, F(1, 2))])
        v = test_weak_null(half)
        assert v.is_nonnull and v.witness.alpha == F(1, 4)

    def test_uncertified_family_is_inconclusive(self):
        fam = IndicatorFamily(DOM, lambda k: IntervalSet.of(
            ico(0, F(1, 2)) if k % 2 else ico(F(-1, 2), 0)), name="blink")
        verdict = test_weak_null(fam, Policy(j_max=4, k_max=8))
        assert verdict.kind == INCONCLUSIVE
        assert verdict.evidence["table"]

    def test_failed_certificate_aborts_with_counterexample(self):
        from linfweak.families import DisjointSupports
        fam = IndicatorFamily(DOM, lambda k: IntervalSet.of(ico(0, F(1, 2))),
                              name="lying", certificates=(DisjointSupports(),))
        with pytest.raises(CertificateError) as exc:
            test_weak_null(fam)
        assert exc.value.witness is not None

    def test_verdicts_carry_cert_reports(self):
        v = test_weak_null(tents())
        assert any(r.certificate == "superlevel-kernel" for r in v.cert_reports)

    @pytest.mark.parametrize("j_max", [12, 18])
    def test_escape_bound_says_when_it_skips_the_identity_check(self, j_max):
        # J_bound = floor(2 * 10 / 1) + 2 = 22 is checked only up to j_max + 4
        line = Domain.real_line()
        fam = TranslateFamily(PiecewiseFn.indicator(line, IntervalSet.of(opened(-10, 10))),
                              name="wide-escape", certificates=(EscapeBound(10, 1),))
        v = test_weak_null(fam, Policy(j_max=j_max))
        (row,) = v.evidence["table"]
        assert (v.scheme, row["J_bound"]) == ("escape-bound", 22)
        skipped = "skipped: J_bound > budget-j + 4 = 16"
        if j_max + 4 >= 22:
            assert row["identity_norm"] == 0 and "identity_check" not in row
            assert "skipped" not in v.trust
        else:
            assert "identity_norm" not in row and row["identity_check"] == skipped
            assert f"v_J = 0 along the identity was {skipped}; " in v.trust


class TestNormBoundBudget:
    """The norm bound is checked exactly for k <= CERT_BUDGET, like every
    certificate and as the trust text says, whatever budget-k is."""

    @staticmethod
    def tall_fifth_block():
        """Disjoint dyadic blocks that declare ||u_k|| <= 1, with ||u_5|| = 3."""
        class Blocks(SequenceFamily):
            def _term(self, k):
                block = IntervalSet.of(ico(F(1, 2 ** (k + 1)), F(1, 2 ** k)))
                return PiecewiseFn.step(self.domain, [(block, F(3) if k == 5 else F(1))])

        return Blocks(DOM, "tall-fifth-block", F(1), (DisjointSupports(),))

    @pytest.mark.parametrize("k_max", [4, 48])
    @pytest.mark.parametrize("point", [None, "0"])
    def test_a_norm_lie_inside_the_budget_raises(self, k_max, point):
        assert k_max < 5 or k_max >= CERT_BUDGET
        fam, policy = self.tall_fifth_block(), Policy(k_max=k_max)
        with pytest.raises(CertificateError, match=r"\|\|u_5\|\| = 3 > declared 1$") as exc:
            if point is None:
                test_weak_null(fam, policy)
            else:
                test_weak_null_at(fam, ExtPoint.parse(point), policy)
        assert (exc.value.k, exc.value.witness) == (5, 3)


def _counted_checks(monkeypatch) -> Counter:
    """Count the calls of every comparison a certificate check makes: the
    null tests on terms and sets, the overlap sweep and the two norm
    comparisons of `families`."""
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((PiecewiseFn, "exceeds_somewhere"), (PiecewiseFn, "vanishes_off"),
                        (IntervalSet, "subset_up_to_null"),
                        (linfweak.families, "first_overlap"),
                        (linfweak.families, "side"), (linfweak.families, "deviates")):
        count(owner, name)
    return calls


class TestNoCheckOutcomeIsKept:
    """Terms keep |u|, supports, level sets and norms, and certificates keep
    their declared sets, but every check runs on every question: the same
    question asked twice of one family instance makes the same comparisons.
    The instance is fresh, so the first question builds every kept value and
    the second finds them all."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_weaknull(self, name, monkeypatch):
        fam = FAMILIES[name]()
        calls = _counted_checks(monkeypatch)
        passes = []
        for _ in range(2):
            before = Counter(calls)
            verdict = test_weak_null(fam)
            passes.append((calls - before, verdict.kind, verdict.scheme))
        assert passes[0] == passes[1]
        if fam.has_piecewise_terms():
            assert passes[0][0]["side"] == CERT_BUDGET

    @pytest.mark.parametrize("name,pt,expected", LOCAL_CORPUS,
                             ids=[f"{n}@{p}" for n, p, _ in LOCAL_CORPUS])
    def test_weaknull_at(self, name, pt, expected, monkeypatch):
        fam, x0 = FAMILIES[name](), ExtPoint.parse(pt)
        calls = _counted_checks(monkeypatch)
        passes = []
        for _ in range(2):
            before = Counter(calls)
            verdict = test_weak_null_at(fam, x0)
            passes.append((calls - before, verdict.kind, verdict.scheme))
        assert passes[0] == passes[1] and passes[0][1] == expected
        if fam.has_piecewise_terms():
            assert passes[0][0]["side"] == CERT_BUDGET


class TestSpotAlpha:
    """The one alpha the disjoint-supports scheme reads is the first alpha
    of the grid `_spot_alphas` builds and sorts."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_corpus_families(self, name):
        fam = family_by_name(name)
        if not fam.has_piecewise_terms():
            # no piece values to read: both refuse the family alike
            for spot in (_spot_alpha, _spot_alphas):
                with pytest.raises(EngineError, match="no piecewise terms"):
                    spot(fam, Policy())
            return
        assert _spot_alpha(fam, Policy()) == _spot_alphas(fam, Policy())[0]

    def test_piece_values_below_the_finest_power(self):
        # end values 1/700, 1/700 + 1/5000 and -1/300; a null piece's value
        # (1/1000) and the 4th term's (1/2000) do not count at k_max = 3
        small = PiecewiseFn.from_pieces(DOM, [
            (opened(-1, 0), 0, F(-1, 300)), (point(0), 0, F(1, 1000)),
            (opened(0, 1), F(1, 5000), F(1, 700))])
        terms = [PiecewiseFn.constant(DOM, F(1, 2)), small, small,
                 PiecewiseFn.constant(DOM, F(1, 2000))]
        fam = ExplicitListFamily(DOM, terms)
        for policy, want in ((Policy(k_max=3), F(1, 700)), (Policy(), F(1, 2000))):
            assert _spot_alpha(fam, policy) == _spot_alphas(fam, policy)[0] == want

    def test_a_policy_grid_gives_its_first_alpha(self):
        policy = Policy(alpha_grid=[F(3, 4), F(1, 8)])
        for name in ("dyadic-indicators", "tents"):
            fam = family_by_name(name)
            assert _spot_alpha(fam, policy) == _spot_alphas(fam, policy)[0] == F(3, 4)


class TestExclusivityGuard:
    """A null verdict is checked against every scheme that can only certify
    non-nullity; non-null verdicts are not checked against anything."""

    def test_constant_block_with_a_kernel_is_consistent(self):
        block = IntervalSet.of(opened(0, F(1, 2)))
        fam = ExplicitListFamily(
            DOM, [PiecewiseFn.indicator(DOM, block)],
            certificates=(SuperlevelKernel(F(1, 2), lambda k: block),))
        v = test_weak_null(fam)
        assert (v.kind, v.scheme) == (NONNULL, "eventual-constant")
        assert [r.certificate for r in v.cert_reports] == ["superlevel-kernel"]

    # each certificate, added to dini-null, verifies and contradicts its
    # norm-limit null verdict
    RIVALS = {
        # |u_k| = 1/k on the block, so this kernel verifies up to k = 99
        "kernel": SuperlevelKernel(F(1, 100),
                                   lambda k: IntervalSet.of(opened(0, F(1, 2)))),
        # | 1/k - 1/2 | <= 1/2 for every k, so this second limit verifies too
        "monotone-floor": NormLimit(F(1, 2), lambda k: F(1, 2)),
    }

    @staticmethod
    def _dini_null_with(cert):
        dini = family_by_name("dini-null")
        return type(dini)(dini.domain, "dini-null", dini.norm_bound,
                          dini.certificates + (cert,))

    def test_null_verdict_with_a_verifying_kernel_is_rejected(self):
        fam = self._dini_null_with(self.RIVALS["kernel"])
        with pytest.raises(EngineError, match="inconsistent family dini-null: "
                           "scheme norm-limit certifies nullity but "
                           "superlevel-kernel certifies non-nullity"):
            test_weak_null(fam)

    def test_null_verdict_is_checked_against_the_monotone_floor(self):
        fam = self._dini_null_with(self.RIVALS["monotone-floor"])
        with pytest.raises(EngineError):
            test_weak_null(fam)

    @pytest.mark.parametrize("rival", sorted(RIVALS))
    @pytest.mark.parametrize("point", ("1/4", "0", "inf"))
    def test_a_localized_question_runs_the_same_check(self, rival, point):
        # the global null verdict answers every point, so it is checked first
        fam = self._dini_null_with(self.RIVALS[rival])
        with pytest.raises(EngineError) as globally:
            test_weak_null(fam)
        with pytest.raises(EngineError) as locally:
            test_weak_null_at(fam, ExtPoint.parse(point))
        assert str(locally.value) == str(globally.value)


class TestAbsEquivalence:
    """A family and its |u_k| image get the same verdict by the same scheme,
    globally and at every local corpus point: the image keeps every
    certificate and hook of the family."""

    @pytest.mark.parametrize("name", [i.family for i in CORPUS
                                      if i.family != "sin-reciprocal"])
    def test_verdict_matches_abs_family(self, name):
        fam = family_by_name(name)
        v1 = test_weak_null(fam, Policy())
        v2 = test_weak_null(fam.abs_mapped(), Policy())
        assert (v1.kind, v1.scheme) == (v2.kind, v2.scheme)

    @pytest.mark.parametrize("name,point", [(f, p) for f, p, _ in LOCAL_CORPUS
                                            if f != "sin-reciprocal"])
    def test_local_verdict_matches_abs_family(self, name, point):
        fam, x0 = family_by_name(name), ExtPoint.parse(point)
        v1 = test_weak_null_at(fam, x0, Policy())
        v2 = test_weak_null_at(fam.abs_mapped(), x0, Policy())
        assert (v1.kind, v1.scheme) == (v2.kind, v2.scheme)


class TestCompositionStability:
    def test_square_of_null_step_families(self):
        for name in ("dyadic-indicators", "dyadic-indicators-minus",
                     "ring-indicators", "summable-disjoint"):
            fam = family_by_name(name)
            mapped = MappedStepFamily(fam, [F(0), F(0), F(1)])  # t^2
            assert test_weak_null(mapped, Policy()).is_null

    def test_affine_image_with_constant_removed(self):
        fam = dyadic_indicators()
        mapped = MappedStepFamily(fam, [F(3), F(-2)])  # 3 - 2t, minus p(0)=3
        assert test_weak_null(mapped, Policy()).is_null
        assert mapped.term(2).eval(F(3, 16)) == -2


class TestPointwiseNecessity:
    def test_null_families_converge_pointwise(self):
        rng = random.Random(20240811)
        points = [F(rng.randint(-2 ** 20 + 1, 2 ** 20 - 1), 2 ** 20)
                  for _ in range(1000)]
        budget = 48
        tol = F(1, 32)
        for name in ("dyadic-indicators", "dyadic-indicators-minus",
                     "ring-indicators", "dini-null"):
            fam = family_by_name(name)
            carrier = fam.domain.carrier
            tail = [fam.term(k) for k in range(budget - 4, budget + 1)]
            for x in points:
                if not carrier.contains(x):
                    continue
                assert all(abs(t.eval(x)) <= tol for t in tail)


class TestMazurConsistency:
    @pytest.mark.parametrize("name", ["dyadic-indicators", "escape-translates",
                                      "summable-disjoint", "dini-null"])
    def test_vj_norm_decreases_to_zero(self, name):
        fam = family_by_name(name)
        norms = []
        for J in range(1, 13):
            norms.append(v_inf(fam, list(range(1, J + 1)), J).ess_sup_norm())
        assert all(a >= b for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= F(1, 12)


class TestSinWitness:
    def test_delta_zero_trivially_certified(self):
        fam = SinReciprocalFamily()
        x = WitnessPoint.rational(F(1, 3))
        wb = witness_lower_bound(fam, [1, 2], 2, x, F(0))
        assert wb.certified

    def test_prime_power_witness_prefix_2_3(self):
        # x = (pi/5 * lcm(2,3))^{-1}; |u_k(x)| = |sin(lcm*pi/(5k))| >= sin(pi/5)
        fam = SinReciprocalFamily()
        q = F(lcm_list([2, 3]), 5)
        x = WitnessPoint.inv_pi_multiple(q)
        floor = sin_of_pi_multiple(F(1, 5), F(1, 10 ** 9)).lo
        wb = witness_lower_bound(fam, [2, 3], 2, x, floor)
        assert wb.certified

    def test_smallest_nondivisor_witness(self):
        fam = SinReciprocalFamily()
        prefix = [2, 4, 8, 16]
        p, m = prime_power_nondivisor(prefix)
        assert (p, m) == (3, 1)
        q = F(lcm_list(prefix), p ** m)
        x = WitnessPoint.inv_pi_multiple(q)
        floor = sin_of_pi_multiple(F(1, p ** m), F(1, 10 ** 9)).lo
        wb = witness_lower_bound(fam, prefix, 4, x, floor)
        assert wb.certified

    def test_dyadic_divisibility_floor(self):
        fam = SinReciprocalFamily()
        ks = dyadic_divisibility_subsequence(1, 4)
        x = WitnessPoint.inv_pi_multiple(nested_midpoint(ks))
        floor = sin_of_pi_multiple(F(1, 4), F(1, 10 ** 9)).lo
        wb = witness_lower_bound(fam, ks[1:], 4, x, floor)
        assert wb.certified
        assert all(e.lo >= floor for e in wb.enclosures)

    def test_refuted_bound(self):
        fam = SinReciprocalFamily()
        x = WitnessPoint.inv_pi_multiple(F(6, 5))
        wb = witness_lower_bound(fam, [2, 3], 2, x, F(999, 1000))
        assert wb.status == "refuted"

    def test_sin_family_verdict(self):
        v = test_weak_null(SinReciprocalFamily(), Policy())
        assert v.kind == NONNULL and v.scheme == "divisibility-point-witness"
        assert v.witness.delta ** 2 <= F(1, 2)
        assert [r.certificate for r in v.cert_reports] == ["point-floor", "decay-envelope"]

    def test_exact_kernels_refuse_the_family(self):
        fam = family_by_name("sin-reciprocal")
        for call in (lambda: v_inf(fam, [1, 2], 2),
                     lambda: intersection_measure(fam, [1, 2], F(1, 2), 2),
                     lambda: default_alpha_grid(fam, 4),
                     lambda: _spot_alpha(fam, Policy())):
            with pytest.raises(EngineError, match="no piecewise terms"):
                call()

    @pytest.mark.parametrize("delta", [F(0), F(3, 4)])
    def test_a_floor_outside_zero_to_sin_quarter_pi_fails(self, delta):
        fam = SinReciprocalFamily()
        fam.certificates = (PointFloor(delta),)
        with pytest.raises(CertificateError, match="point-floor"):
            test_weak_null(fam)
        with pytest.raises(CertificateError, match="point-floor"):
            test_weak_null_at(fam, ExtPoint.at(0))

    def test_the_floor_check_reads_the_enclosure_made_at_import(self, monkeypatch):
        # sin(pi/4) is enclosed once per process; a check encloses nothing
        bound = sin_of_pi_multiple(F(1, 4), F(1, 10 ** 9)).lo

        def enclose(*args):
            raise AssertionError("sin(pi/4) enclosed again")
        monkeypatch.setattr(linfweak.families, "sin_of_pi_multiple", enclose)
        fam = family_by_name("sin-reciprocal")
        delta = fam.certificates_of(PointFloor)[0].delta
        rep = PointFloor(delta).verify(fam, 8)
        assert (rep.certificate, rep.passed, rep.checked_upto) == ("point-floor", True, 0)
        rep = PointFloor(F(3, 4)).verify(fam, 8)
        assert (rep.passed, rep.checked_upto, rep.witness) == (False, 0, bound)
        assert rep.detail == "delta = 3/4 is not certified in (0, sin(pi/4)]"

    def test_local_floor_witness_is_the_global_one(self):
        fam = family_by_name("sin-reciprocal")
        glob = test_weak_null(fam)
        for pt in ("0", "inf"):
            loc = test_weak_null_at(fam, ExtPoint.parse(pt))
            assert (loc.kind, loc.scheme) == (NONNULL, "local-point-floor")
            assert loc.witness == glob.witness
        # the floor points x_J = 1/(m_J pi) decrease toward 0
        _, points = fam.certificates_of(PointFloor)[0].points(5)
        assert all(a.value < b.value for a, b in zip(points, points[1:]))

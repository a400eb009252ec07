import ast
import importlib
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import linfweak

from conftest import ref_ae_equal
from linfweak.corpus import (FAMILIES, dyadic_indicators,
                             dyadic_indicators_plus, escape_translates,
                             family_by_name, sided_translates,
                             summable_disjoint, tents)
from linfweak.engine import test_weak_null
from linfweak.families import (CertificateError, DisjointLayers,
                               DisjointSupports, EscapeBound,
                               ExplicitListFamily, IndicatorFamily,
                               MappedStepFamily, MonotoneEnvelope, NormLimit,
                               SequenceFamily, SinReciprocalFamily,
                               SummableDisjointFamily, SupportEnvelope,
                               SuperlevelKernel, TranslateFamily,
                               verify_certificate,
                               verify_norm_bound)
from linfweak.localize import test_weak_null_at
from linfweak.piecewise import PiecewiseFn
from linfweak.points import ExtPoint
from linfweak.sets import (NEG_INF, POS_INF, Domain, IntervalSet, closed, ico, ioc,
                           ivl, opened)

DOM = Domain.open_interval(-1, 1)
PIECEWISE = [name for name in FAMILIES if family_by_name(name).has_piecewise_terms()]


class TestTerms:
    def test_dyadic_indicator_term(self):
        fam = dyadic_indicators()
        u2 = fam.term(2)
        assert ref_ae_equal(u2, PiecewiseFn.indicator(
            DOM, IntervalSet.of(ico(F(1, 8), F(1, 4)))))

    def test_translate_term_shifts(self):
        fam = sided_translates()
        u3 = fam.term(3)
        base = fam.profile
        for x in (F(-5), F(-7, 2), F(0), F(2)):
            assert u3.eval(x) == base.eval(x + 3)

    def test_explicit_singleton(self):
        u = PiecewiseFn.constant(DOM, F(1, 3))
        fam = ExplicitListFamily(DOM, [u], name="single")
        assert fam.term(1) is u
        assert fam.term(7) is u  # the last term repeats

    def test_explicit_tail_is_the_last_term_everywhere(self):
        u, v = (PiecewiseFn.constant(DOM, c) for c in (F(1, 3), F(1, 5)))
        fam = ExplicitListFamily(DOM, [u, v], name="pair")
        for x0 in (None, ExtPoint.at(0), ExtPoint.infinity()):
            assert fam.eventual_tail(x0) == (2, v)

    def test_translate_tail_is_the_right_limit_on_the_unit_ball(self):
        # the sided profile is 0 from its last breakpoint 0 on: u_k vanishes
        # on (x0 - 1, x0 + 1) once x0 - 1 + k > 0
        fam = sided_translates()
        for x0, k0 in ((F(0), 2), (F(-3), 5), (F(5, 2), 1)):
            k, tail = fam.eventual_tail(ExtPoint.at(x0))
            assert k == k0
            assert tail.domain.carrier == IntervalSet.of(opened(x0 - 1, x0 + 1))
            assert tail.ess_sup_norm() == 0
        assert fam.eventual_tail() is None
        assert fam.eventual_tail(ExtPoint.infinity()) is None
        assert tents().eventual_tail(ExtPoint.at(0)) is None

    def test_translate_tail_with_a_wrong_threshold_is_refused(self):
        # breakpoints misreported as ending at -10 give k0 = 1, but u_1 is
        # still 1 on (-4, -2), not the right limit 0; the exact check says so
        fam = sided_translates()
        fam.breakpoint_span = lambda: (F(-10), F(-10))
        with pytest.raises(CertificateError, match="wrong threshold"):
            fam.eventual_tail(ExtPoint.at(-3))

    # 1 left of -1, x - 1/2 on [-1, 0], then 1/2: a right limit that is not 0
    HALF_LIMIT = PiecewiseFn.from_pieces(Domain.real_line(), [
        (ivl(NEG_INF, -1, False, False), 0, 1), (closed(-1, 0), 1, F(-1, 2)),
        (ivl(0, POS_INF, False, False), 0, F(1, 2))])

    def test_translate_tail_with_a_nonzero_right_limit(self):
        fam = TranslateFamily(self.HALF_LIMIT, name="half-limit")
        for x0, k0 in ((F(0), 2), (F(-3), 5), (F(5, 2), 1)):
            k, tail = fam.eventual_tail(ExtPoint.at(x0))
            assert k == k0
            assert [(p.slope, p.intercept) for p in tail.pieces] == [(0, F(1, 2))]

    @pytest.mark.parametrize("span, x0", [
        ((F(-10), F(-10)), F(-3)),     # u_1 is 1 on (-4, -2)
        # u_1 is x + 1/2 on (-3/2, -1]: the limit's intercept, but a slope
        ((F(-2), F(-2)), F(-1, 2)),
    ], ids=("on-the-left-limit", "on-the-ramp"))
    def test_translate_tail_off_a_nonzero_right_limit_is_refused(self, span, x0):
        fam = TranslateFamily(self.HALF_LIMIT, name="half-limit")
        fam.breakpoint_span = lambda: span
        with pytest.raises(CertificateError, match="wrong threshold"):
            fam.eventual_tail(ExtPoint.at(x0))

    def test_index_starts_at_one(self):
        with pytest.raises(ValueError):
            dyadic_indicators().term(0)

    def test_term_deterministic(self):
        fam = tents()
        assert fam.term(5) is fam.term(5)


class TestCertificates:
    def test_disjoint_supports_pass(self):
        fam = dyadic_indicators()
        rep = verify_certificate(fam, fam.certificates[0], budget=20)
        assert rep.passed and rep.checked_upto == 20

    def test_superlevel_kernel_tents(self):
        fam = tents()
        cert = fam.certificates_of(SuperlevelKernel)[0]
        rep = verify_certificate(fam, cert, budget=20)
        assert rep.passed

    def test_monotone_failure_reports_witness(self):
        small = PiecewiseFn.indicator(DOM, IntervalSet.of(ico(0, F(1, 4))))
        big = PiecewiseFn.indicator(DOM, IntervalSet.of(ico(0, F(1, 2))))
        fam = ExplicitListFamily(DOM, [small, big], name="growing")
        rep = verify_certificate(fam, MonotoneEnvelope(), budget=5)
        assert not rep.passed
        assert rep.counterexample_k == 2
        assert rep.witness == IntervalSet.of(ico(F(1, 4), F(1, 2)))

    def test_disjoint_failure(self):
        fam = dyadic_indicators_plus()  # nested blocks, far from disjoint
        rep = verify_certificate(fam, DisjointSupports(), budget=6)
        assert not rep.passed
        assert not rep.witness.is_null()

    def test_kernel_failure_null_kernel(self):
        fam = tents()
        bad = SuperlevelKernel(F(1, 2), lambda k: IntervalSet.empty())
        rep = verify_certificate(fam, bad, budget=3)
        assert not rep.passed and "null" in rep.detail

    def test_kernel_failure_wrong_accumulation_point(self):
        # the plateaus (-1/k, 0) u (0, 1/k) reach 1/8 only up to k = 8
        fam = tents()
        kernel = fam.certificates_of(SuperlevelKernel)[0].kernel
        rep = SuperlevelKernel(F(1, 2), kernel, ExtPoint.at(F(1, 8))).verify(fam, 20)
        assert not rep.passed and rep.counterexample_k == 9
        assert "does not accumulate at 1/8" in rep.detail

    def test_norm_limit_verified_against_deviation(self):
        fam = tents()
        good = NormLimit(F(1), lambda k: F(0))
        assert verify_certificate(fam, good, budget=10).passed
        bad = NormLimit(F(0), lambda k: F(1, 2))
        rep = verify_certificate(fam, bad, budget=10)
        assert not rep.passed

    def test_escape_bound_on_wrong_kind(self):
        # supp(u_1) = [1/4, 1/2) is not inside the window [-2, 0]
        fam = dyadic_indicators()
        rep = verify_certificate(fam, EscapeBound(F(1), F(1)), budget=4)
        assert not rep.passed
        assert rep.counterexample_k == 1
        assert rep.witness == IntervalSet.of(ico(F(1, 4), F(1, 2)))

    @pytest.mark.parametrize("width,step", [(F(-1), F(1)), (F(1), F(0)), (F(1), F(-1))])
    def test_escape_bound_needs_a_positive_step(self, width, step):
        with pytest.raises(ValueError, match="width >= 0 and step > 0"):
            EscapeBound(width, step)

    def test_unknown_certificate_rejected(self):
        with pytest.raises(TypeError, match="unknown certificate"):
            verify_certificate(tents(), object(), budget=3)

    def test_escape_bound_pass(self):
        fam = escape_translates()
        rep = verify_certificate(fam, fam.certificates[0], budget=10)
        assert rep.passed

    def test_norm_bound_check(self):
        assert verify_norm_bound(tents(), 10).passed
        lying = IndicatorFamily(DOM, lambda k: IntervalSet.of(ico(0, F(1, 2))))
        lying.norm_bound = F(1, 2)
        rep = verify_norm_bound(lying, 5)
        assert not rep.passed


class TestNormReports:
    """The norm checks compare integer pairs and build ||u_k|| only for a
    failing report, which keeps its detail, its index and its witness.  The
    tents have ||u_k|| = 1 for every k."""

    def test_failing_norm_bound_keeps_its_report(self):
        # ||1_[0, 1/2)|| = 1 against a declared 1/2
        lying = IndicatorFamily(DOM, lambda k: IntervalSet.of(ico(0, F(1, 2))))
        lying.norm_bound = F(1, 2)
        rep = verify_norm_bound(lying, 5)
        assert (rep.certificate, rep.passed, rep.checked_upto) == ("norm-bound", False, 5)
        assert rep.detail == "||u_1|| = 1 > declared 1/2"
        assert rep.counterexample_k == 1
        assert type(rep.witness) is F and rep.witness == 1

    def test_norm_bound_fails_at_the_first_large_term(self):
        # norms 3/4, 1 and 3/2 (1/n + 1/2 on (0, 1/2)) against 4/5
        fam = ExplicitListFamily(DOM, [PiecewiseFn.step(
            DOM, [(IntervalSet.of(opened(0, F(1, 2))), F(1, n) + F(1, 2))])
            for n in (4, 2, 1)], norm_bound=F(4, 5))
        rep = verify_norm_bound(fam, 3)
        assert rep.detail == "||u_2|| = 1 > declared 4/5"
        assert rep.counterexample_k == 2 and rep.witness == 1

    @pytest.mark.parametrize("bound", [F(1), 1])
    def test_norm_equal_to_the_bound_passes(self, bound):
        fam = tents()
        fam.norm_bound = bound
        assert verify_norm_bound(fam, 20).passed

    @pytest.mark.parametrize("limit,dev,side", [
        (F(1, 2), F(1, 4), "above"),   # 1 > 1/2 + 1/4
        (F(2), F(1, 2), "below"),      # 1 < 2 - 1/2
        (F(-1, 2), F(1), "above"),     # 1 > -1/2 + 1
    ])
    def test_norm_limit_fails_on_either_side(self, limit, dev, side):
        rep = NormLimit(limit, lambda k: dev).verify(tents(), 20)
        assert (rep.certificate, rep.passed, rep.checked_upto) == ("norm-limit", False, 20)
        assert rep.detail == f"||u_1|| = 1 deviates from {limit} by more than {dev}"
        assert rep.counterexample_k == 1
        assert type(rep.witness) is F and rep.witness == 1

    def test_norm_limit_fails_at_the_first_deviating_term(self):
        # norms 3/4, 1 and 3/2 against 1/2 +- 1/2: u_3 deviates by 1
        fam = ExplicitListFamily(DOM, [PiecewiseFn.step(
            DOM, [(IntervalSet.of(opened(0, F(1, 2))), F(1, n) + F(1, 2))])
            for n in (4, 2, 1)])
        rep = NormLimit(F(1, 2), lambda k: F(1, 2)).verify(fam, 3)
        assert rep.detail == "||u_3|| = 3/2 deviates from 1/2 by more than 1/2"
        assert rep.counterexample_k == 3 and rep.witness == F(3, 2)

    @pytest.mark.parametrize("limit,dev", [
        (F(1, 2), F(1, 2)), (F(3, 2), F(1, 2)), (F(1), F(0)), (1, 0), (F(0), 1)])
    def test_norm_limit_passes_at_the_boundary(self, limit, dev):
        # | ||u_k|| - limit | = dev exactly, or an int limit and deviation
        assert NormLimit(limit, lambda k: dev).verify(tents(), 20).passed

    def test_negative_deviation_is_reported_first(self):
        # at k = 1 the norm also deviates from 5 by more than 1; the
        # negative bound is named, with no witness
        rep = NormLimit(F(5), lambda k: F(-1)).verify(tents(), 20)
        assert rep.detail == "negative deviation bound"
        assert rep.counterexample_k == 1 and rep.witness is None
        rep = NormLimit(F(1), lambda k: F(-1) if k == 3 else F(0)).verify(tents(), 20)
        assert rep.detail == "negative deviation bound" and rep.counterexample_k == 3


class TestMappedStep:
    def test_no_coefficients_is_refused(self):
        with pytest.raises(ValueError, match="at least one coefficient"):
            MappedStepFamily(dyadic_indicators(), [])

    def test_an_inner_family_without_piecewise_terms_is_refused(self):
        with pytest.raises(ValueError, match="^a polynomial image needs piecewise "
                                             "terms; sin-reciprocal has none$"):
            MappedStepFamily(SinReciprocalFamily(), [0, 1])

    @pytest.mark.parametrize("name,k", [("sided-translates", 1),
                                        ("escape-translates", 1), ("tents", 2)])
    def test_an_inner_family_with_sloped_terms_is_refused(self, name, k):
        # u_1 is built with the image, so a sloped u_1 is refused there; the
        # tents' u_1 is 1 on (-1,0) u (0,1), and their u_2 is refused when
        # the verdict builds it
        with pytest.raises(ValueError, match=f"^a polynomial image needs step "
                                             f"terms; u_{k} of {name} is not one$"):
            test_weak_null(MappedStepFamily(family_by_name(name), [0, 0, 1]))

    def test_a_sloped_u1_is_refused_with_the_image(self):
        with pytest.raises(ValueError, match="u_1 of sided-translates"):
            MappedStepFamily(family_by_name("sided-translates"), [0, 1])


class TestStructure:
    @given(st.integers(1, 12), st.sampled_from([F(1, 4), F(1, 2), F(7, 8)]))
    def test_translate_superlevel_is_shifted(self, k, alpha):
        fam = sided_translates()
        shifted = fam.profile.superlevel(alpha).shift(-k * fam.step)
        assert fam.term(k).superlevel(alpha) == shifted

    @pytest.mark.parametrize("name", PIECEWISE)
    def test_abs_mapped_keeps_certificates(self, name):
        fam = family_by_name(name)
        mapped = fam.abs_mapped()
        assert mapped.certificates == fam.certificates
        assert ref_ae_equal(mapped.term(4), fam.term(4).abs_fn())

    def test_summable_terms_are_layer_sums(self):
        fam = summable_disjoint()
        u1 = fam.term(1)
        x = F(3, 4) * (1 + F(3, 16))  # inside layer 1, k=1 block? probe exact:
        # layer i block at k: [2^-i (1 + 2^-(k+1)), 2^-i (1 + 2^-k))
        probe = F(1, 2) * (1 + F(3, 8))
        assert u1.eval(probe) == F(1, 2)

    def test_summable_layer_ends_equal_the_fraction_products(self):
        fam = summable_disjoint()
        assert len(fam.layers) == 6
        for i, (_, gen) in enumerate(fam.layers, start=1):
            base = F(1, 2 ** i)
            for k in range(1, 65):
                assert gen(k) == IntervalSet.of(ico(base * (1 + F(1, 2 ** (k + 1))),
                                                    base * (1 + F(1, 2 ** k))))

    def test_abs_mapped_of_opposite_layers_is_the_abs_of_each_term(self):
        # layers 1 and -1 on one set cancel: u_k = 0, so |u_k| = 0 too
        block = lambda k: IntervalSet.of(ico(F(1, 2 ** (k + 1)), F(1, 2 ** k)))
        fam = SummableDisjointFamily(Domain.open_interval(0, 1),
                                     [(F(1), block), (F(-1), block)])
        mapped = fam.abs_mapped()
        assert fam.term(1).eval(F(1, 3)) == 0
        assert mapped.term(1).eval(F(1, 3)) == 0
        for k in range(1, 9):
            assert mapped.term(k).pieces == fam.term(k).abs_fn().pieces

    def test_abs_mapped_of_one_sign_keeps_the_layer_form(self):
        block = lambda k: IntervalSet.of(ico(F(1, 2 ** (k + 1)), F(1, 2 ** k)))
        wide = lambda k: IntervalSet.of(ico(0, F(1, k)))
        fam = SummableDisjointFamily(Domain.open_interval(0, 1),
                                     [(F(-1, 2), block), (F(0), block), (F(-2), wide)])
        mapped = fam.abs_mapped()
        assert mapped.certificates_of(DisjointLayers) == fam.certificates_of(DisjointLayers)
        for k in range(1, 9):
            assert mapped.term(k).pieces == fam.term(k).abs_fn().pieces

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            ExplicitListFamily(DOM, [], name="empty")


def _two_overlaps(k):
    """[k, k + 1), except that set 3 reaches back into set 2 and set 5 also
    holds [1, 3/2) inside set 1: overlaps at (2, 3) and at (1, 5) only."""
    if k == 3:
        return IntervalSet.of(ico(F(5, 2), 4))
    if k == 5:
        return IntervalSet.of(ico(1, F(3, 2)), ico(5, 6))
    return IntervalSet.of(ico(k, k + 1))


class TestOverlapReports:
    """Both disjointness checks report the first overlapping pair in i-major
    order, (1, 5), not the pair (2, 3) whose larger index comes first."""

    WIDE = Domain.open_interval(0, 30)
    WITNESS = IntervalSet.of(ico(1, F(3, 2)))

    def test_disjoint_supports_reports_the_first_pair(self):
        fam = IndicatorFamily(self.WIDE, _two_overlaps,
                              certificates=(DisjointSupports(),))
        rep = verify_certificate(fam, fam.certificates[0], budget=20)
        assert not rep.passed
        assert rep.detail == "supports of u_1 and u_5 overlap"
        assert rep.counterexample_k == 5
        assert rep.witness == self.WITNESS

    def test_summable_layer_reports_the_first_pair(self):
        fam = SummableDisjointFamily(self.WIDE, [(F(1), _two_overlaps)])
        (cert,) = fam.certificates_of(DisjointLayers)
        rep = cert.verify(fam, 20)
        assert not rep.passed
        assert "at indices 1,5" in rep.detail
        assert rep.counterexample_k == 5
        assert rep.witness == self.WITNESS


class _Declared(SequenceFamily):
    """The terms of `inner` with one more certificate declared on them."""

    def __init__(self, inner, extra):
        super().__init__(inner.domain, inner.name, inner.norm_bound,
                         inner.certificates + (extra,))
        self.inner = inner

    def _term(self, k):
        return self.inner.term(k)


def _first_term_layer(k):
    """One layer holding supp(tent_1) = (-1, 0) u (0, 1), empty after it:
    disjoint, so only the support containment can fail."""
    return IntervalSet.of(opened(-1, 1)) if k == 1 else IntervalSet.empty()


class TestWrongDeclarations:
    """Structure declared on a family that lacks it fails its exact check at
    a named index, and the engine refuses to answer (CertificateError, which
    the CLI turns into exit 4) instead of giving a null verdict."""

    CASES = {
        # supp(u_2) = (-1, 0) u (0, 1) lies in no layer set of index 2
        "layers-on-tents": ("tents", DisjointLayers((_first_term_layer,)), 2,
                            IntervalSet.of(opened(-1, 0), opened(0, 1))),
        # supp(u_1) = [1/4, 1/2) and the window [-2, 0]
        "escape-on-dyadic": ("dyadic-indicators", EscapeBound(F(1), F(1)), 1,
                             IntervalSet.of(ico(F(1, 4), F(1, 2)))),
        # supp(u_1) = (-inf, 0) shifted by -1, and the window [-2, 0]
        "escape-on-sided": ("sided-translates", EscapeBound(F(1), F(1)), 1,
                            IntervalSet.of(opened(NEG_INF, -2))),
        # supp(u_2) = (-1, 0) u (0, 1) and the envelope (-1/2, 1/2)
        "envelope-on-tents": ("tents", SupportEnvelope(
            lambda k: IntervalSet.of(opened(F(-1, k), F(1, k)))), 2,
            IntervalSet.of(ioc(-1, F(-1, 2)), ico(F(1, 2), 1))),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fails_at_a_named_index(self, case):
        name, cert, k, outside = self.CASES[case]
        fam = _Declared(family_by_name(name), cert)
        rep = cert.verify(fam, 20)
        assert not rep.passed
        assert rep.counterexample_k == k and rep.detail.startswith(f"supp(u_{k}) escapes")
        assert rep.witness == outside
        with pytest.raises(CertificateError, match=f"certificate {cert.name} failed") as exc:
            test_weak_null(fam)
        assert exc.value.k == k

    @pytest.mark.parametrize("case,point", [
        *((case, "inf") for case in sorted(CASES)), ("envelope-on-tents", "1/2")])
    def test_a_localized_question_checks_every_certificate(self, case, point):
        # every certificate is checked on every question, at a point too
        name, cert, k, _ = self.CASES[case]
        fam = _Declared(family_by_name(name), cert)
        with pytest.raises(CertificateError, match=f"certificate {cert.name} failed") as exc:
            test_weak_null_at(fam, ExtPoint.parse(point))
        assert exc.value.k == k

    def test_support_envelope_names_its_envelope(self):
        _, cert, _, _ = self.CASES["envelope-on-tents"]
        rep = cert.verify(_Declared(family_by_name("tents"), cert), 20)
        assert rep.detail == "supp(u_2) escapes envelope(2)"
        assert str(rep.witness) == "(-1,-1/2] u [1/2,1)"


def _blocks_at_0(odd=None):
    """chi([0, 2^-k)) on (-1, 1), with the set odd(k) in place of it where
    odd gives one."""
    def sets(k):
        return (odd and odd(k)) or IntervalSet.of(ico(0, F(1, 2 ** k)))
    return sets


def _shared_block_certificates():
    """A kernel (0, 2^-(k+1)) at alpha = 1/2 and the envelope [0, 2^-k)."""
    return (SuperlevelKernel(F(1, 2), lambda k: IntervalSet.of(opened(0, F(1, 2 ** (k + 1)))),
                             ExtPoint.at(0)),
            SupportEnvelope(lambda k: IntervalSet.of(ico(0, F(1, 2 ** k)))))


class TestSharedCertificates:
    """A certificate keeps the sets it declares and never a check's outcome:
    one instance declared on an honest family and on a lying one passes the
    first and still catches the second, at the same k and with the same
    witness as a certificate that has seen no other family."""

    LIES = {
        # A_{1/2}(u_5) = [2^-7, 2^-5) misses the kernel's (0, 2^-7)
        "kernel": lambda k: IntervalSet.of(ico(F(1, 128), F(1, 32))) if k == 5 else None,
        # supp(u_7) = [0, 1/2) leaves the envelope [0, 1/128)
        "envelope": lambda k: IntervalSet.of(ico(0, F(1, 2))) if k == 7 else None,
    }

    @staticmethod
    def _raised(family, x0):
        with pytest.raises(CertificateError) as exc:
            if x0 is None:
                test_weak_null(family)
            else:
                test_weak_null_at(family, x0)
        return str(exc.value), exc.value.k, exc.value.witness

    @pytest.mark.parametrize("lie", sorted(LIES))
    @pytest.mark.parametrize("point", [None, "0"])
    def test_the_lie_is_still_caught(self, lie, point):
        x0 = None if point is None else ExtPoint.parse(point)
        alone = self._raised(IndicatorFamily(DOM, _blocks_at_0(self.LIES[lie]), name="lying",
                                             certificates=_shared_block_certificates()), x0)
        shared = _shared_block_certificates()
        honest = IndicatorFamily(DOM, _blocks_at_0(), name="honest", certificates=shared)
        lying = IndicatorFamily(DOM, _blocks_at_0(self.LIES[lie]), name="lying",
                                certificates=shared)
        verdict = test_weak_null(honest) if x0 is None else test_weak_null_at(honest, x0)
        assert verdict.is_nonnull and all(r.passed for r in verdict.cert_reports)
        assert self._raised(lying, x0) == alone
        assert alone[0].startswith(f"certificate {shared[lie == 'envelope'].name} failed")
        assert alone[1] == (5 if lie == "kernel" else 7)


class TestDeclaredTail:
    """A summable family's declared tail bound must meet the sum of the
    listed layers past each I: tail(I) >= sum_{I<i<=L} |a_i|."""

    @staticmethod
    def _family(tail):
        layers = family_by_name("summable-disjoint").layers
        return SummableDisjointFamily(Domain.open_interval(0, 1), layers,
                                      tail_bound=tail)

    def test_the_corpus_tail_passes(self):
        fam = family_by_name("summable-disjoint")
        (cert,) = fam.certificates_of(DisjointLayers)
        assert cert.coefficients == tuple(F(1, 2 ** i) for i in range(1, 7))
        assert cert.verify(fam, 20).passed

    @pytest.mark.parametrize("tail, detail", [
        (lambda i: 0, "tail(0) = 0 is below the listed sum_{0<i<=6} |a_i| = 63/64"),
        # 2^-I is right; at I = 5 only a_6 = 1/64 is left, above 1/128
        (lambda i: F(1, 2 ** i) if i < 5 else F(1, 128),
         "tail(5) = 1/128 is below the listed sum_{5<i<=6} |a_i| = 1/64"),
    ])
    def test_a_wrong_tail_fails_and_names_I(self, tail, detail):
        fam = self._family(tail)
        (cert,) = fam.certificates_of(DisjointLayers)
        rep = cert.verify(fam, 20)
        assert not rep.passed and rep.detail == detail
        with pytest.raises(CertificateError,
                           match="certificate disjoint-layers failed: tail"):
            test_weak_null(fam)

    def test_a_tail_needs_one_coefficient_per_layer(self):
        with pytest.raises(ValueError, match="one coefficient per layer"):
            DisjointLayers((_first_term_layer,), (), lambda i: F(1))


def _family_classes(cls=SequenceFamily):
    yield cls
    for sub in cls.__subclasses__():
        yield from _family_classes(sub)


def test_no_isinstance_on_a_family_class():
    """Verdicts read what a family declares, never its class: no module of
    the package calls isinstance with SequenceFamily or a subclass of it."""
    package = Path(linfweak.__file__).parent
    modules = sorted(package.glob("*.py"))
    for path in modules:
        if path.stem != "__init__":
            importlib.import_module(f"linfweak.{path.stem}")
    family_names = {c.__name__ for c in _family_classes()}
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                continue
            kinds = node.args[1]
            for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
                name = getattr(kind, "id", None) or getattr(kind, "attr", None)
                if name in family_names:
                    found.append(f"{path.name}:{node.lineno} isinstance(_, {name})")
    assert "TranslateFamily" in family_names and "_AbsMapped" in family_names
    assert not found, found

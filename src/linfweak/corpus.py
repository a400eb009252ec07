"""Built-in corpus: the worked example families with their certificates and
expected verdicts, plus the filter-base oracles for the restriction module.

Everything here is referenced by name from the CLI and exercised end to end
by the corpus task and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .engine import NONNULL, NULL
from .families import (DisjointSupports, EscapeBound, ExplicitListFamily,
                       IndicatorFamily, LowerEnvelope, MonotoneEnvelope, NormLimit,
                       SequenceFamily, SinReciprocalFamily,
                       SummableDisjointFamily, SupportEnvelope,
                       SuperlevelKernel, TentFamily, TranslateFamily)
from .piecewise import PiecewiseFn
from .points import ExtPoint
from .restriction import BasePart, BaseFormula, FilterBaseMeasure
from .sets import Domain, IntervalSet, NEG_INF, POS_INF, ico, ioc, ivl, opened

F = Fraction
X_UNIT = Domain.open_interval(-1, 1)


def dyadic_indicators() -> SequenceFamily:
    """A_k = [2^-(k+1), 2^-k) on (-1,1): mutually disjoint, hence weakly null."""
    def sets(k):
        return IntervalSet.of(ico(F(1, 2 ** (k + 1)), F(1, 2 ** k)))
    def envelope(k):
        return IntervalSet.of(opened(0, F(1, 2 ** (k - 1))))
    return IndicatorFamily(
        X_UNIT, sets, name="dyadic-indicators",
        certificates=(DisjointSupports("consecutive dyadic blocks"),
                      SupportEnvelope(envelope)))


def dyadic_indicators_minus() -> SequenceFamily:
    """Right shift by 2^-(k+1): blocks [2^-k, 3*2^-(k+1)), still disjoint."""
    def sets(k):
        return IntervalSet.of(ico(F(1, 2 ** k), F(3, 2 ** (k + 1))))
    def envelope(k):
        return IntervalSet.of(opened(0, F(1, 2 ** (k - 1))))
    return IndicatorFamily(
        X_UNIT, sets, name="dyadic-indicators-minus",
        certificates=(DisjointSupports("shifted blocks stay disjoint"),
                      SupportEnvelope(envelope)))


def dyadic_indicators_plus() -> SequenceFamily:
    """Left shift by 2^-(k+1): every block becomes [0, 2^-(k+1)), so all terms
    pile up at 0 and the family is not weakly null."""
    def sets(k):
        return IntervalSet.of(ico(0, F(1, 2 ** (k + 1))))
    def kernel(k):
        return IntervalSet.of(opened(0, F(1, 2 ** (k + 1))))
    def envelope(k):
        return IntervalSet.of(ico(0, F(1, 2 ** k)))
    return IndicatorFamily(
        X_UNIT, sets, name="dyadic-indicators-plus",
        certificates=(SuperlevelKernel(F(1, 2), kernel, ExtPoint.at(0),
                                       note="the nested blocks themselves"),
                      SupportEnvelope(envelope),
                      MonotoneEnvelope(),
                      NormLimit(F(1), lambda k: F(0))))


def summable_disjoint() -> SequenceFamily:
    """u_k = sum_i 2^-i chi(A_k^i) with layer i living in the band
    (2^-i, 3*2^-(i+1)]; each layer is a disjoint dyadic family."""
    domain = Domain.open_interval(0, 1)
    def gen(i):
        # [2^-i (1 + 2^-(k+1)), 2^-i (1 + 2^-k)), its ends written directly
        def sets(k):
            return IntervalSet.of(ico(F(2 ** (k + 1) + 1, 2 ** (i + k + 1)),
                                      F(2 ** k + 1, 2 ** (i + k))))
        return sets
    layers = [(F(1, 2 ** i), gen(i)) for i in range(1, 7)]
    return SummableDisjointFamily(
        domain, layers, name="summable-disjoint",
        tail_bound=lambda i: F(1, 2 ** i),
        # the bands are also disjoint across layers here, so whole-term
        # supports are pairwise disjoint; squared/mapped images inherit it
        certificates=(DisjointSupports("disjoint dyadic bands"),))


def tents() -> SequenceFamily:
    return TentFamily()


def _escape_profile() -> PiecewiseFn:
    domain = Domain.real_line()
    return PiecewiseFn.from_pieces(domain, [
        (ivl(NEG_INF, -1, False, True), 0, 0),
        (opened(-1, 0), 1, 1),
        (ivl(0, 1, True, False), -1, 1),
        (ivl(1, POS_INF, True, False), 0, 0),
    ])


def escape_translates() -> SequenceFamily:
    """u_k(x) = u(x + k) for a tent profile vanishing off [-1, 1], so that
    supp(u_k) lies in [-1 - k, 1 - k]."""
    return TranslateFamily(_escape_profile(), F(1), name="escape-translates",
                           certificates=(EscapeBound(F(1), F(1)),))


def _step_down_profile() -> PiecewiseFn:
    domain = Domain.real_line()
    return PiecewiseFn.from_pieces(domain, [
        (ivl(NEG_INF, -1, False, True), 0, 1),
        (opened(-1, 0), -1, 0),
        (ivl(0, POS_INF, True, False), 0, 0),
    ])


def sided_translates() -> SequenceFamily:
    """Profile 1 near -inf, 0 near +inf: pointwise null everywhere, weakly
    null at every finite point, not at the point at infinity."""
    return TranslateFamily(_step_down_profile(), F(1), name="sided-translates",
                           certificates=(MonotoneEnvelope("profile is non-increasing"),
                                         NormLimit(F(1), lambda k: F(0))))


def sin_reciprocal() -> SequenceFamily:
    return SinReciprocalFamily()


def center_segment() -> PiecewiseFn:
    """chi((0, 1/2)) on (-1,1): the one-sided segment at the origin whose
    essential range at 0 is {0, 1}."""
    return PiecewiseFn.indicator(X_UNIT, IntervalSet.of(opened(0, F(1, 2))))


def ring_indicators() -> SequenceFamily:
    """Disjoint two-sided rings shrinking to 0: weakly null, yet the terms
    keep unit values on every fixed neighborhood of 0 for k large."""
    def sets(k):
        return IntervalSet.of(ioc(-F(1, 2 ** k), -F(1, 2 ** (k + 1))),
                              ico(F(1, 2 ** (k + 1)), F(1, 2 ** k)))
    def envelope(k):
        return IntervalSet.of(opened(-F(1, 2 ** (k - 1)), F(1, 2 ** (k - 1))))
    return IndicatorFamily(
        X_UNIT, sets, name="ring-indicators",
        certificates=(DisjointSupports("dyadic rings"),
                      SupportEnvelope(envelope)))


def dini_null() -> SequenceFamily:
    """u_k = (1/k) chi((0,1/2)): monotone with vanishing norms."""
    domain = Domain.open_interval(0, 1)
    block = IntervalSet.of(opened(0, F(1, 2)))
    class _Fam(SequenceFamily):
        def _term(self, k):
            return PiecewiseFn.step(self.domain, [(block, F(1, k))])
    return _Fam(domain, "dini-null", F(1),
                (MonotoneEnvelope(), NormLimit(F(0), lambda k: F(1, k))))


def dini_nonnull() -> SequenceFamily:
    """u_k = (1/2 + 1/k) chi((0,1/2)): monotone, norms drop to 1/2 > 0, and
    every term lies above (1/2) chi((0,1/2))."""
    domain = Domain.open_interval(0, 1)
    block = IntervalSet.of(opened(0, F(1, 2)))
    class _Fam(SequenceFamily):
        def _term(self, k):
            return PiecewiseFn.step(self.domain, [(block, F(1, 2) + F(1, k))])
    floor = PiecewiseFn.step(domain, [(block, F(1, 2))])
    return _Fam(domain, "dini-nonnull", F(2),
                (MonotoneEnvelope(), NormLimit(F(1, 2), lambda k: F(1, k)),
                 LowerEnvelope(floor)))


def zero_family() -> SequenceFamily:
    return ExplicitListFamily(X_UNIT, [PiecewiseFn.constant(X_UNIT, 0)],
                              name="zero-family")


FAMILIES: dict[str, Callable[[], SequenceFamily]] = {
    "dyadic-indicators": dyadic_indicators,
    "dyadic-indicators-minus": dyadic_indicators_minus,
    "dyadic-indicators-plus": dyadic_indicators_plus,
    "summable-disjoint": summable_disjoint,
    "tents": tents,
    "escape-translates": escape_translates,
    "sided-translates": sided_translates,
    "sin-reciprocal": sin_reciprocal,
    "ring-indicators": ring_indicators,
    "dini-null": dini_null,
    "dini-nonnull": dini_nonnull,
    "zero-family": zero_family,
}


_SHARED: dict[str, SequenceFamily] = {}


def family_by_name(name: str) -> SequenceFamily:
    """The one shared instance of the built-in family `name`, built on first
    use, so that its term cache serves every later question in the process.

    Shared instances are read-only: no caller may assign to one or patch
    it.  Terms are frozen values that keep what is derived from them (|u|,
    supports, level sets, norms), and certificates keep the sets that their
    pure callables declare, so a question can only add terms and such
    values, never change what another question sees.  No verdict, report
    or check outcome is kept: every check runs on every question.
    `FAMILIES[name]()` and the factory functions still build a fresh family
    on each call."""
    if name not in FAMILIES:
        raise KeyError(f"unknown family {name!r}; known: {sorted(FAMILIES)}")
    if name not in _SHARED:
        _SHARED[name] = FAMILIES[name]()
    return _SHARED[name]


# ---------------------------------------------------------------------------
# filter-base oracles for the restriction module


def escaping_base(domain: Optional[Domain] = None) -> FilterBaseMeasure:
    """B_l = (0, 1/l) on X = (0,1): concentrates at the lost boundary point,
    so its Borel restriction vanishes."""
    formula = BaseFormula((BasePart.affine(0, 0, 0, 1, False, False),))
    return FilterBaseMeasure(formula, domain or Domain.open_interval(0, 1))


def dirac_base(domain: Optional[Domain] = None) -> FilterBaseMeasure:
    """B_l = (1/2 - 1/l, 1/2 + 1/l) inside X = (0,1) (index-shifted so every
    member fits): restricts to the Dirac measure at 1/2."""
    formula = BaseFormula((BasePart.affine(F(1, 2), -1, F(1, 2), 1, False, False),),
                          index_shift=2)
    return FilterBaseMeasure(formula, domain or Domain.open_interval(0, 1))


def closed_dirac_base(domain: Optional[Domain] = None) -> FilterBaseMeasure:
    """B_l = [1/2 - 1/l, 1/2 + 1/l] on X = (-1, 2): the closed hulls are the
    compacts of the singularity witness, with measure 2/l."""
    formula = BaseFormula((BasePart.affine(F(1, 2), -1, F(1, 2), 1, True, True),))
    return FilterBaseMeasure(formula, domain or Domain.open_interval(-1, 2))


def app3_base() -> FilterBaseMeasure:
    """B_l = (-1/(2l), 0) u (0, 1/(2l)) on (-1,1): the punctured-neighborhood
    base separating the tent family from 0."""
    formula = BaseFormula((BasePart.affine(0, F(-1, 2), 0, 0, False, False),
                           BasePart.affine(0, 0, 0, F(1, 2), False, False)))
    return FilterBaseMeasure(formula, Domain.open_interval(-1, 1))


# ---------------------------------------------------------------------------
# expected verdicts, used by the corpus task and the acceptance tests


@dataclass(frozen=True)
class CorpusItem:
    name: str
    family: str
    expected_kind: str
    expected_scheme: Optional[str] = None
    note: str = ""


CORPUS: list[CorpusItem] = [
    CorpusItem("disjoint blocks", "dyadic-indicators", NULL, "disjoint-supports"),
    CorpusItem("shifted blocks (minus)", "dyadic-indicators-minus", NULL,
               "disjoint-supports"),
    CorpusItem("piled blocks (plus)", "dyadic-indicators-plus", NONNULL,
               "superlevel-kernel"),
    CorpusItem("summable layers", "summable-disjoint", NULL, "summable-disjoint"),
    CorpusItem("tents (pointwise null, weakly non-null)", "tents", NONNULL,
               "superlevel-kernel"),
    CorpusItem("escaping translates", "escape-translates", NULL, "escape-bound"),
    CorpusItem("one-sided translates", "sided-translates", NONNULL,
               "monotone-norm-floor"),
    CorpusItem("sin(1/(kx))", "sin-reciprocal", NONNULL,
               "divisibility-point-witness"),
    CorpusItem("shrinking rings", "ring-indicators", NULL, "disjoint-supports"),
    CorpusItem("Dini, vanishing norms", "dini-null", NULL, "norm-limit"),
    CorpusItem("Dini, norm floor 1/2", "dini-nonnull", NONNULL,
               "monotone-norm-floor"),
    CorpusItem("zero family", "zero-family", NULL, "eventual-constant"),
]

LOCAL_CORPUS: list[tuple[str, str, str]] = [
    # (family, point literal, expected kind)
    ("sided-translates", "0", NULL),
    ("sided-translates", "-3", NULL),
    ("sided-translates", "inf", NONNULL),
    ("tents", "0", NONNULL),
    ("tents", "1/2", NULL),
    ("tents", "inf", NULL),
    ("zero-family", "0", NULL),
    ("zero-family", "inf", NULL),
    ("dyadic-indicators", "0", NULL),
    ("ring-indicators", "0", NULL),
    ("sin-reciprocal", "0", NONNULL),
    ("sin-reciprocal", "1/100", NULL),
    ("sin-reciprocal", "inf", NONNULL),
]

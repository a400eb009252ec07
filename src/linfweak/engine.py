"""The weak-nullity verdict engine.

A bounded sequence converges weakly to zero iff for every alpha > 0 and
every strictly increasing subsequence some finite intersection of the
superlevel sets A_alpha(u_kj) = { |u_kj| > alpha } is Lebesgue-null;
equivalently the pointwise minima v_J = min_j |u_kj| converge to zero in
norm.  Finite computation cannot quantify over all subsequences and all
alpha, so the engine certifies nullity only through one of the schemes below
(each reduces the full quantifier to a verified family certificate), and
certifies non-nullity through a kernel or norm-floor witness.  Everything
else is reported as Inconclusive together with the exact evidence table.

Schemes, tried in `_LEADING_SCHEMES` then `_NONNULL_SCHEMES` order, read
only what a family declares (its certificates and `eventual_tail`), never
its class; the first verdict wins:
  eventual-constant      families whose terms equal one tail f from some
                         k0 on (`eventual_tail`): null iff f = 0 a.e.
  summable-disjoint      supports inside L layers of disjoint sets
                         (`DisjointLayers`) force v_J = 0 for every J > L
  disjoint-supports      any two indices already give a null intersection
  escape-bound           supports inside windows that escape to -inf
                         (`EscapeBound`); counting forces v_J = 0
  norm-limit             ||u_k|| -> 0 is strong convergence
  superlevel-kernel      nested positive-measure kernels inside the
                         superlevel sets refute nullity
  monotone-norm-floor    a monotone envelope with ||u_k|| -> c > 0 (the
                         Dini-type equivalence) refutes nullity
  divisibility-point-witness  certified norm floors at the points of a
                         `PointFloor` (sin(1/(kx))) refute nullity
The last three can only certify non-nullity.  A null verdict is checked
against each of them, and a family on which one of them also gives a
verdict is rejected as inconsistent.  The certificate checks, the first
five schemes and that check are `_certified_verdict`, which a localized
question shares (`localize.test_weak_null_at`).  Every family takes this
one walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Callable, Optional, Sequence, Union

from .enclosure import RatInterval
from .families import (CertificateError, CertReport, DisjointLayers,
                       DisjointSupports, EscapeBound, MonotoneEnvelope,
                       NormLimit, PointFloor, SequenceFamily, SuperlevelKernel,
                       verify_certificate, verify_norm_bound)
from .piecewise import PiecewiseFn, min_of
from .points import WitnessPoint
from .rational import min_abs
from .sets import IntervalSet, POS_INF, rat


class EngineError(ValueError):
    pass


NULL = "null-certified"
NONNULL = "nonnull-certified"
INCONCLUSIVE = "inconclusive"


def _identity(j):
    return j


def _even(j):
    return 2 * j


def _odd(j):
    return 2 * j - 1


def _dyadic(j):
    return 2 ** j


DEFAULT_STRATEGIES: list[tuple[str, Callable[[int], int]]] = [
    ("identity", _identity), ("even", _even), ("odd", _odd), ("dyadic", _dyadic),
]

# Certificates are checked exactly for k <= CERT_BUDGET and trusted beyond.
# It exceeds min(j_max, 12), so `SuperlevelKernel.verify` already puts every
# kernel inside the intersections that `_checked_kernel_witness` measures.
CERT_BUDGET = 20


@dataclass
class Policy:
    """Budgets and grids for one engine run."""

    alpha_grid: Optional[list[Fraction]] = None
    strategies: list[tuple[str, Callable[[int], int]]] = field(
        default_factory=lambda: list(DEFAULT_STRATEGIES))
    extra_subsequences: list[list[int]] = field(default_factory=list)
    j_max: int = 12
    k_max: int = 48


# Descending, so _POWERS[-1] is the floor of every default grid.
_POWERS = tuple(Fraction(1, 2 ** n) for n in range(0, 9))
_SPOT_TERMS = 12


def _piecewise_terms(family: SequenceFamily, ks) -> list[PiecewiseFn]:
    """u_k for k in ks; a family without piecewise terms
    (`SequenceFamily.has_piecewise_terms`) raises `EngineError`."""
    if not family.has_piecewise_terms():
        raise EngineError(f"{family.name} has no piecewise terms")
    return [family.term(k) for k in ks]


def default_alpha_grid(family: SequenceFamily, k_max: int) -> list[Fraction]:
    """Powers 1/2^n, n <= 8, plus every distinct nonzero |piece value| of the
    first k_max terms; piecewise-constant families change superlevel sets
    only at those thresholds.  `_spot_alpha` finds the least element from
    the same `_POWERS` and terms without building the grid."""
    grid = set(_POWERS)
    for u in _piecewise_terms(family, range(1, k_max + 1)):
        for v in u.piece_value_candidates():
            if v > 0:
                grid.add(v)
    return sorted(grid)


@dataclass
class Witness:
    """Kernel witness: a subsequence along which every finite superlevel
    intersection keeps at least the kernel's measure."""

    alpha: Fraction
    subsequence: str
    kernel: Callable[[int], IntervalSet]
    table: list[dict] = field(default_factory=list)


def kernel_witness(alpha: Fraction, k0: int,
                   kernel: Callable[[int], IntervalSet], j_max: int) -> Witness:
    """The kernel witness along k_j = k0 + j (the identity when k0 = 0),
    with the measure of kernel(k_J) for each J <= j_max."""
    table = [{"J": J, "k_J": k0 + J, "kernel_measure": kernel(k0 + J).measure()}
             for J in range(1, j_max + 1)]
    return Witness(alpha, f"k_j = {k0} + j" if k0 else "identity", kernel, table)


@dataclass
class NormFloorWitness:
    """Point witness: certified |u_kj(x_J)| >= delta for all j <= J."""

    subsequence: list[int]
    delta: Fraction
    rows: list[dict] = field(default_factory=list)


@dataclass
class Verdict:
    family: str
    kind: str  # NULL | NONNULL | INCONCLUSIVE
    scheme: Optional[str] = None
    witness: Optional[Union[Witness, NormFloorWitness]] = None
    evidence: dict = field(default_factory=dict)
    trust: str = ""
    cert_reports: list[CertReport] = field(default_factory=list)

    @property
    def is_null(self) -> bool:
        return self.kind == NULL

    @property
    def is_nonnull(self) -> bool:
        return self.kind == NONNULL


# ---------------------------------------------------------------------------
# the two exact quantities of the criterion


def v_inf(family: SequenceFamily, subseq: Sequence[int], J: int) -> PiecewiseFn:
    """v_J = pointwise min of |u_k1|, ..., |u_kJ|."""
    _check_subseq(subseq, J)
    return min_of([u.abs_fn() for u in _piecewise_terms(family, subseq[:J])])


def intersection_measure(family: SequenceFamily, subseq: Sequence[int],
                         alpha, J: int) -> Union[Fraction, float]:
    """lambda of the J-fold superlevel intersection along the subsequence.

    Computed twice: directly on the sets, and as the measure of the
    superlevel set of v_J; the two must agree exactly.
    """
    alpha = rat(alpha)
    _check_subseq(subseq, J)
    inter = None
    for u in _piecewise_terms(family, subseq[:J]):
        s = u.superlevel(alpha)
        inter = s if inter is None else inter.intersect(s)
    return _identity_checked(inter, v_inf(family, subseq, J).superlevel(alpha))


def _identity_checked(inter: IntervalSet, above: IntervalSet,
                      window: Optional[IntervalSet] = None):
    """The measure of the superlevel intersection, after checking that it
    equals the measure of { v_J > alpha } (`above`, computed from v_J; both
    inside the window, when one is given)."""
    direct = inter.measure()
    via_v = (above if window is None else above.intersect(window)).measure()
    if direct != via_v:
        raise EngineError(
            f"criterion identity violated: sets give {direct}, v_J gives {via_v}")
    return direct


@dataclass
class _CallStore:
    """The exact objects of one engine call, each built once however many
    alphas, windows, rows or subsequences share it.  A store belongs to one
    call and is never kept at module level.

    minima       subsequence prefix -> v_J
    term_levels  alpha -> k -> A_alpha(u_k)
    vj_levels    alpha -> prefix -> { v_J > alpha }

    The level sets are keyed by alpha first, so that a walk hashes its
    alpha once and each cell looks up an int or a tuple of ints.
    """

    minima: dict = field(default_factory=dict)
    term_levels: dict = field(default_factory=dict)
    vj_levels: dict = field(default_factory=dict)


def _prefix_minima(family: SequenceFamily, subseq: Sequence[int],
                   minima: dict):
    """Yield (prefix, v_J) for J = 1, 2, ... along subseq, each v_J as
    min(v_{J-1}, |u_kJ|) and each prefix the tuple of the first J indices.

    `minima` maps prefixes to their v_J (see `_CallStore`).
    """
    if subseq:
        _check_subseq(subseq, 1)
    vj = None
    for J, k in enumerate(subseq, start=1):
        prefix = tuple(subseq[:J])
        cached = minima.get(prefix)
        if cached is None:
            cached = family.term(k).abs_fn()
            if vj is not None:
                cached = min_of([vj, cached])
            minima[prefix] = cached
        vj = cached
        yield prefix, vj


def _walk(family: SequenceFamily, subseq: Sequence[int], alpha: Fraction,
          store: _CallStore, window: Optional[IntervalSet] = None):
    """Yield (J, intersection measure) for J = 1, 2, ... along subseq.

    The subsequence is walked once: the superlevel intersection of step J is
    the one of step J-1 intersected with A_alpha(u_kJ), and v_J comes from
    `_prefix_minima`.  With a window, the intersection starts from the
    window and both sides of the identity are measured inside it.  Neither
    A_alpha(u_k), v_J nor { v_J > alpha } depends on the window, so the
    store serves them to every (window, row) of the call.  Each cell is
    checked against the criterion identity as in `intersection_measure`.
    """
    inter = window
    levels = store.term_levels.setdefault(alpha, {})
    above_of = store.vj_levels.setdefault(alpha, {})
    for J, (prefix, vj) in enumerate(_prefix_minima(family, subseq, store.minima),
                                     start=1):
        k = prefix[-1]
        s = levels.get(k)
        if s is None:
            s = levels[k] = family.term(k).superlevel(alpha)
        above = above_of.get(prefix)
        if above is None:
            # v_1 is u_k1 itself when u_k1 >= 0, and so is its level set
            above = above_of[prefix] = (
                s if J == 1 and vj is family.term(k) else vj.superlevel(alpha))
        inter = s if inter is None else inter.intersect(s)
        yield J, _identity_checked(inter, above, window)


def _check_subseq(subseq, J):
    if J < 1 or len(subseq) < J:
        raise EngineError("subsequence shorter than J")
    for a, b in zip(subseq, subseq[1:]):
        if b <= a:
            raise EngineError("subsequence must be strictly increasing")
    if subseq[0] < 1:
        raise EngineError("indices start at 1")


# ---------------------------------------------------------------------------
# verdict engine


def test_weak_null(family: SequenceFamily, policy: Optional[Policy] = None) -> Verdict:
    policy = policy or Policy()
    verdict, reports = _certified_verdict(family, policy)
    if verdict is None:
        verdict = (_first_verdict(_NONNULL_SCHEMES, family, policy)
                   or _inconclusive(family, policy))
    verdict.cert_reports = reports
    return verdict


test_weak_null.__test__ = False  # not a pytest case


def _certified_verdict(family: SequenceFamily,
                      policy: Policy) -> tuple[Optional[Verdict], list[CertReport]]:
    """The part of the verdict that a localized question shares with the
    global one, for every family: the norm bound and every certificate
    checked (a failure raises `CertificateError`), then the first verdict
    of `_LEADING_SCHEMES`, or None.  A null verdict is checked
    against every scheme of `_NONNULL_SCHEMES`, and one that also gives a
    verdict raises `EngineError`.  Returns the verdict and the certificate
    reports."""
    _check_norm_bound(family, policy)
    reports = [verify_certificate(family, c, CERT_BUDGET)
               for c in family.certificates]
    for rep in reports:
        if not rep.passed:
            raise CertificateError(
                f"certificate {rep.certificate} failed: {rep.detail}",
                k=rep.counterexample_k, witness=rep.witness)
    verdict = _first_verdict(_LEADING_SCHEMES, family, policy)
    if verdict is not None and verdict.is_null:
        refuted = _first_verdict(_NONNULL_SCHEMES, family, policy)
        if refuted is not None:
            raise EngineError(
                f"inconsistent family {family.name}: scheme {verdict.scheme} "
                f"certifies nullity but {refuted.scheme} certifies non-nullity")
    return verdict, reports


def _check_norm_bound(family, policy):
    nb = verify_norm_bound(family, min(CERT_BUDGET, policy.k_max))
    if not nb.passed:
        raise CertificateError(f"norm bound check failed: {nb.detail}",
                               k=nb.counterexample_k, witness=nb.witness)


def _first_verdict(schemes, family, policy) -> Optional[Verdict]:
    """The verdict of the first scheme that gives one, tried in order."""
    for scheme in schemes:
        verdict = scheme(family, policy)
        if verdict is not None:
            return verdict
    return None


_TRUST_NOTE = (f"certificates verified exactly for k <= {CERT_BUDGET} and "
               "trusted beyond; verdict quantifies over all subsequences "
               "through the certified scheme")


def _spot_alphas(family, policy):
    return policy.alpha_grid or default_alpha_grid(family, min(policy.k_max, _SPOT_TERMS))


def _spot_alpha(family, policy) -> Fraction:
    """The first alpha of `_spot_alphas`, without building or sorting the
    grid: the policy's own first alpha, else the least of the finest power
    and the nonzero |piece values| of the same grid terms."""
    if policy.alpha_grid:
        return policy.alpha_grid[0]
    alpha = _POWERS[-1]
    for u in _piecewise_terms(family, range(1, min(policy.k_max, _SPOT_TERMS) + 1)):
        alpha = min_abs(u.pieces, alpha)
    return alpha


def _try_eventual_constant(family, policy):
    found = family.eventual_tail()
    if found is None:
        return None
    start, tail = found
    c = tail.ess_sup_norm()
    if c == 0:
        return Verdict(family.name, NULL, scheme="eventual-constant",
                       evidence={"tail_norm": c, "list_length": start},
                       trust="exact: the repeated tail term vanishes a.e.")
    alpha = c / 2
    kernel_set = tail.superlevel(alpha)
    wit = kernel_witness(alpha, start, lambda k: kernel_set, policy.j_max)
    return Verdict(family.name, NONNULL, scheme="eventual-constant", witness=wit,
                   evidence={"tail_norm": c},
                   trust="exact: along the repeated tail every intersection "
                         "equals a fixed positive-measure superlevel set")


def _try_summable_disjoint(family, policy):
    certs = family.certificates_of(DisjointLayers)
    if not certs:
        return None
    cert = certs[0]
    j_zero = len(cert.layers) + 1
    checks = {}
    minima: dict = {}
    for name, strat in policy.strategies:
        subseq = [strat(j) for j in range(1, j_zero + 1)]
        if subseq[-1] > policy.k_max:
            continue
        *_, (_, vj) = _prefix_minima(family, subseq, minima)
        checks[name] = vj.ess_sup_norm()
        if checks[name] != 0:
            raise EngineError(f"summable-disjoint pigeonhole violated on {name}")
    ev = {"layers": len(cert.layers), "forcing_J": j_zero,
          "spot_norms": {n: str(v) for n, v in checks.items()}}
    if cert.tail_bound is not None:
        ev["declared_tail"] = (f"sum_{{i>I}} |a_i| <= tail(I), checked for "
                               f"I < {len(cert.layers)} against the listed layers")
    return Verdict(family.name, NULL, scheme="summable-disjoint", evidence=ev,
                   trust="pigeonhole over the disjoint layers: any J > layer "
                         "count makes v_J vanish identically, for every "
                         "subsequence; " + _TRUST_NOTE)


def _try_disjoint_supports(family, policy):
    if not family.certificates_of(DisjointSupports):
        return None
    alpha = _spot_alpha(family, policy)
    spot = {}
    for name, strat in policy.strategies:
        subseq = [strat(1), strat(2)]
        if subseq[-1] > policy.k_max:
            continue
        m = intersection_measure(family, subseq, alpha, 2)
        spot[name] = m
        if m != 0:
            raise EngineError("disjoint supports but positive pair intersection")
    return Verdict(family.name, NULL, scheme="disjoint-supports",
                   evidence={"pair_measures": {n: str(v) for n, v in spot.items()},
                             "alpha_spot": alpha},
                   trust="any two distinct indices give a null superlevel "
                         "intersection for every alpha; " + _TRUST_NOTE)


def _try_escape_bound(family, policy):
    certs = family.certificates_of(EscapeBound)
    if not certs:
        return None
    cert = certs[0]
    w, step = rat(cert.width), rat(cert.step)
    j_bound = math.floor(2 * w / step) + 2
    row = {"window": w, "J_bound": j_bound}
    if j_bound <= policy.j_max + 4:
        *_, (_, vj) = _prefix_minima(family, range(1, j_bound + 1), {})
        row["identity_norm"] = vj.ess_sup_norm()
        if row["identity_norm"] != 0:
            raise EngineError("escape counting bound violated on identity")
    return Verdict(family.name, NULL, scheme="escape-bound",
                   evidence={"table": [row], "step": step},
                   trust="supp(u_k) lies in [-K - k*step, K - k*step], so at "
                         "most floor(2K/step)+1 translates meet any point and "
                         "any J >= floor(2K/step)+2 indices force v_J = 0; "
                         + _TRUST_NOTE)


def _try_norm_limit_null(family, policy):
    for cert in family.certificates_of(NormLimit):
        if cert.limit == 0:
            norms = {k: family.term(k).ess_sup_norm()
                     for k in (1, 2, CERT_BUDGET)}
            return Verdict(family.name, NULL, scheme="norm-limit",
                           evidence={"limit": Fraction(0),
                                     "norm_samples": {k: str(v) for k, v in norms.items()}},
                           trust="strong convergence: v_J <= |u_kJ| so every "
                                 "subsequence inherits the vanishing norms; "
                                 + _TRUST_NOTE)
    return None


def _checked_kernel_witness(family, cert, policy):
    """The kernel witness of the certificate, with the measure of the
    J-fold superlevel intersection at its alpha in each row J <= min(j_max,
    12); raises `EngineError` where the kernel's measure exceeds it."""
    checked = dict(_walk(family, list(range(1, min(policy.j_max, 12) + 1)),
                         cert.alpha, _CallStore()))
    wit = kernel_witness(cert.alpha, 0, cert.kernel, policy.j_max)
    for row in wit.table:
        if row["J"] in checked:
            inter = row["intersection_measure"] = checked[row["J"]]
            if inter != POS_INF and inter < row["kernel_measure"]:
                raise EngineError("kernel exceeds the intersection it certifies")
    return wit


def _try_kernel_witness(family, policy):
    certs = family.certificates_of(SuperlevelKernel)
    if not certs:
        return None
    wit = _checked_kernel_witness(family, certs[0], policy)
    return Verdict(family.name, NONNULL, scheme="superlevel-kernel", witness=wit,
                   evidence={"alpha": wit.alpha},
                   trust="kernel(k_J) is nested inside every A_alpha(u_kj), "
                         "j <= J, with positive measure, so no J nullifies "
                         "the intersection; " + _TRUST_NOTE)


def _try_monotone_nonnull(family, policy):
    monotone = family.certificates_of(MonotoneEnvelope)
    limits = [c for c in family.certificates_of(NormLimit) if c.limit > 0]
    if not monotone or not limits:
        return None
    cert = limits[0]
    alpha = cert.limit / 2
    wit = kernel_witness(alpha, 0, lambda k: family.term(k).superlevel(alpha),
                         policy.j_max)
    if any(row["kernel_measure"] == 0 for row in wit.table):
        raise EngineError("monotone family with positive norm limit has a "
                          "null superlevel set; certificates inconsistent")
    return Verdict(family.name, NONNULL, scheme="monotone-norm-floor", witness=wit,
                   evidence={"limit": cert.limit, "alpha": alpha},
                   trust="|u_k| is non-increasing, so the J-fold intersection "
                         "equals A_alpha(u_kJ), which keeps positive measure "
                         "since ||u_k|| -> " + str(cert.limit) + "; "
                         + _TRUST_NOTE)


def _floor_witness(family, cert: PointFloor, policy) -> NormFloorWitness:
    """The floors of the certificate for J <= min(j_max, 5), each certified
    by one enclosure of |u_kj(x_J)| per j <= J (`witness_lower_bound`);
    raises `EngineError` where one is not certified."""
    chain, points = cert.points(min(policy.j_max, 5))
    rows = []
    for J, x in enumerate(points, start=1):
        wb = witness_lower_bound(family, chain, J, x, cert.delta)
        if not wb.certified:
            raise EngineError(f"norm floor not certified at J={J}: {wb.status}")
        rows.append({"J": J, "indices": chain[:J], "point": str(x), "floor": cert.delta,
                     "enclosure_los": [e.lo for e in wb.enclosures]})
    return NormFloorWitness(chain, cert.delta, rows)


def _try_point_floor(family, policy):
    """Non-null along the `PointFloor` chain, where v_J keeps the floor at
    x_J for every J."""
    certs = family.certificates_of(PointFloor)
    if not certs:
        return None
    wit = _floor_witness(family, certs[0], policy)
    return Verdict(family.name, NONNULL, scheme="divisibility-point-witness", witness=wit,
                   evidence={"delta": wit.delta, "subsequence": wit.subsequence},
                   trust=f"norm floors certified for J <= {len(wit.rows)}; the "
                         f"nested midpoint construction extends to every J, and "
                         f"any other subsequence carries a prime-power witness "
                         f"instead (declared)")


# Tried in order by `_certified_verdict`; the first verdict wins.  All but
# eventual-constant can only certify nullity.
_LEADING_SCHEMES = (_try_eventual_constant, _try_summable_disjoint,
                    _try_disjoint_supports, _try_escape_bound,
                    _try_norm_limit_null)

# Schemes that can only certify non-nullity, tried in order after
# `_LEADING_SCHEMES`; a null verdict is checked against each of them.
_NONNULL_SCHEMES = (_try_kernel_witness, _try_monotone_nonnull, _try_point_floor)


def _inconclusive(family, policy):
    return Verdict(family.name, INCONCLUSIVE, scheme=None,
                   evidence={"table": _evidence_table(
                       family, policy, _spot_alphas(family, policy), _CallStore())},
                   trust="no certificate scheme applied; the table shows exact "
                         "measures for the tested (alpha, subsequence, J) cells "
                         "only and decides nothing beyond them")


def _evidence_table(family, policy, alphas, store, window=None):
    """The exact evidence table over the (alpha, subsequence, J) cells.

    The cells are every alpha of `alphas` (`_spot_alphas`), every strategy
    (indices up to k_max) and every extra subsequence, with J <= j_max; a
    row ends at its first null intersection.  Each subsequence is walked
    once per alpha (see `_walk`), so every cell extends the previous cell's
    intersection by one set, and v_J and both level sets come from the
    store; the criterion identity (sets against v_J) is still checked on
    every cell.  With a window every cell is measured inside it: the
    localized table is this one, per window.
    """
    strategies = []
    for name, strat in policy.strategies:
        subseq = []
        for j in range(1, policy.j_max + 1):
            k = strat(j)
            if k > policy.k_max:
                break
            subseq.append(k)
        strategies.append((name, subseq))
    rows = [(name, subseq, alpha) for alpha in alphas
            for name, subseq in strategies]
    rows += [(str(subseq), subseq, alpha)
             for subseq in policy.extra_subsequences for alpha in alphas]
    table = []
    for label, subseq, alpha in rows:
        for J, m in islice(_walk(family, subseq, alpha, store, window),
                           policy.j_max):
            table.append({"alpha": alpha, "subsequence": label, "J": J,
                          "measure": m})
            if m == 0:
                break
    return table


# ---------------------------------------------------------------------------
# point enclosures


@dataclass
class WitnessBound:
    status: str  # "certified" | "refuted" | "inconclusive"
    delta: Fraction
    enclosures: list[RatInterval]

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def witness_lower_bound(family: SequenceFamily, subseq: Sequence[int], J: int,
                        x: WitnessPoint, delta) -> WitnessBound:
    """Certify ||v_J|| >= delta by rigorous point enclosures |u_kj(x)| >= delta.

    Sound by construction: certification uses enclosure lower ends only, and
    an enclosure too wide to decide yields 'inconclusive', never a false
    certificate.
    """
    delta = rat(delta)
    _check_subseq(subseq, J)
    if family.has_piecewise_terms():
        raise EngineError("witness_lower_bound needs point-enclosure terms")
    if not family.point_in_domain(x):
        raise EngineError(f"witness point {x} lies outside the domain")
    enclosures = []
    status = "certified"
    for k in subseq[:J]:
        handle = family.term(k)
        if not handle.continuous_at(x):
            raise EngineError(f"u_{k} is not declared continuous at {x}")
        enc = handle.enclose(x, Fraction(1, 10 ** 9)).abs()
        enclosures.append(enc)
        if enc.lo >= delta:
            continue
        status = "refuted" if enc.hi < delta else "inconclusive"
        break
    return WitnessBound(status, delta, enclosures)

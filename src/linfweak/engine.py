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

A verdict rule is rule(family, x0, policy) -> Verdict | None, at a point
x0 of the one-point compactification, or on the whole carrier when x0 is
None.  Rules read only what a family declares (its certificates,
`eventual_tail` and `tail_ray`), never its class, and one rule reads each
declaration that both scopes use.  One walk, `_first`, tries rules in order
and the first verdict wins; given rivals, it checks a null verdict against
them, and a family on which a rival also gives a verdict is rejected as
inconsistent.  Both entry points first check the norm bound and every
certificate for k <= `CERT_BUDGET` (`_checked_reports`), whatever k_max is.

The global walk (`test_weak_null`) is `_LEADING` then `_NONNULL`, a null
verdict checked against `_NONNULL`:
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
The last three certify non-nullity only.

The local walk (`_LOCAL`, for `localize.test_weak_null_at`) reads exact
limit values at x0.  Kernels inside the superlevel sets that keep positive
measure in every neighborhood of x0 refute nullity there; a bound on |u_k|
for every k >= k0 with no positive limit value at x0 certifies it, with k0
<= k_max where k0 is searched:
  global-<scheme>        the `_LEADING` walk, with its check, finds the
                         family null; restricting terms to a window only
                         shrinks every superlevel intersection
  local-eventual-constant  the eventual tail f at x0: the kernel A_{t/2}(f)
                         when |f| has a limit value t > 0 there, else null
  local-translate-tail   at inf, the ray the family declares (`tail_ray`)
  local-superlevel-kernel  the kernels of a `SuperlevelKernel` whose
                         `accumulation` is x0
  local-lower-envelope   the kernel A_{t/2}(f) of a `LowerEnvelope` floor f
                         with a limit value t > 0 at x0
  local-point-floor      the floor points of a `PointFloor`, which
                         accumulate at 0 and, through 0, at inf
  local-support-envelope  a `SupportEnvelope` whose envelope(k0) no longer
                         accumulates at x0
  local-monotone-vanishing  |u_k0| of a `MonotoneEnvelope` family
  local-decay-envelope   a `DecayEnvelope`, at a finite x0 > 0:
                         |u_k| <= 2/(k x0) on (x0/2, 3 x0/2)
A point never builds the global non-null witnesses or the global evidence
table, which say nothing about it.  The kernel witness's check that no
kernel exceeds the intersection it certifies follows from the certificate
check (`CERT_BUDGET`), so a wrong kernel raises at a point as it does
globally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Callable, Optional, Sequence, Union

from .enclosure import RatInterval
from .families import (CertificateError, CertReport, DecayEnvelope, DisjointLayers,
                       DisjointSupports, EscapeBound, LowerEnvelope,
                       MonotoneEnvelope, NormLimit, PointFloor, SequenceFamily,
                       SuperlevelKernel, SupportEnvelope, verify_certificate,
                       verify_norm_bound)
from .piecewise import PiecewiseFn, min_of
from .points import (ExtPoint, WitnessPoint, _limit_values, accumulates_at,
                     escape_points)
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
    reports = _checked_reports(family, policy)
    verdict = (_first(_LEADING + _NONNULL, family, None, policy, rivals=_NONNULL)
               or _inconclusive(family, policy))
    verdict.cert_reports = reports
    return verdict


test_weak_null.__test__ = False  # not a pytest case


def _checked_reports(family: SequenceFamily, policy: Policy) -> list[CertReport]:
    """The certificate reports, after checking the norm bound and every
    certificate; a failure raises `CertificateError`."""
    nb = verify_norm_bound(family, CERT_BUDGET)
    if not nb.passed:
        raise CertificateError(f"norm bound check failed: {nb.detail}",
                               k=nb.counterexample_k, witness=nb.witness)
    reports = [verify_certificate(family, c, CERT_BUDGET)
               for c in family.certificates]
    for rep in reports:
        if not rep.passed:
            raise CertificateError(
                f"certificate {rep.certificate} failed: {rep.detail}",
                k=rep.counterexample_k, witness=rep.witness)
    return reports


def _first(rules, family, x0, policy, rivals=()) -> Optional[Verdict]:
    """The first verdict of the rules at x0, or None; a rival that also
    gives a verdict where the rules give a null one raises `EngineError`."""
    verdict = next(filter(None, (rule(family, x0, policy) for rule in rules)), None)
    if verdict is not None and verdict.is_null:
        refuted = _first(rivals, family, x0, policy)
        if refuted is not None:
            raise EngineError(
                f"inconsistent family {family.name}: scheme {verdict.scheme} "
                f"certifies nullity but {refuted.scheme} certifies non-nullity")
    return verdict


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


def _top_limit(u: PiecewiseFn, x0: ExtPoint) -> Fraction:
    """The largest limit value of |u| at x0 (0 when there is none)."""
    return max(map(abs, _limit_values(u, x0)), default=Fraction(0))


def _local_kernel(family, x0, policy, scheme, alpha, k0, kernel, why,
                  evidence=None) -> Verdict:
    """Non-null at x0: kernel(k) lies in A_alpha(u_j) for k0 < j <= k and
    keeps positive measure in every neighborhood of x0."""
    wit = kernel_witness(alpha, k0, kernel, policy.j_max)
    return Verdict(family.name, NONNULL, scheme=scheme, witness=wit,
                   evidence={"x0": str(x0), **(evidence or {}), "alpha": alpha},
                   trust="kernel(k_J) lies in A_alpha(u_kj) for every "
                         "j <= J and has positive measure in every "
                         "neighborhood of the point, so no finite "
                         "superlevel intersection restricted to one is "
                         "null; " + why)


def _constant_kernel(family, x0, policy, scheme, floors, k0, why) -> Optional[Verdict]:
    """`_local_kernel` with the kernel A_{t/2}(f) of the first lower bound
    f of |u_k| among floors with a largest limit value t > 0 of |f| at x0;
    None when there is none."""
    for floor in floors:
        top = _top_limit(floor, x0)
        if top > 0:
            kset = floor.superlevel(top / 2)
            return _local_kernel(family, x0, policy, scheme, top / 2, k0, lambda k: kset,
                                 f"the constant kernel A_alpha(f), where |f| has the "
                                 f"limit value {top} = 2 alpha at the point; {why}")
    return None


def _local_vanishing(family, x0, scheme, k0s, bound) -> Optional[Verdict]:
    """Null at x0 from the first k0 of k0s on, at which a bound on |u_k|
    for every k >= k0 has no positive limit value at x0; None when k0s is
    empty."""
    k0 = next(iter(k0s), None)
    if k0 is None:
        return None
    return Verdict(family.name, NULL, scheme=scheme,
                   evidence={"x0": str(x0), "vanishing_from": k0},
                   trust=f"the bound has no positive limit value at the point, so "
                         f"from k = {k0} on every superlevel set of the terms is "
                         f"null on some neighborhood of it; " + bound.format(k0=k0))


def _eventual_tail(family, x0, policy):
    found = family.eventual_tail(x0)
    if found is None:
        return None
    k0, tail = found
    if x0 is not None:
        return (_constant_kernel(family, x0, policy, "local-eventual-constant", [tail], k0,
                                 f"u_k equals the tail f near the point for k >= {k0}; exact")
                or _local_vanishing(family, x0, "local-eventual-constant", [k0],
                                    "u_k equals the tail near the point for k >= {k0}; exact"))
    top = tail.ess_sup_norm()
    if top == 0:
        return Verdict(family.name, NULL, scheme="eventual-constant",
                       evidence={"tail_norm": top, "list_length": k0},
                       trust="exact: the repeated tail term vanishes a.e.")
    kernel_set = tail.superlevel(top / 2)
    wit = kernel_witness(top / 2, k0, lambda k: kernel_set, policy.j_max)
    return Verdict(family.name, NONNULL, scheme="eventual-constant", witness=wit,
                   evidence={"tail_norm": top},
                   trust="exact: along the repeated tail every intersection "
                         "equals a fixed positive-measure superlevel set")


def _summable_disjoint(family, x0, policy):
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


def _disjoint_supports(family, x0, policy):
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


def _escape_bound(family, x0, policy):
    """v_J = 0 along the identity is checked at J_bound when J_bound <=
    j_max + 4; otherwise the row and the trust say that it was skipped."""
    certs = family.certificates_of(EscapeBound)
    if not certs:
        return None
    cert = certs[0]
    w, step = rat(cert.width), rat(cert.step)
    j_bound = math.floor(2 * w / step) + 2
    row = {"window": w, "J_bound": j_bound}
    trust = ("supp(u_k) lies in [-K - k*step, K - k*step], so at most "
             "floor(2K/step)+1 translates meet any point and any "
             "J >= floor(2K/step)+2 indices force v_J = 0; ")
    if j_bound <= policy.j_max + 4:
        *_, (_, vj) = _prefix_minima(family, range(1, j_bound + 1), {})
        row["identity_norm"] = vj.ess_sup_norm()
        if row["identity_norm"] != 0:
            raise EngineError("escape counting bound violated on identity")
    else:
        row["identity_check"] = f"skipped: J_bound > budget-j + 4 = {policy.j_max + 4}"
        trust += f"v_J = 0 along the identity was {row['identity_check']}; "
    return Verdict(family.name, NULL, scheme="escape-bound",
                   evidence={"table": [row], "step": step}, trust=trust + _TRUST_NOTE)


def _norm_limit(family, x0, policy):
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
    wit = kernel_witness(cert.alpha, 0, cert.kernel_at, policy.j_max)
    for row in wit.table:
        if row["J"] in checked:
            inter = row["intersection_measure"] = checked[row["J"]]
            if inter != POS_INF and inter < row["kernel_measure"]:
                raise EngineError("kernel exceeds the intersection it certifies")
    return wit


def _superlevel_kernel(family, x0, policy):
    cert = next((c for c in family.certificates_of(SuperlevelKernel)
                 if x0 is None or c.accumulation == x0), None)
    if cert is None:
        return None
    if x0 is not None:
        return _local_kernel(family, x0, policy, "local-superlevel-kernel", cert.alpha,
                             0, cert.kernel_at, "the kernels, their nesting and their "
                             "accumulation at the point verified up to the "
                             "certificate budget and trusted beyond")
    wit = _checked_kernel_witness(family, cert, policy)
    return Verdict(family.name, NONNULL, scheme="superlevel-kernel", witness=wit,
                   evidence={"alpha": wit.alpha},
                   trust="kernel(k_J) is nested inside every A_alpha(u_kj), "
                         "j <= J, with positive measure, so no J nullifies "
                         "the intersection; " + _TRUST_NOTE)


def _monotone_envelope(family, x0, policy):
    if not family.certificates_of(MonotoneEnvelope):
        return None
    if x0 is not None:
        return _local_vanishing(
            family, x0, "local-monotone-vanishing",
            (k for k in range(1, policy.k_max + 1) if _top_limit(family.term(k), x0) == 0),
            "|u_k| <= |u_{k0}| for k >= {k0}; exact given the monotone certificate")
    limits = [c for c in family.certificates_of(NormLimit) if c.limit > 0]
    if not limits:
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


def _point_floor(family, x0, policy):
    """The floors for J <= min(j_max, 5) of the first `PointFloor`, each
    certified by one enclosure of |u_kj(x_J)| per j <= J
    (`witness_lower_bound`); one that is not raises `EngineError`."""
    certs = family.certificates_of(PointFloor)
    # the x_J tend to 0, so they accumulate there and, through 0, at inf
    if not certs or (x0 is not None and not (
            0 in escape_points(family.domain.carrier)[0] if x0.is_infinite
            else x0.x == 0)):
        return None
    cert = certs[0]
    chain, points = cert.points(min(policy.j_max, 5))
    rows = []
    for J, x in enumerate(points, start=1):
        wb = witness_lower_bound(family, chain, J, x, cert.delta)
        if not wb.certified:
            raise EngineError(f"norm floor not certified at J={J}: {wb.status}")
        rows.append({"J": J, "indices": chain[:J], "point": str(x), "floor": cert.delta,
                     "enclosure_los": [e.lo for e in wb.enclosures]})
    wit = NormFloorWitness(chain, cert.delta, rows)
    if x0 is None:
        return Verdict(family.name, NONNULL, scheme="divisibility-point-witness",
                       witness=wit,
                       evidence={"delta": wit.delta, "subsequence": wit.subsequence},
                       trust=f"norm floors certified for J <= {len(wit.rows)}; the "
                             f"nested midpoint construction extends to every J, and "
                             f"any other subsequence carries a prime-power witness "
                             f"instead (declared)")
    return Verdict(family.name, NONNULL, scheme="local-point-floor",
                   witness=wit, evidence={"x0": str(x0), "delta": wit.delta},
                   trust="every neighborhood W of the point holds x_J for "
                         "J >= some J0; for alpha < delta, continuity at x_J "
                         "gives the J-fold superlevel intersection positive "
                         "measure in W, and for J < J0 it holds the J0-fold one; "
                         f"norm floors certified for J <= {len(wit.rows)}; "
                         "the nested midpoint construction extends to "
                         "every J (declared)")


def _global_null(family, x0, policy):
    verdict = _first(_LEADING, family, None, policy, rivals=_NONNULL)
    if verdict is None or not verdict.is_null:
        return None
    return Verdict(family.name, NULL, scheme="global-" + verdict.scheme,
                   evidence={"x0": str(x0), "from_global": True},
                   trust="globally null, hence null at every point: restricting "
                         "terms to a window only shrinks every superlevel "
                         "intersection; " + verdict.trust)


def _translate_tail(family, x0, policy):
    ray = family.tail_ray() if x0.is_infinite else None
    if ray is None:
        return None
    alpha, kernel, limits = ray
    return _local_kernel(family, x0, policy, "local-translate-tail", alpha, 0, kernel,
                         "the profile keeps |value| > alpha on an unbounded ray, which "
                         "has infinite measure in every neighborhood of infinity; exact",
                         {"tail_limits": tuple(map(str, limits))})


def _lower_envelope(family, x0, policy):
    return _constant_kernel(family, x0, policy, "local-lower-envelope",
                            [c.floor for c in family.certificates_of(LowerEnvelope)], 0,
                            "|u_k| >= |f| verified up to the certificate budget and "
                            "trusted beyond")


def _support_envelope(family, x0, policy):
    carrier = family.domain.carrier
    return _local_vanishing(family, x0, "local-support-envelope",
                            (k for c in family.certificates_of(SupportEnvelope)
                             for k in range(1, policy.k_max + 1)
                             if not accumulates_at(c.envelope_at(k), x0, carrier)),
                            "supp(u_k) lies in the nested envelope({k0}) for k >= {k0}; "
                            "envelope verified up to the certificate budget")


def _decay_envelope(family, x0, policy):
    if not family.certificates_of(DecayEnvelope) or x0.is_infinite or x0.x <= 0:
        return None
    a = x0.x / 2
    return Verdict(family.name, NULL, scheme="local-decay-envelope",
                   evidence={"x0": str(x0), "window": f"({a},{3 * a})",
                             "norm_envelope": f"1/(k*{a})"},
                   trust=f"|u_k(x)| <= 1/(kx) <= 1/({a} k) on the window, "
                         f"a declared strong-convergence envelope")


# The two walks of the module docstring.
_LEADING = (_eventual_tail, _summable_disjoint, _disjoint_supports, _escape_bound,
            _norm_limit)
_NONNULL = (_superlevel_kernel, _monotone_envelope, _point_floor)
_LOCAL = (_global_null, _eventual_tail, _translate_tail, _superlevel_kernel,
          _lower_envelope, _point_floor, _support_envelope, _monotone_envelope,
          _decay_envelope)


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

"""Localized weak-nullity tests and pointwise essential ranges.

Localization works on the one-point compactification X_inf = X u {inf}: a
sequence is weakly null at x0 iff the superlevel-set criterion holds with
every term restricted to each (small enough) neighborhood of x0.  The
canonical neighborhood base is balls (x0 - 1/l, x0 + 1/l) n X for finite x0
and complements of an exhausting family of compacts for the point at
infinity.  The criterion is monotone in the neighborhood (smaller windows
only weaken it), so exact limits at x0 decide the localized verdict, by two
rules.  Nested kernels inside the superlevel sets with positive measure in
every neighborhood of x0 make the family non-null there: the tail ray that
a family declares at infinity (`SequenceFamily.tail_ray`), the kernels of a
certificate that accumulate at x0, or the constant kernel A_{t/2}(f) of an
eventual tail or lower bound f of |u_k| with a positive limit value t at
x0; so do the floor points of a `PointFloor` that accumulate at x0.  An
upper bound valid for every k >= k0 with no positive limit value at x0
makes it null, and so does a `DecayEnvelope` at a finite x0 > 0.  Neither
rule depends on `ell_max`, which bounds only the evidence table.

When no local scheme applies, the evidence table is the engine's global
table (`engine._evidence_table`, same alphas, subsequences and J) run inside
each of the first `ell_max` canonical neighborhoods, with the criterion
identity checked on every cell.

Finite points are allowed anywhere in the closure of the carrier: localizing
at a boundary point not in X means localizing along that single escape
route, which is strictly finer than the point at infinity (the latter glues
all escape routes together).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .engine import (INCONCLUSIVE, NONNULL, NULL, EngineError, Policy, Verdict,
                     _CallStore, _certified_verdict, _evidence_table,
                     _floor_witness, _spot_alphas, kernel_witness)
from .families import (DecayEnvelope, LowerEnvelope, MonotoneEnvelope, PointFloor,
                       SequenceFamily, SuperlevelKernel, SupportEnvelope)
from .piecewise import PiecewiseFn
from .points import ExtPoint, accumulates_at, escape_points
from .sets import Domain, IntervalSet, closed, opened, point

__all__ = ["ExtPoint", "neighborhood", "compact_exhaustion", "escape_points",
           "accumulates_at", "in_closure", "essential_range", "essential_range_in",
           "essential_range_at", "test_weak_null_at"]


def compact_exhaustion(carrier: IntervalSet, ell: int) -> IntervalSet:
    """The l-th member of an increasing family of compacts exhausting the
    carrier: open finite endpoints move inward by 1/l, unbounded ends are
    cut at +-l.  Closed endpoints belong to the space and stay."""
    if ell < 1:
        raise ValueError("ell >= 1")
    return carrier.compact_core(Fraction(1, ell), ell)


def neighborhood(domain: Domain, x0: ExtPoint, ell: int) -> IntervalSet:
    """The l-th canonical neighborhood of x0 inside the carrier."""
    if ell < 1:
        raise ValueError("ell >= 1")
    carrier = domain.carrier
    if x0.is_infinite:
        return carrier.difference(compact_exhaustion(carrier, ell))
    r = Fraction(1, ell)
    ball = IntervalSet.of(opened(x0.x - r, x0.x + r))
    return carrier.intersect(ball)


def in_closure(domain: Domain, x0: ExtPoint) -> bool:
    """Is x0 a point of the closure of the carrier in X_inf?  The point at
    infinity always is."""
    return x0.is_infinite or domain.carrier.closure().contains(x0.x)


def _validate_point(domain: Domain, x0: ExtPoint):
    if not in_closure(domain, x0):
        raise EngineError(f"{x0} is not in the closure of the domain")


# ---------------------------------------------------------------------------
# essential ranges


def essential_range(u: PiecewiseFn) -> IntervalSet:
    """R(u): all values attained with positive measure in every epsilon-band;
    for piecewise-linear u this is the union of the closed value intervals
    swept by pieces of positive length."""
    out = []
    for p in u.pieces:
        if p.is_null():
            continue
        lo_v, hi_v = p.closure_values()
        out.append(closed(lo_v, hi_v))
    return IntervalSet.of(*out)


def essential_range_in(u: PiecewiseFn, window: IntervalSet) -> IntervalSet:
    """Essential range of the restriction of u to a window."""
    return essential_range(u.restrict(window))


def essential_range_at(u: PiecewiseFn, x0: ExtPoint) -> IntervalSet:
    """R(u)(x0): values approached with positive measure inside every
    neighborhood of x0.  The per-neighborhood ranges stabilize: only pieces
    whose closure reaches x0 (through the carrier's escape routes, for the
    point at infinity) contribute, each with its limit value there."""
    _validate_point(u.domain, x0)
    return IntervalSet.of(*[point(v) for v in _limit_values(u, x0)])


def _limit_values(u: PiecewiseFn, x0: ExtPoint):
    """The limit value at x0 of each non-null piece whose closure reaches it."""
    pts = escape_points(u.domain.carrier)[0] if x0.is_infinite else [x0.x]
    for p in u.pieces:
        if p.is_null():
            continue
        iv = p.interval
        if x0.is_infinite and not iv.is_bounded():
            yield p.intercept  # unbounded pieces have slope 0
        yield from (p.value(q) for q in pts if iv.lo <= q <= iv.hi)


# ---------------------------------------------------------------------------
# localized verdicts


def test_weak_null_at(family: SequenceFamily, x0: ExtPoint,
                      policy: Optional[Policy] = None, ell_max: int = 6) -> Verdict:
    """Weak nullity of the family at a point of the one-point compactification.

    Restricting the terms to a neighborhood of x0 only shrinks every
    superlevel intersection, so the one global fact a localized verdict can
    use is "globally null": then the family is null at every point.  A
    question therefore runs the part of the global verdict that can find
    that (`engine._certified_verdict`): the norm bound and every certificate
    are checked exactly as for the global verdict, a failure raises, and a
    null verdict is still checked against the non-null schemes.  It skips
    what could only decide a global non-null or inconclusive verdict, which
    says nothing about x0: the global kernel and monotone-floor witnesses
    and the global evidence table.  The kernel witness's check that no
    kernel exceeds the superlevel intersection it certifies follows from the
    certificate check (see `engine.CERT_BUDGET`), so a wrong kernel raises
    here whenever it raises globally.  Otherwise the two local rules are
    tried in `_LOCAL_SCHEMES` order and the first verdict wins: the kernel
    witnesses, then the vanishing upper bounds.  Both read the family's
    eventual tail at x0 (`_tail_at`), built once per call.  ell_max (at
    least 1) bounds only the evidence table that answers when neither rule
    does: it is the number of canonical neighborhoods the table looks at,
    and no certified verdict depends on it.  Whichever rule answers, the
    verdict carries the reports of the certificate checks, as the global
    verdict does.
    """
    if ell_max < 1:
        raise EngineError(f"ell_max must be at least 1, got {ell_max}")
    policy = policy or Policy()
    _validate_point(family.domain, x0)
    global_verdict, reports = _certified_verdict(family, policy)
    if global_verdict is not None and global_verdict.is_null:
        return Verdict(family.name, NULL, scheme="global-" + global_verdict.scheme,
                       evidence={"x0": str(x0), "from_global": True},
                       trust="globally null, hence null at every point: restricting "
                             "terms to a window only shrinks every superlevel "
                             "intersection; " + global_verdict.trust,
                       cert_reports=reports)

    tail = _tail_at(family, x0)
    for scheme in _LOCAL_SCHEMES:
        verdict = scheme(family, x0, policy, tail)
        if verdict is not None:
            break
    else:
        verdict = _local_inconclusive(family, x0, policy, ell_max)
    verdict.cert_reports = reports
    return verdict


test_weak_null_at.__test__ = False  # not a pytest case


def _top_limit(u: PiecewiseFn, x0: ExtPoint) -> Fraction:
    """The largest limit value of |u| at x0 (0 when there is none)."""
    return max(map(abs, _limit_values(u, x0)), default=Fraction(0))


def _tail_at(family, x0):
    """(k0, f, t) when u_k = f near x0 for every k >= k0
    (`SequenceFamily.eventual_tail`), with t the largest limit value of |f|
    at x0; None when the family gives no tail there."""
    found = family.eventual_tail(x0)
    if found is None:
        return None
    k0, f = found
    return k0, f, _top_limit(f, x0)


def _kernels(family, x0, tail):
    """The kernel witnesses at x0, in the order they are tried, each as
    (scheme, alpha, k0, kernel, evidence, why): kernel(k) lies in
    A_alpha(u_j) for k0 < j <= k and keeps positive measure in every
    neighborhood of x0."""
    ray = family.tail_ray() if x0.is_infinite else None
    if ray is not None:
        alpha, kernel, limits = ray
        yield ("local-translate-tail", alpha, 0, kernel,
               {"tail_limits": tuple(map(str, limits))},
               "the profile keeps |value| > alpha on an unbounded ray, which "
               "has infinite measure in every neighborhood of infinity; exact")
    for cert in family.certificates_of(SuperlevelKernel):
        if cert.accumulation == x0:
            yield ("local-superlevel-kernel", cert.alpha, 0, cert.kernel, {},
                   "the kernels, their nesting and their accumulation at the "
                   "point verified up to the certificate budget and trusted "
                   "beyond")
    floors = [] if tail is None else [
        (*tail, "local-eventual-constant",
         f"u_k equals the tail f near the point for k >= {tail[0]}; exact")]
    floors += [(0, c.floor, _top_limit(c.floor, x0), "local-lower-envelope",
                "|u_k| >= |f| verified up to the certificate budget and "
                "trusted beyond") for c in family.certificates_of(LowerEnvelope)]
    for k0, floor, top, scheme, why in floors:
        if top > 0:
            kset = floor.superlevel(top / 2)
            yield (scheme, top / 2, k0, lambda k, _s=kset: _s, {},
                   f"the constant kernel A_alpha(f), where |f| has the limit "
                   f"value {top} = 2 alpha at the point; {why}")


def _local_kernel(family, x0, policy, tail):
    """Non-null where nested kernels inside the superlevel sets keep
    positive measure in every neighborhood of x0 (`_kernels`): then no
    finite superlevel intersection restricted to a neighborhood is null."""
    for scheme, alpha, k0, kernel, evidence, why in _kernels(family, x0, tail):
        wit = kernel_witness(alpha, k0, kernel, policy.j_max)
        return Verdict(family.name, NONNULL, scheme=scheme, witness=wit,
                       evidence={"x0": str(x0), **evidence, "alpha": alpha},
                       trust="kernel(k_J) lies in A_alpha(u_kj) for every "
                             "j <= J and has positive measure in every "
                             "neighborhood of the point, so no finite "
                             "superlevel intersection restricted to one is "
                             "null; " + why)
    for cert in family.certificates_of(PointFloor):
        # the x_J tend to 0, so they accumulate there and, through 0, at inf
        if (0 in escape_points(family.domain.carrier)[0] if x0.is_infinite
                else x0.x == 0):
            wit = _floor_witness(family, cert, policy)
            return Verdict(family.name, NONNULL, scheme="local-point-floor",
                           witness=wit, evidence={"x0": str(x0), "delta": wit.delta},
                           trust="every neighborhood W of the point holds x_J for "
                                 "J >= some J0; for alpha < delta, continuity at x_J "
                                 "gives the J-fold superlevel intersection positive "
                                 "measure in W, and for J < J0 it holds the J0-fold one; "
                                 f"norm floors certified for J <= {len(wit.rows)}; "
                                 "the nested midpoint construction extends to "
                                 "every J (declared)")
    return None


def _local_vanishing(family, x0, policy, tail):
    """Null from the first index k0 <= k_max at which a bound on |u_k|, valid
    for every k >= k0, has no positive limit value at x0: the terms then stay
    below every alpha on some neighborhood of x0 from k0 on.  So does a
    `DecayEnvelope` at a finite x0 > 0: |u_k| <= 2/(k x0) on (x0/2, 3 x0/2)."""
    carrier, ks = family.domain.carrier, range(1, policy.k_max + 1)
    bounds = []  # (scheme, candidate k0s, vanishes at x0, the bound)
    if tail is not None:
        bounds.append(("local-eventual-constant", [tail[0]], lambda k: tail[2] == 0,
                       "u_k equals the tail near the point for k >= {k0}; exact"))
    bounds += [("local-support-envelope", ks,
                lambda k, c=c: not accumulates_at(c.envelope(k), x0, carrier),
                "supp(u_k) lies in the nested envelope({k0}) for k >= {k0}; "
                "envelope verified up to the certificate budget")
               for c in family.certificates_of(SupportEnvelope)]
    if family.certificates_of(MonotoneEnvelope):
        bounds.append(("local-monotone-vanishing", ks,
                       lambda k: _top_limit(family.term(k), x0) == 0,
                       "|u_k| <= |u_{k0}| for k >= {k0}; exact given the "
                       "monotone certificate"))
    for scheme, candidates, vanishes, bound in bounds:
        k0 = next((k for k in candidates if vanishes(k)), None)
        if k0 is not None:
            return Verdict(family.name, NULL, scheme=scheme,
                           evidence={"x0": str(x0), "vanishing_from": k0},
                           trust=f"the bound has no positive limit value at "
                                 f"the point, so from k = {k0} on every "
                                 f"superlevel set of the terms is null on some "
                                 f"neighborhood of it; " + bound.format(k0=k0))
    if family.certificates_of(DecayEnvelope) and not x0.is_infinite and x0.x > 0:
        a = x0.x / 2
        return Verdict(family.name, NULL, scheme="local-decay-envelope",
                       evidence={"x0": str(x0), "window": f"({a},{3 * a})",
                                 "norm_envelope": f"1/(k*{a})"},
                       trust=f"|u_k(x)| <= 1/(kx) <= 1/({a} k) on the window, "
                             f"a declared strong-convergence envelope")
    return None


# Tried in order after the global null check; the first verdict wins.
_LOCAL_SCHEMES = (_local_kernel, _local_vanishing)


def _local_inconclusive(family, x0, policy, ell_max):
    """The global evidence table inside each non-empty canonical
    neighborhood, its rows tagged with ell.  The alphas, v_J and the level
    sets are shared by every window through one store."""
    rows = []
    alphas = _spot_alphas(family, policy)
    store = _CallStore()
    for ell in range(1, ell_max + 1):
        w = neighborhood(family.domain, x0, ell)
        if not w.is_empty():
            rows += [{"ell": ell, **row}
                     for row in _evidence_table(family, policy, alphas, store, w)]
    return Verdict(family.name, INCONCLUSIVE, evidence={"x0": str(x0), "table": rows},
                   trust="no local scheme applied; exact restricted measures "
                         "for the tested cells only")

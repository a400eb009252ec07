"""Localized weak-nullity tests and pointwise essential ranges.

Localization works on the one-point compactification X_inf = X u {inf}: a
sequence is weakly null at x0 iff the superlevel-set criterion holds with
every term restricted to each (small enough) neighborhood of x0.  The
canonical neighborhood base is balls (x0 - 1/l, x0 + 1/l) n X for finite x0
and complements of an exhausting family of compacts for the point at
infinity.  The criterion is monotone in the neighborhood (smaller windows
only weaken it), so exact limits at x0 decide the localized verdict: a lower
bound on |u_k| with a positive limit value t at x0 makes the family non-null
there, with the constant kernel A_{t/2}(floor) as witness, and an upper
bound valid for every k >= k0 with no positive limit value there makes it
null.  No null verdict depends on `ell_max`.

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

import math
from fractions import Fraction
from typing import Optional

from .engine import (INCONCLUSIVE, NONNULL, NULL, EngineError, Policy, Verdict,
                     Witness, _CallStore, _evidence_table, _spot_alphas,
                     test_weak_null)
from .families import (ExplicitListFamily, LowerEnvelope, MonotoneEnvelope,
                       SequenceFamily, SuperlevelKernel, SupportEnvelope,
                       TranslateFamily)
from .piecewise import PiecewiseFn
from .points import ExtPoint
from .sets import Domain, IntervalSet, closed, is_finite, opened, point

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


def escape_points(carrier: IntervalSet) -> tuple[list[Fraction], bool, bool]:
    """Finite boundary points not in the carrier, plus flags for escapes to
    -inf / +inf.  These are the routes a set can take toward the point at
    infinity."""
    finite = []
    to_neg = to_pos = False
    for p in carrier.parts:
        if is_finite(p.lo):
            if not p.lo_closed:
                finite.append(p.lo)
        else:
            to_neg = True
        if is_finite(p.hi):
            if not p.hi_closed:
                finite.append(p.hi)
        else:
            to_pos = True
    return sorted(set(finite)), to_neg, to_pos


def accumulates_at(s: IntervalSet, x0: ExtPoint, carrier: IntervalSet) -> bool:
    """Exact test: does s have positive measure in every neighborhood of x0?
    A part of positive length does when its closure reaches x0; the point at
    infinity is reached by an unbounded part or through an escape point of
    the carrier."""
    if not x0.is_infinite:
        return any(not p.is_point() and p.lo <= x0.x <= p.hi for p in s.parts)
    escapes = escape_points(carrier)[0]
    return any(not p.is_point() and
               (not p.is_bounded() or any(p.lo <= q <= p.hi for q in escapes))
               for p in s.parts)


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
    pts = escape_points(u.domain.carrier)[0] if x0.is_infinite else [x0.x]
    vals: list[Fraction] = []
    for p in u.pieces:
        if p.is_null():
            continue
        iv = p.interval
        if x0.is_infinite and not iv.is_bounded():
            vals.append(p.intercept)  # unbounded pieces have slope 0
        vals += [p.value(q) for q in pts if iv.lo <= q <= iv.hi]
    return IntervalSet.of(*[point(v) for v in vals])


# ---------------------------------------------------------------------------
# localized verdicts


def test_weak_null_at(family: SequenceFamily, x0: ExtPoint,
                      policy: Optional[Policy] = None, ell_max: int = 6) -> Verdict:
    """Weak nullity of the family at a point of the one-point compactification.

    Globally null families are null at every point (the restricted criterion
    is weaker).  Otherwise the local schemes are tried in `_LOCAL_SCHEMES`
    order and the first verdict wins: the witnesses first (translate tail
    limits, kernels accumulating at x0, lower bounds with a positive limit
    value at x0), then the vanishing upper bounds.  ell_max (at least 1) is
    the number of canonical neighborhoods the kernel witness and the evidence
    table look at; no null verdict depends on it.
    """
    if ell_max < 1:
        raise EngineError(f"ell_max must be at least 1, got {ell_max}")
    policy = policy or Policy()
    _validate_point(family.domain, x0)
    if family.evaluable:
        return _local_evaluable(family, x0, policy, ell_max)

    global_verdict = test_weak_null(family, policy)
    if global_verdict.is_null:
        v = Verdict(family.name, NULL, scheme="global-" + global_verdict.scheme,
                    evidence={"x0": str(x0), "from_global": True},
                    trust="globally null, hence null at every point: restricting "
                          "terms to a window only shrinks every superlevel "
                          "intersection; " + global_verdict.trust,
                    cert_reports=global_verdict.cert_reports)
        return v

    for scheme in _LOCAL_SCHEMES:
        verdict = scheme(family, x0, policy, ell_max)
        if verdict is not None:
            return verdict
    return _local_inconclusive(family, x0, policy, ell_max)


test_weak_null_at.__test__ = False  # not a pytest case


def _local_translate(family, x0, policy, ell_max):
    if not isinstance(family, TranslateFamily):
        return None
    l_neg, l_pos = family.tail_limits()
    lo_bp, hi_bp = family.breakpoint_span()
    step = family.step
    if x0.is_infinite:
        if l_neg == 0 and l_pos == 0:
            return None  # the global escape scheme should have caught this
        side = l_neg if l_neg != 0 else l_pos
        alpha = abs(side) / 2
        sup = family.profile.superlevel(alpha)
        ray = None
        for p in sup.parts:
            if (l_neg != 0 and not is_finite(p.lo)) or \
               (l_neg == 0 and not is_finite(p.hi)):
                ray = p
        if ray is None:
            return None
        def kernel(k, _ray=ray, _s=step):
            return IntervalSet.of(_ray).shift(-k * _s)
        table = [{"ell": ell, "J": J, "note": "unbounded kernel ray in window"}
                 for ell in range(1, ell_max + 1) for J in (1, policy.j_max)]
        wit = Witness(alpha, "identity", kernel, table)
        return Verdict(family.name, NONNULL, scheme="local-translate-tail",
                       witness=wit,
                       evidence={"x0": str(x0), "tail_limits": (str(l_neg), str(l_pos)),
                                 "alpha": alpha},
                       trust="the profile keeps |value| > alpha on an unbounded "
                             "ray; its translates stay inside every neighborhood "
                             "of infinity with infinite measure, exactly",
                       )
    # finite point: far translates are identically the right tail value on a ball
    x = x0.x
    radius = Fraction(1, 1)
    window = neighborhood(family.domain, x0, 1)
    thresh = math.ceil((hi_bp - (x - radius)) / step) + 1
    thresh = max(thresh, 1)
    if l_pos == 0:
        restricted_norm = family.term(thresh).restrict(window).ess_sup_norm() \
            if not window.is_empty() else Fraction(0)
        if restricted_norm != 0:
            raise EngineError("translate tail analysis produced a wrong threshold")
        return Verdict(family.name, NULL, scheme="local-translate-vanishing",
                       evidence={"x0": str(x0), "threshold": thresh,
                                 "window_radius": radius},
                       trust=f"u_k is identically 0 on the window for every "
                             f"k >= {thresh} (all breakpoints lie left of the "
                             f"shifted window), so v_J vanishes there for "
                             f"J >= {thresh} along every subsequence; exact")
    alpha = abs(l_pos) / 2
    def kernel(k, _w=window):
        return _w
    table = [{"J": J, "k_J": thresh + J, "kernel_measure": window.measure()}
             for J in range(1, policy.j_max + 1)]
    wit = Witness(alpha, f"k_j = {thresh} + j", kernel, table)
    return Verdict(family.name, NONNULL, scheme="local-translate-constant",
                   witness=wit,
                   evidence={"x0": str(x0), "tail_value": l_pos},
                   trust=f"u_k is identically {l_pos} on the window for every "
                         f"k >= {thresh}; exact")


def _local_kernel(family, x0, policy, ell_max):
    """Non-null at the certificate's accumulation point only: there the
    nested kernels enter every neighborhood.  That they enter a window at
    another point says nothing, since a window of radius 1/ell_max still
    holds the accumulation point when x0 lies closer to it."""
    for cert in family.certificates_of(SuperlevelKernel):
        if cert.accumulation is None or cert.accumulation != x0:
            continue
        rows = []
        ok = True
        for ell in range(1, ell_max + 1):
            w = neighborhood(family.domain, x0, ell)
            if w.is_empty():
                ok = False
                break
            k_star = None
            for k in range(1, policy.k_max + 1):
                ker = cert.kernel(k)
                if ker.measure() > 0 and ker.subset_up_to_null(w):
                    k_star = k
                    break
            if k_star is None:
                ok = False
                break
            rows.append({"ell": ell, "k_star": k_star,
                         "kernel_measure_in_window":
                             cert.kernel(k_star).intersect(w).measure()})
        if ok:
            wit = Witness(cert.alpha, f"k_j = k*(ell) + j", cert.kernel, rows)
            return Verdict(family.name, NONNULL, scheme="local-superlevel-kernel",
                           witness=wit,
                           evidence={"x0": str(x0), "alpha": cert.alpha},
                           trust=f"for every tested neighborhood the nested "
                                 f"kernels enter it and keep positive measure, "
                                 f"so no finite intersection restricted to it "
                                 f"is null; kernels verified to the budget and "
                                 f"trusted beyond (ell <= {ell_max})")
    return None


def _top_limit(u: PiecewiseFn, x0: ExtPoint) -> Fraction:
    """The largest limit value of |u| at x0 (0 when there is none)."""
    rng = essential_range_at(u.abs_fn(), x0)
    return max((p.hi for p in rng.parts), default=Fraction(0))


def _local_floor(family, x0, policy, ell_max):
    """Non-null where a lower bound on |u_k|, fixed from some index on, has a
    positive limit value t at x0: the constant kernel A_{t/2}(floor) lies in
    every A_{t/2}(u_k) from that index on, with positive measure in every
    neighborhood of x0."""
    floors = [(c.floor, "identity", "local-lower-envelope",
               "|u_k| >= |floor| verified up to the certificate budget and "
               "trusted beyond") for c in family.certificates_of(LowerEnvelope)]
    if isinstance(family, ExplicitListFamily):
        floors.insert(0, (family.tail_constant(), f"k_j = {len(family.terms)} + j",
                          "local-eventual-constant", "the tail repeats; exact"))
    for floor, subsequence, scheme, why in floors:
        top = _top_limit(floor, x0)
        if top > 0:
            kset = floor.superlevel(top / 2)
            wit = Witness(top / 2, subsequence, lambda k: kset,
                          [{"note": "constant kernel accumulates at the point",
                            "limit_value": top}])
            return Verdict(family.name, NONNULL, scheme=scheme, witness=wit,
                           evidence={"x0": str(x0), "alpha": top / 2},
                           trust=f"the floor keeps positive superlevel mass in "
                                 f"every neighborhood of the point; {why}")
    return None


def _local_vanishing(family, x0, policy, ell_max):
    """Null from the first index k0 <= k_max at which a bound on |u_k|, valid
    for every k >= k0, has no positive limit value at x0: the terms then stay
    below every alpha on some neighborhood of x0 from k0 on."""
    carrier, ks = family.domain.carrier, range(1, policy.k_max + 1)
    bounds = []  # (scheme, candidate k0s, vanishes at x0, the bound)
    if isinstance(family, ExplicitListFamily):
        bounds.append(("local-eventual-constant", [len(family.terms)],
                       lambda k: _top_limit(family.tail_constant(), x0) == 0,
                       "u_k is the repeated tail for k >= {k0}; exact"))
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
    return None


def _local_evaluable(family, x0, policy, ell_max):
    """sin(1/(kx)): |u_k| <= 1/(kx) <= 2/(k x0) on the window (x0/2, 3x0/2),
    an exact vanishing envelope at every finite point x0 > 0."""
    if x0.is_infinite:
        return Verdict(family.name, INCONCLUSIVE,
                       evidence={"x0": str(x0),
                                 "note": "witness points accumulate at the "
                                         "escape routes; the localized engine "
                                         "does not certify evaluable families "
                                         "at infinity"},
                       trust="no scheme applied")
    x = x0.x
    if x <= 0:
        return Verdict(family.name, INCONCLUSIVE,
                       evidence={"x0": str(x0),
                                 "note": "the singular end; norm floors there "
                                         "belong to the global witness"},
                       trust="no scheme applied")
    a = x / 2
    return Verdict(family.name, NULL, scheme="local-evaluable-envelope",
                   evidence={"x0": str(x0), "window": f"({a},{3 * a})",
                             "norm_envelope": f"1/(k*{a})"},
                   trust=f"|sin(1/(kx))| <= 1/(kx) <= 1/({a} k) on the "
                         f"window, an exact strong-convergence envelope")


# Tried in order after the global verdict; the first verdict wins.
_LOCAL_SCHEMES = (_local_translate, _local_kernel, _local_floor, _local_vanishing)


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

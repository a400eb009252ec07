"""Localized weak-nullity tests and pointwise essential ranges.

Localization works on the one-point compactification X_inf = X u {inf}: a
sequence is weakly null at x0 iff the superlevel-set criterion holds with
every term restricted to each (small enough) neighborhood of x0.  The
canonical neighborhood base is balls (x0 - 1/l, x0 + 1/l) n X for finite x0
and complements of an exhausting family of compacts for the point at
infinity.  The criterion is monotone in the neighborhood (smaller windows
only weaken it), so certificates valid on every sufficiently small window
decide the localized verdict.

A local evidence cell is therefore a global cell measured inside a window:
when no local scheme applies, the evidence table is the engine's global
table (`engine._evidence_table`, same alphas, subsequences and J) run inside
each canonical neighborhood, with the criterion identity checked on every
cell.

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
                     Witness, _evidence_table, test_weak_null)
from .families import (ExplicitListFamily, MonotoneEnvelope, SequenceFamily,
                       SuperlevelKernel, SupportEnvelope, TranslateFamily)
from .piecewise import PiecewiseFn
from .points import ExtPoint
from .sets import (Domain, Interval, IntervalSet, closed, is_finite, opened,
                   point)

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


def _reaches(part: Interval, x0: ExtPoint, carrier: IntervalSet) -> bool:
    """Does the closure of this part reach x0 in X_inf?  The point at
    infinity is reached by an unbounded part or through an escape point of
    the carrier."""
    if not x0.is_infinite:
        return part.lo <= x0.x <= part.hi
    return (not part.is_bounded() or
            any(part.lo <= q <= part.hi for q in escape_points(carrier)[0]))


def accumulates_at(s: IntervalSet, x0: ExtPoint, carrier: IntervalSet) -> bool:
    """Exact test: does s have positive measure in every neighborhood of x0?"""
    return any(not p.is_point() and _reaches(p, x0, carrier) for p in s.parts)


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
    order and the first verdict wins: translate tail limits, support
    envelopes away from their accumulation point, kernels accumulating at
    x0, repeated tails, monotone envelopes.  ell_max (at least 1) is the
    number of canonical neighborhoods the schemes and the evidence table
    look at.
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


def _local_support_envelope(family, x0, policy, ell_max):
    for cert in family.certificates_of(SupportEnvelope):
        if cert.accumulation == x0:
            continue
        sep = _separating_window(family.domain, x0, cert.accumulation, ell_max)
        if sep is None:
            continue
        window, ell = sep
        k_star = None
        for k in range(1, policy.k_max + 1):
            if not cert.envelope(k).meets(window):
                k_star = k
                break
        if k_star is None:
            continue
        return Verdict(family.name, NULL, scheme="local-support-envelope",
                       evidence={"x0": str(x0), "vanishing_from": k_star,
                                 "window_ell": ell},
                       trust=f"supports stay inside a nested envelope that is "
                             f"disjoint from the neighborhood from k >= {k_star} "
                             f"on, so the restricted terms vanish identically; "
                             f"envelope verified up to the certificate budget")
    return None


def _separating_window(domain, x0, accum: ExtPoint, ell_max):
    """A canonical neighborhood of x0 whose closure avoids the accumulation
    point of the envelope."""
    for ell in range(1, ell_max + 1):
        w = neighborhood(domain, x0, ell)
        if w.is_empty():
            return None
        if not any(_reaches(p, accum, domain.carrier) for p in w.parts):
            return w, ell
    return None


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


def _local_eventual_constant(family, x0, policy, ell_max):
    if not isinstance(family, ExplicitListFamily):
        return None
    tail = family.tail_constant()
    # the tail repeats forever, so nullity at x0 is decided by the essential
    # range of |tail| at x0: any positive limit value yields a kernel there
    top = _top_limit(tail, x0)
    start = len(family.terms)
    if top == 0:
        return Verdict(family.name, NULL, scheme="local-eventual-constant",
                       evidence={"x0": str(x0)},
                       trust="every superlevel set of the repeated tail stays "
                             "away from the point; exact")
    alpha = top / 2
    kset = tail.superlevel(alpha)
    wit = Witness(alpha, f"k_j = {start} + j", lambda k: kset,
                  [{"note": "constant kernel accumulates at the point",
                    "limit_value": top}])
    return Verdict(family.name, NONNULL, scheme="local-eventual-constant",
                   witness=wit, evidence={"x0": str(x0), "alpha": alpha},
                   trust="the repeated tail keeps positive superlevel mass in "
                         "every neighborhood of the point; exact")


def _local_monotone(family, x0, policy, ell_max):
    """Monotone families: v_J = |u_kJ|, so nullity at x0 is driven by the
    largest limit value of |u_k| at x0.  Once that tops out at 0 the terms
    vanish essentially on small windows forever after (|u_k| only decreases);
    a positive floor across the budget yields a witness, trusted beyond."""
    if not family.certificates_of(MonotoneEnvelope):
        return None
    budget = policy.cert_budget
    tops = [_top_limit(family.term(k), x0) for k in range(1, budget + 1)]
    if tops[-1] == 0:
        k0 = next(k for k, t in enumerate(tops, start=1) if t == 0)
        return Verdict(family.name, NULL, scheme="local-monotone-vanishing",
                       evidence={"x0": str(x0), "vanishing_from": k0},
                       trust=f"every limit value of |u_{k0}| at the point is 0 "
                             f"and |u_k| is non-increasing, so restricted "
                             f"norms vanish for all k >= {k0}; exact given the "
                             f"monotone certificate")
    if min(tops) > 0:
        alpha = min(tops) / 2
        def kernel(k):
            return family.term(k).superlevel(alpha)
        rows = [{"k": k, "limit_value": t} for k, t in
                enumerate(tops[:ell_max], start=1)]
        wit = Witness(alpha, "identity", kernel, rows)
        return Verdict(family.name, NONNULL, scheme="local-monotone-floor",
                       witness=wit, evidence={"x0": str(x0), "alpha": alpha},
                       trust=f"|u_k| keeps a limit value above {alpha} at the "
                             f"point for every k <= {budget} (verified) and "
                             f"the nested superlevel sets are trusted beyond")
    return None


def _local_evaluable(family, x0, policy, ell_max):
    """sin(1/(kx)): |u_k| <= 1/(k a) on windows (a, b) with a > 0, which is an
    exact vanishing envelope at every finite interior point."""
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
    for ell in range(1, ell_max + 1):
        w = neighborhood(family.domain, x0, ell)
        if not w.is_empty() and all(p.lo > 0 for p in w.parts):
            a = min(p.lo for p in w.parts)
            return Verdict(family.name, NULL, scheme="local-evaluable-envelope",
                           evidence={"x0": str(x0), "window_ell": ell,
                                     "norm_envelope": f"1/(k*{a})"},
                           trust=f"|sin(1/(kx))| <= 1/(kx) <= 1/({a} k) on the "
                                 f"window, an exact strong-convergence envelope")
    return Verdict(family.name, INCONCLUSIVE, evidence={"x0": str(x0)},
                   trust="no scheme applied")


# Tried in order after the global verdict; the first verdict wins.
_LOCAL_SCHEMES = (_local_translate, _local_support_envelope, _local_kernel,
                  _local_eventual_constant, _local_monotone)


def _local_inconclusive(family, x0, policy, ell_max):
    """The global evidence table inside each non-empty canonical
    neighborhood, its rows tagged with ell; v_J is shared by every window."""
    rows = []
    minima: dict = {}
    for ell in range(1, ell_max + 1):
        w = neighborhood(family.domain, x0, ell)
        if not w.is_empty():
            rows += [{"ell": ell, **row}
                     for row in _evidence_table(family, policy, minima, w)]
    return Verdict(family.name, INCONCLUSIVE, evidence={"x0": str(x0), "table": rows},
                   trust="no local scheme applied; exact restricted measures "
                         "for the tested cells only")

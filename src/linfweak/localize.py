"""Localized weak-nullity tests and pointwise essential ranges.

Localization works on the one-point compactification X_inf = X u {inf}: a
sequence is weakly null at x0 iff the superlevel-set criterion holds with
every term restricted to each (small enough) neighborhood of x0.  The
canonical neighborhood base is balls (x0 - 1/l, x0 + 1/l) n X for finite x0
and complements of an exhausting family of compacts for the point at
infinity.  The criterion is monotone in the neighborhood (smaller windows
only weaken it), so exact limits at x0 decide the localized verdict, through
the local walk of `engine`; no rule depends on `ell_max`.

When no local rule applies, the evidence table is the engine's global
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

from .engine import (_LOCAL, INCONCLUSIVE, EngineError, Policy, Verdict, _CallStore,
                     _checked_reports, _evidence_table, _first, _spot_alphas)
from .families import SequenceFamily
from .piecewise import PiecewiseFn
from .points import ExtPoint, _limit_values, accumulates_at, escape_points
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


# ---------------------------------------------------------------------------
# localized verdicts


def test_weak_null_at(family: SequenceFamily, x0: ExtPoint,
                      policy: Optional[Policy] = None, ell_max: int = 6) -> Verdict:
    """Weak nullity of the family at a point of the one-point compactification.

    The norm bound and every certificate are checked as for the global
    verdict (a failure raises); then the local walk (`engine._LOCAL`) gives
    the first verdict, and the windowed evidence table answers when no rule
    does.  ell_max (at least 1) is the number of canonical neighborhoods
    that table looks at; no certified verdict depends on it.  Every verdict
    carries the reports of the certificate checks, as the global one does.
    """
    if ell_max < 1:
        raise EngineError(f"ell_max must be at least 1, got {ell_max}")
    policy = policy or Policy()
    _validate_point(family.domain, x0)
    reports = _checked_reports(family, policy)
    verdict = (_first(_LOCAL, family, x0, policy)
               or _local_inconclusive(family, x0, policy, ell_max))
    verdict.cert_reports = reports
    return verdict


test_weak_null_at.__test__ = False  # not a pytest case


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

"""linfweak: exact tests for weak nullity in L-infinity over 1-D Lebesgue domains.

The package decides (or bounds) whether a bounded sequence u_k converges
weakly to zero in L_inf, using the superlevel-set criterion
    u_k -> 0 weakly  <=>  for every alpha > 0 and every strictly increasing
    subsequence there is a J with  lambda( A_alpha(u_k1) n ... n A_alpha(u_kJ) ) = 0,
all in exact rational arithmetic.  It also computes essential ranges
(globally, and localized at points of the one-point compactification),
brute-forces the finite-model dual theory (0-1 measures, ultrafilters,
extreme points of the dual unit ball), and evaluates the minimax formula for
the Borel measure representing the restriction of a finitely additive
functional to C_0(X).
"""

from .sets import (Domain, Interval, IntervalSet, Rat, rat, closed, opened,
                   ico, ioc, point, ivl, union, intersect, complement,
                   measure, is_compact_subset, NEG_INF, POS_INF)
from .piecewise import PiecewiseFn, Piece, UnsupportedOperationError
from .families import (SequenceFamily, ExplicitListFamily, IndicatorFamily,
                       TranslateFamily, TentFamily, SummableDisjointFamily,
                       SinReciprocalFamily, DisjointSupports, DisjointLayers,
                       SuperlevelKernel, EscapeBound, MonotoneEnvelope,
                       NormLimit, SupportEnvelope, LowerEnvelope, PointFloor,
                       DecayEnvelope, verify_certificate, CertificateError)
from .engine import (Policy, Verdict, Witness, NormFloorWitness, test_weak_null,
                     v_inf, intersection_measure, witness_lower_bound)
from .localize import (ExtPoint, essential_range, essential_range_at,
                       neighborhood, test_weak_null_at)
from .numtheory import lcm_list, prime_power_nondivisor

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"

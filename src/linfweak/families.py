"""Sequence families u_1, u_2, ... with machine-checkable certificates.

A family produces its k-th term on demand.  Certificates are declarations
about the whole family (disjoint supports and layers, superlevel kernels,
escape bounds, monotone envelopes, norm limits, support and lower
envelopes, point floors and decay envelopes).  Each one spot-checks its own
claim exactly on the terms for k up to a verification budget (`verify`); the
verdict engine runs those checks first and trusts the claim beyond the
budget, and every verdict records that trust boundary.  Verdicts read these
and the hooks `eventual_tail` and `tail_ray`, never a family's class;
`_AbsMapped`, the one |u_k| image, keeps them all.  Terms that are not
`PiecewiseFn`s (sin(1/(kx))'s enclosure handles) are refused by the exact
kernels (`has_piecewise_terms`).

Every check is linear in the budget in the terms it builds and the tests it
makes: one pass over the terms, each tested against one other object at
most.  Disjoint sets are checked by one sort of all their parts by lo and
one sweep over them (`sets.first_overlap`), with no union and no loop over
pairs.  A check that only asks whether a set is null asks it by a walk
that builds no set: the monotone and lower envelopes compare terms by
`PiecewiseFn.exceeds_somewhere`, and the support bounds of
`SupportEnvelope`, `EscapeBound` and `DisjointLayers` (one shared loop,
`_support_report`) by `PiecewiseFn.vanishes_off`.  The norm checks,
`verify_norm_bound` and `NormLimit`, compare the largest |value| at the
piece ends (`PiecewiseFn.norm_pair`) with M, or with L +- dev, as integer
pairs.  Only a failing check builds its witness, {|u_k| > |u_(k-1)|},
{|floor| > |u_k|}, supp(u_k) \\ bound(k) or the norm ||u_k||, so every
failure report keeps its detail, its index and its witness.

Each object a check reads is built once by its owner.  A term keeps |u_k|,
supp(u_k), A_alpha(u_k) and ||u_k|| once asked (`PiecewiseFn`), and a
certificate keeps each set it declares, kernel(k), envelope(k), window(k),
layer_i(k) and their union, on first use (`_declared`, read through
`kernel_at`, `envelope_at`, `window_at`, `layer_at` and `union_at` by the
checks, the engine rules and `SummableDisjointFamily._term`).  A declared
set depends on k alone, so a certificate that several families share is
still checked on each of them.  No `CertReport` or check outcome is kept:
every comparison of every check runs on every question.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .enclosure import RatInterval, pi_enclosure, sin_of_pi_multiple, sin_of_rational
from .numtheory import dyadic_divisibility_subsequence, nested_midpoint
from .piecewise import PiecewiseFn, UnsupportedOperationError
from .points import ExtPoint, WitnessPoint, accumulates_at
from .rational import deviates, side
from .sets import (Domain, IntervalSet, closed, first_overlap, ico, ioc,
                   is_finite, opened, point, rat)


class CertificateError(ValueError):
    """A certificate failed its exact spot-check; carries the counterexample."""

    def __init__(self, message, k=None, witness=None):
        super().__init__(message)
        self.k = k
        self.witness = witness


# ---------------------------------------------------------------------------
# certificates

# the lower end of a certified enclosure of sin(pi/4), enclosed once per
# process: it bounds every point floor delta
_SIN_QUARTER_PI_LO = sin_of_pi_multiple(Fraction(1, 4), Fraction(1, 10 ** 9)).lo


@dataclass
class CertReport:
    """The outcome of one certificate check up to a budget."""

    certificate: str
    passed: bool
    checked_upto: int
    detail: str = ""
    counterexample_k: Optional[int] = None
    witness: Optional[object] = None


def _declared(cert, name: str, build: Callable, k: int) -> IntervalSet:
    """The set that cert declares as name(k), built by build(k) on first
    use and kept on the certificate instance, outside its dataclass
    fields.  A declared set depends on k alone, never on the family that
    the certificate is checked on, so a certificate that several families
    share keeps one copy; a certificate keeps only these sets, never a
    check's outcome."""
    try:
        sets = cert._declared_sets
    except AttributeError:
        sets = {}
        object.__setattr__(cert, "_declared_sets", sets)
    key = name, k
    got = sets.get(key)
    if got is None:
        got = sets[key] = build(k)
    return got


def _support_report(name, family, budget, bound, what) -> CertReport:
    """Check that supp(u_k) lies in bound(k) up to a null set for k <= budget
    by `PiecewiseFn.vanishes_off`, which builds no set; a failure names the
    first k that breaks it, and only then are supp(u_k) and the part outside
    bound(k), its witness, built."""
    for k in range(1, budget + 1):
        u, within = family.term(k), bound(k)
        if not u.vanishes_off(within):
            return CertReport(name, False, budget, f"supp(u_{k}) escapes {what}({k})",
                              counterexample_k=k,
                              witness=u.support().difference(within))
    return CertReport(name, True, budget)


@dataclass(frozen=True)
class DisjointSupports:
    """The supports of distinct terms intersect in lambda-null sets."""
    note: str = ""
    name = "disjoint-supports"

    def verify(self, family, budget) -> CertReport:
        found = first_overlap([family.term(k).support() for k in range(1, budget + 1)])
        if found is not None:
            i, j, overlap = found
            return CertReport(self.name, False, budget,
                              f"supports of u_{i+1} and u_{j+1} overlap",
                              counterexample_k=j + 1, witness=overlap)
        return CertReport(self.name, True, budget)


@dataclass(frozen=True)
class DisjointLayers:
    """supp(u_k) lies in the union over i of layer_i(k), and each layer's
    sets are mutually disjoint up to null sets, so a point lies in the
    supports of at most len(layers) terms.  A `tail_bound` declares
    sum_{i>I} |a_i| <= tail(I) for the idealized infinite sum of layers,
    a_i being the `coefficients` of the listed layers i = 1 .. L; any true
    bound meets tail(I) >= sum_{I<i<=L} |a_i|, which `verify` checks
    exactly for I = 0 .. L-1."""
    layers: tuple[Callable[[int], IntervalSet], ...]
    coefficients: tuple[Fraction, ...] = ()
    tail_bound: Optional[Callable[[int], Fraction]] = None
    name = "disjoint-layers"

    def __post_init__(self):
        if self.tail_bound is not None and len(self.coefficients) != len(self.layers):
            raise ValueError("a tail bound needs one coefficient per layer")

    def verify(self, family, budget) -> CertReport:
        if self.tail_bound is not None:
            for I in range(len(self.coefficients)):
                listed = sum(abs(rat(c)) for c in self.coefficients[I:])
                declared = rat(self.tail_bound(I))
                if declared < listed:
                    return CertReport(self.name, False, budget,
                                      f"tail({I}) = {declared} is below the listed "
                                      f"sum_{{{I}<i<={len(self.layers)}}} |a_i| = {listed}",
                                      witness=listed)
        for idx in range(len(self.layers)):
            found = first_overlap([self.layer_at(idx, k) for k in range(1, budget + 1)])
            if found is not None:
                i, j, overlap = found
                return CertReport(self.name, False, budget,
                                  f"layer {idx} of {family.name} is not disjoint "
                                  f"at indices {i + 1},{j + 1}",
                                  counterexample_k=j + 1, witness=overlap)
        return _support_report(self.name, family, budget, self.union_at, "layers")

    def layer_at(self, i: int, k: int) -> IntervalSet:
        """layer_i(k), the set of layer i (from 0) at index k."""
        return _declared(self, i, self.layers[i], k)

    def union_at(self, k: int) -> IntervalSet:
        """The union over i of layer_i(k)."""
        return _declared(self, "union", self._union, k)

    def _union(self, k: int) -> IntervalSet:
        return IntervalSet.of(*(self.layer_at(i, k) for i in range(len(self.layers))))


@dataclass(frozen=True)
class SuperlevelKernel:
    """kernel(k) is a positive-measure subset of A_alpha(u_k), nested
    decreasing in k; optionally every kernel accumulates at a point of the
    one-point compactification (has positive measure in each of its
    neighborhoods)."""
    alpha: Fraction
    kernel: Callable[[int], IntervalSet]
    accumulation: Optional[ExtPoint] = None
    note: str = ""
    name = "superlevel-kernel"

    def verify(self, family, budget) -> CertReport:
        prev = None
        for k in range(1, budget + 1):
            ker = self.kernel_at(k)
            if ker.measure() <= 0:
                return CertReport(self.name, False, budget, f"kernel({k}) is null",
                                  counterexample_k=k, witness=ker)
            sup = family.term(k).superlevel(self.alpha)
            if not ker.subset_up_to_null(sup):
                return CertReport(self.name, False, budget,
                                  f"kernel({k}) escapes the superlevel set",
                                  counterexample_k=k, witness=ker.difference(sup))
            if prev is not None and not ker.subset_up_to_null(prev):
                return CertReport(self.name, False, budget,
                                  f"kernel({k}) is not nested in kernel({k-1})",
                                  counterexample_k=k, witness=ker.difference(prev))
            prev = ker
        at, carrier = self.accumulation, family.domain.carrier
        if at is not None and prev is not None and \
                not accumulates_at(prev, at, carrier):
            # each kernel holds the later ones up to a null set, so the
            # kernels accumulate at the point up to the first k that fails
            k = next(k for k in range(1, budget + 1)
                     if not accumulates_at(self.kernel_at(k), at, carrier))
            return CertReport(self.name, False, budget,
                              f"kernel({k}) does not accumulate at {at}",
                              counterexample_k=k, witness=self.kernel_at(k))
        return CertReport(self.name, True, budget)

    def kernel_at(self, k: int) -> IntervalSet:
        """kernel(k)."""
        return _declared(self, "kernel", self.kernel, k)


@dataclass(frozen=True)
class EscapeBound:
    """supp(u_k) lies in [-width - k*step, width - k*step]: the terms escape
    to -inf, and a point meets the supports of at most
    floor(2*width/step) + 1 of them."""
    width: Fraction
    step: Fraction
    name = "escape-bound"

    def __post_init__(self):
        if rat(self.width) < 0 or rat(self.step) <= 0:
            raise ValueError("an escape bound needs width >= 0 and step > 0")

    def verify(self, family, budget) -> CertReport:
        return _support_report(self.name, family, budget, self.window_at, "window")

    def window_at(self, k: int) -> IntervalSet:
        """The window [-width - k*step, width - k*step]."""
        return _declared(self, "window", self._window, k)

    def _window(self, k: int) -> IntervalSet:
        w, step = rat(self.width), rat(self.step)
        return IntervalSet.of(closed(-w - k * step, w - k * step))


@dataclass(frozen=True)
class MonotoneEnvelope:
    """|u_{k+1}| <= |u_k| almost everywhere."""
    note: str = ""
    name = "monotone-envelope"

    def verify(self, family, budget) -> CertReport:
        prev = family.term(1).abs_fn()
        for k in range(2, budget + 1):
            cur = family.term(k).abs_fn()
            if cur.exceeds_somewhere(prev):
                return CertReport(self.name, False, budget,
                                  f"|u_{k}| exceeds |u_{k-1}| on a positive set",
                                  counterexample_k=k, witness=cur.exceeds(prev))
            prev = cur
        return CertReport(self.name, True, budget)


@dataclass(frozen=True)
class NormLimit:
    """||u_k|| -> limit, with an exact deviation bound per index:
    | ||u_k|| - limit | <= deviation(k)."""
    limit: Fraction
    deviation: Callable[[int], Fraction]
    note: str = ""
    name = "norm-limit"

    def verify(self, family, budget) -> CertReport:
        limit = rat(self.limit)
        for k in range(1, budget + 1):
            dev = rat(self.deviation(k))
            if dev < 0:
                return CertReport(self.name, False, budget, "negative deviation bound",
                                  counterexample_k=k)
            n, d = family.term(k).norm_pair()
            if deviates(n, d, limit, dev):
                norm = Fraction(n, d)
                return CertReport(self.name, False, budget,
                                  f"||u_{k}|| = {norm} deviates from {self.limit} by more "
                                  f"than {dev}", counterexample_k=k, witness=norm)
        return CertReport(self.name, True, budget)


@dataclass(frozen=True)
class SupportEnvelope:
    """supp(u_k) is contained in envelope(k), a nested decreasing family of
    sets.  The family is null at every point where some envelope(k0) stops
    accumulating."""
    envelope: Callable[[int], IntervalSet]
    note: str = ""
    name = "support-envelope"

    def verify(self, family, budget) -> CertReport:
        for k in range(2, budget + 1):
            if not self.envelope_at(k).subset_up_to_null(self.envelope_at(k - 1)):
                return CertReport(self.name, False, budget,
                                  f"envelope({k}) not nested", counterexample_k=k)
        return _support_report(self.name, family, budget, self.envelope_at, "envelope")

    def envelope_at(self, k: int) -> IntervalSet:
        """envelope(k)."""
        return _declared(self, "envelope", self.envelope, k)


@dataclass(frozen=True)
class LowerEnvelope:
    """|u_k| >= |floor| almost everywhere, for every k.  The family is
    non-null at every point where |floor| has a positive limit value."""
    floor: PiecewiseFn
    note: str = ""
    name = "lower-envelope"

    def verify(self, family, budget) -> CertReport:
        floor = self.floor.abs_fn()
        for k in range(1, budget + 1):
            cur = family.term(k).abs_fn()
            if floor.exceeds_somewhere(cur):
                return CertReport(self.name, False, budget,
                                  f"|floor| exceeds |u_{k}| on a positive set",
                                  counterexample_k=k, witness=floor.exceeds(cur))
        return CertReport(self.name, True, budget)


@dataclass(frozen=True)
class PointFloor:
    """|sin(1/(k_j x_J))| >= delta for j <= J and every J, along the dyadic
    divisibility chain k_j (`numtheory.dyadic_divisibility_subsequence`), at
    the nested midpoints x_J = 1/(m_J pi) of its first J links, which tend
    to 0.  `numtheory.nested_midpoint` puts each m_J/k_j mod 1 in [1/4, 1/2],
    so the floor holds for 0 < delta <= sin(pi/4), which `verify` certifies;
    the verdict that reads the certificate encloses the floors themselves."""
    delta: Fraction
    name = "point-floor"

    def points(self, depth: int) -> tuple[list[int], list[WitnessPoint]]:
        """The chain k_1 .. k_depth and the points x_1 .. x_depth."""
        ks = dyadic_divisibility_subsequence(1, depth)
        return ks[1:], [WitnessPoint.inv_pi_multiple(nested_midpoint(ks[:J + 1]))
                        for J in range(1, depth + 1)]

    def verify(self, family, budget) -> CertReport:
        bound = _SIN_QUARTER_PI_LO
        if not 0 < self.delta <= bound:
            return CertReport(self.name, False, 0, f"delta = {self.delta} is not "
                              f"certified in (0, sin(pi/4)]", witness=bound)
        return CertReport(self.name, True, 0)


@dataclass(frozen=True)
class DecayEnvelope:
    """|u_k(x)| <= 1/(kx) on a carrier inside (0, inf), declared (for
    sin(1/(kx)) it is |sin t| <= |t|)."""
    name = "decay-envelope"

    def verify(self, family, budget) -> CertReport:
        return CertReport(self.name, True, 0, "declared; no term is checked")


Certificate = object


# ---------------------------------------------------------------------------
# families


class SequenceFamily:
    """Base class.  Subclasses define _term(k) (k >= 1)."""

    def __init__(self, domain: Domain, name: str,
                 norm_bound: Optional[Fraction] = None,
                 certificates: Sequence[Certificate] = ()):
        self.domain = domain
        self.name = name
        self.norm_bound = None if norm_bound is None else rat(norm_bound)
        self.certificates = tuple(certificates)
        self._cache: dict[int, PiecewiseFn] = {}

    def term(self, k: int) -> PiecewiseFn:
        """u_k, built once per instance and kept in `_cache`.  The built-in
        families are shared per process (`corpus.family_by_name`), so a
        term returned here must be treated as read-only."""
        if k < 1:
            raise ValueError("term index starts at 1")
        if k not in self._cache:
            self._cache[k] = self._term(k)
        return self._cache[k]

    def _term(self, k: int) -> PiecewiseFn:
        raise NotImplementedError

    def has_piecewise_terms(self) -> bool:
        """Whether the terms are `PiecewiseFn`s (u_1's type decides)."""
        return isinstance(self.term(1), PiecewiseFn)

    def certificates_of(self, kind) -> list:
        return [c for c in self.certificates if isinstance(c, kind)]

    def eventual_tail(self, x0: Optional[ExtPoint] = None):
        """(k0, f) when u_k = f near x0 for every k >= k0 (on the whole
        carrier when x0 is None), exactly; None when the family's form
        gives no such tail."""
        return None

    def tail_ray(self):
        """(alpha, kernel, limits) when A_alpha(u_k) holds a ray toward an
        infinite end for every k: kernel(k) lies in A_alpha(u_j) for every
        j <= k and has infinite measure in every neighborhood of infinity,
        and limits are those of |u_k| at -inf and +inf.  None when the
        family's form gives no such ray."""
        return None

    def abs_mapped(self) -> "SequenceFamily":
        """The family |u_k|.  All certificate kinds here only constrain |u_k|,
        so they carry over unchanged."""
        return _AbsMapped(self)

    def __repr__(self):
        return f"<family {self.name}>"


class _AbsMapped(SequenceFamily):
    def __init__(self, inner: SequenceFamily):
        super().__init__(inner.domain, f"abs({inner.name})", inner.norm_bound,
                         inner.certificates)
        self.inner = inner

    def _term(self, k):
        return self.inner.term(k).abs_fn()

    def eventual_tail(self, x0=None):
        found = self.inner.eventual_tail(x0)
        return None if found is None else (found[0], found[1].abs_fn())

    def tail_ray(self):
        return self.inner.tail_ray()  # A_alpha(|u_k|) is A_alpha(u_k)


class ExplicitListFamily(SequenceFamily):
    """A finite list of terms; the last one repeats forever."""

    def __init__(self, domain: Domain, terms: Sequence[PiecewiseFn],
                 name="explicit", norm_bound=None, certificates=()):
        if not terms:
            raise ValueError("an explicit family needs at least one term")
        if norm_bound is None:
            norm_bound = max(t.ess_sup_norm() for t in terms)
        super().__init__(domain, name, norm_bound, certificates)
        self.terms = tuple(terms)

    def _term(self, k):
        return self.terms[k - 1] if k <= len(self.terms) else self.terms[-1]

    def eventual_tail(self, x0=None):
        """The last term, on the whole carrier, from k0 = len(terms) on."""
        return len(self.terms), self.terms[-1]


class IndicatorFamily(SequenceFamily):
    """u_k = indicator of sets(k)."""

    def __init__(self, domain: Domain, sets: Callable[[int], IntervalSet],
                 name="indicator", certificates=()):
        super().__init__(domain, name, Fraction(1), certificates)
        self.sets = sets

    def _term(self, k):
        return PiecewiseFn.indicator(self.domain, self.sets(k))


class TranslateFamily(SequenceFamily):
    """u_k(x) = profile(x + k*step) on the real line."""

    def __init__(self, profile: PiecewiseFn, step=Fraction(1),
                 name="translate", certificates=()):
        if profile.domain.carrier != IntervalSet.real_line():
            raise ValueError("translate families need a profile on the whole line")
        step = rat(step)
        if step <= 0:
            raise ValueError("step must be positive")
        super().__init__(profile.domain, name, profile.ess_sup_norm(), certificates)
        self.profile = profile
        self.step = step

    def _term(self, k):
        return self.profile.translate(k * self.step)

    def breakpoint_span(self) -> tuple[Fraction, Fraction]:
        pts = self.profile.breakpoints()
        if not pts:
            return (Fraction(0), Fraction(0))
        return (pts[0], pts[-1])

    def eventual_tail(self, x0=None):
        """At a finite point: once every breakpoint has moved left of the
        unit ball around x0, u_k is the right tail limit of the profile on
        the ball, from k0 = ceil((last breakpoint - (x0 - 1)) / step) + 1 on.
        The tail is u_k0 on the ball; each of its non-point pieces is
        checked exactly to have slope 0 and that constant.  Far translates
        settle near no point at infinity."""
        if x0 is None or x0.is_infinite:
            return None
        lo = x0.x - 1
        k0 = max(math.ceil((self.breakpoint_span()[1] - lo) / self.step) + 1, 1)
        tail = self.term(k0).restrict(IntervalSet.of(opened(lo, x0.x + 1)))
        limit = self.profile.pieces[-1].intercept
        if any(p.slope or p.intercept != limit for p in tail.pieces if not p.is_null()):
            raise CertificateError("translate tail analysis produced a wrong "
                                   "threshold", k=k0)
        return k0, tail

    def tail_ray(self):
        """The profile keeps |value| > alpha = |l|/2 on a ray toward a side
        whose limit l is not 0 (the left side first).  A_alpha(u_k) is
        A_alpha(profile) shifted by -k*step: a left ray shifted so lies in
        every earlier one, and a right ray shifted by one step lies in every
        later one."""
        l_neg, l_pos = self.profile.pieces[0].intercept, self.profile.pieces[-1].intercept
        if l_neg == 0 and l_pos == 0:
            return None
        alpha = abs(l_neg or l_pos) / 2
        left = l_neg != 0
        ray = IntervalSet.of(next(p for p in self.profile.superlevel(alpha).parts
                                  if not is_finite(p.lo if left else p.hi)))
        fixed = ray.shift(-self.step)
        kernel = (lambda k: ray.shift(-k * self.step)) if left else (lambda k: fixed)
        return alpha, kernel, (abs(l_neg), abs(l_pos))


class TentFamily(SequenceFamily):
    """Tent functions on (-1,1): u_k = 0 at 0 and for |x| >= 2/k, u_k = 1 for
    0 < |x| <= 1/k, linear between.  Pointwise null everywhere, weakly non-null."""

    def __init__(self, name="tents"):
        domain = Domain.open_interval(-1, 1)
        kernel = lambda k: IntervalSet.of(opened(Fraction(-1, k), 0),
                                          opened(0, Fraction(1, k)))
        envelope = lambda k: IntervalSet.of(
            opened(max(Fraction(-1), Fraction(-2, k)), min(Fraction(1), Fraction(2, k))))
        certs = (
            SuperlevelKernel(Fraction(1, 2), kernel, ExtPoint.at(0),
                             note="plateau of width 2/k around the puncture"),
            SupportEnvelope(envelope),
            MonotoneEnvelope(),
            NormLimit(Fraction(1), lambda k: Fraction(0)),
        )
        super().__init__(domain, name, Fraction(1), certs)

    def _term(self, k):
        one = Fraction(1)
        k = Fraction(k)
        pieces = []
        lo_plateau, hi_plateau = -1 / k, 1 / k
        lo_foot, hi_foot = -2 / k, 2 / k
        # ramps are open intervals; plateaus and feet own the breakpoints
        if lo_foot > -1:
            pieces.append((ioc(-1, lo_foot), 0, 0))
        if lo_plateau > -1:
            pieces.append((opened(max(lo_foot, Fraction(-1)), lo_plateau), k, 2))
            pieces.append((ico(lo_plateau, 0), 0, one))
        else:
            pieces.append((opened(-1, 0), 0, one))
        pieces.append((point(0), 0, 0))
        if hi_plateau < 1:
            pieces.append((ioc(0, hi_plateau), 0, one))
            pieces.append((opened(hi_plateau, min(hi_foot, Fraction(1))), -k, 2))
        else:
            pieces.append((opened(0, 1), 0, one))
        if hi_foot < 1:
            pieces.append((ico(hi_foot, 1), 0, 0))
        return PiecewiseFn.from_pieces(self.domain, pieces)


class SummableDisjointFamily(SequenceFamily):
    """u_k = sum_i coef_i * indicator(layer_i(k)) where each layer is a family
    of mutually disjoint sets.  The layer list is finite and exact; an
    optional declared tail bound describes the idealized infinite sum.  The
    family declares its layer sets, coefficients and tail bound as a
    `DisjointLayers` certificate, after the given ones, which checks the
    tail bound against the listed layers.

    Each term is one `PiecewiseFn.step` with the layers as its levels: a
    single cut sweep over the carrier and the layer sets that sums the
    coefficients of the layers holding each cell, with no indicator or
    partial sum built on the way."""

    def __init__(self, domain: Domain, layers: Sequence[tuple[Fraction, Callable[[int], IntervalSet]]],
                 name="summable-disjoint",
                 tail_bound: Optional[Callable[[int], Fraction]] = None,
                 certificates: Sequence[Certificate] = ()):
        if not layers:
            raise ValueError("need at least one layer")
        self.layers = [(rat(c), gen) for c, gen in layers]
        self._disjoint_layers = DisjointLayers(tuple(gen for _, gen in self.layers),
                                               tuple(c for c, _ in self.layers),
                                               tail_bound)
        super().__init__(domain, name, sum(abs(c) for c, _ in self.layers),
                         tuple(certificates) + (self._disjoint_layers,))

    def _term(self, k):
        return PiecewiseFn.step(self.domain, [(self._disjoint_layers.layer_at(i, k), c)
                                              for i, (c, _) in enumerate(self.layers)])


class MappedStepFamily(SequenceFamily):
    """p(u_k) - p(0) for a polynomial p over a step-function family.  Terms
    vanish wherever u_k does, so disjoint-support certificates carry over.
    A term is one `PiecewiseFn.compose_poly` with p - p(0), the coefficients
    with c0 replaced by 0: p(u_k) - p(0) has the pieces of p(u_k).  An
    inner family without piecewise terms (`has_piecewise_terms`) is
    refused, and so is an inner u_k that is not a step function
    (`is_step`): u_1 as the image is built, a later u_k with its term."""

    def __init__(self, inner: SequenceFamily, coeffs: Sequence[Fraction],
                 name: Optional[str] = None):
        if not coeffs:
            raise ValueError("a polynomial image needs at least one coefficient")
        if not inner.has_piecewise_terms():
            raise ValueError(f"a polynomial image needs piecewise terms; "
                             f"{inner.name} has none")
        coeffs = [rat(c) for c in coeffs]
        certs = tuple(inner.certificates_of(DisjointSupports))
        bound = None
        if inner.norm_bound is not None:
            m = inner.norm_bound
            bound = sum(abs(c) * m ** i for i, c in enumerate(coeffs)) + abs(coeffs[0])
        super().__init__(inner.domain, name or f"poly({inner.name})", bound, certs)
        self.inner = inner
        self.coeffs = coeffs
        self._shifted = [Fraction(0)] + coeffs[1:]
        self.term(1)

    def _term(self, k):
        try:
            return self.inner.term(k).compose_poly(self._shifted)
        except UnsupportedOperationError:  # u_k is not a step function
            raise ValueError(f"a polynomial image needs step terms; u_{k} of "
                             f"{self.inner.name} is not one") from None


class SinTermHandle:
    """Evaluation handle for u_k(x) = sin(1/(k x)); piecewise representation
    is unavailable, only certified point enclosures."""

    def __init__(self, k: int, domain: Domain):
        self.k = k
        self.domain = domain

    def enclose(self, x: WitnessPoint, width: Fraction) -> RatInterval:
        k = self.k
        if x.kind == "inv-pi-multiple":
            # x = 1/(q*pi): sin(1/(k x)) = sin((q/k) * pi), reduced exactly
            return sin_of_pi_multiple(x.value / k, width)
        if x.value <= 0:
            raise ValueError("sin(1/(kx)) is only defined for x > 0 here")
        return sin_of_rational(Fraction(1) / (k * x.value), width)

    def continuous_at(self, x: WitnessPoint) -> bool:
        return True  # every point of the open domain avoids the singularity at 0


class SinReciprocalFamily(SequenceFamily):
    """u_k(x) = sin(1/(kx)) on (0, 44/7).

    The rational right endpoint 44/7 (just above 2*pi) keeps the carrier
    exactly representable; no computation below depends on it.  Terms have no
    piecewise-linear form, only certified point enclosures, so the family
    declares what its verdicts read: a `PointFloor` with delta = sin(pi/4)
    rounded down to a dyadic, and a `DecayEnvelope`.
    """

    def __init__(self, name="sin-reciprocal"):
        floor = _SIN_QUARTER_PI_LO
        # rounding the certified floor down to a dyadic keeps it valid and small
        delta = Fraction(floor.numerator * 2 ** 48 // floor.denominator, 2 ** 48)
        super().__init__(Domain.open_interval(0, Fraction(44, 7)), name, Fraction(1),
                         (PointFloor(delta), DecayEnvelope()))

    def _term(self, k):
        return SinTermHandle(k, self.domain)

    def point_in_domain(self, x: WitnessPoint) -> bool:
        if x.kind == "rational":
            return self.domain.carrier.contains(x.value)
        # x = 1/(q*pi) > 0; x < 44/7 iff q*pi > 7/44
        pi_lo = pi_enclosure(Fraction(1, 10 ** 6)).lo
        return x.value * pi_lo > Fraction(7, 44)

    def abs_mapped(self):
        raise NotImplementedError("|sin| family is not needed; use enclosures")


# ---------------------------------------------------------------------------
# certificate verification


def verify_certificate(family: SequenceFamily, cert, budget: int) -> CertReport:
    """Exact spot-check of a certificate's claim for indices up to budget.
    Returns a failing report with a concrete counterexample instead of
    raising; the engine turns failures into CertificateError."""
    verify = getattr(cert, "verify", None)
    if verify is None:
        raise TypeError(f"unknown certificate {cert!r}")
    return verify(family, budget)


def verify_norm_bound(family: SequenceFamily, budget: int) -> CertReport:
    """Spot-check the declared uniform bound ||u_k|| <= M."""
    if family.norm_bound is None:
        return CertReport("norm-bound", False, 0, "no declared norm bound")
    if not family.has_piecewise_terms():
        return CertReport("norm-bound", True, 0, "declared: no piecewise terms")
    bound = family.norm_bound
    for k in range(1, budget + 1):
        n, d = family.term(k).norm_pair()
        if side(bound, n, d) < 0:
            norm = Fraction(n, d)
            return CertReport("norm-bound", False, budget,
                              f"||u_{k}|| = {norm} > declared {bound}",
                              counterexample_k=k, witness=norm)
    return CertReport("norm-bound", True, budget)

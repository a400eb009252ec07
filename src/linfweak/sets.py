"""Exact interval-set algebra on subsets of the real line.

An :class:`IntervalSet` is a finite union of pairwise disjoint, non-adjacent
intervals with rational (or infinite) endpoints and exact open/closed flags.
This class of sets is closed under union, intersection, difference and
complement, and Lebesgue measure on it is exact rational arithmetic.  It is
the carrier for every set-level computation in this package: superlevel sets,
neighborhood bases, filter bases, compact/open test families.

Endpoints are ``fractions.Fraction`` values (plain ``int`` is accepted
too) or the infinities ``NEG_INF``/``POS_INF``; measure is a ``Fraction``,
or ``math.inf`` for unbounded sets.  Every end is compared and every length
worked out through the kernel in :mod:`linfweak.rational`, which states the
convention for ends and integer pairs.  :meth:`IntervalSet.measure` sums
the lengths as one pair and reduces it once.  :func:`_normalize` checks the
order of its parts in one ``lt``/``eq`` pass and sorts them only when some
are out of order; :meth:`IntervalSet.union` merges two sorted part lists
and never sorts.  :meth:`IntervalSet.is_null` reads the parts (a set is
null iff every part is a point) and builds no measure.

Three predicates answer by one merge walk over the two sorted part lists
and build no set.  :meth:`IntervalSet.subset_up_to_null` is a cover walk
(`_covered`, which ``PiecewiseFn.vanishes_off`` runs over pieces): a
position runs from each part's lo through the parts of the other set that
reach past it, and only a gap of positive length answers "not null" (a
single point missing between two parts moves the position nowhere).
:meth:`IntervalSet.meets` asks max(lo) < min(hi) of the pairs that the
intersection sweep would visit.  :meth:`IntervalSet.is_subset` checks that
each part lies in the first part of the other set that reaches its hi.
:func:`first_overlap` finds the first of n sets that meets another in
positive measure by one sort of all their parts by lo and one sweep, with
no running union and no loop over pairs; only then does it ask `meets` of
that set and the ones after it, and it builds only the intersection it
returns.  Both sorts here, that one and the one in :func:`_normalize`, key
an end by ``rational.approx`` first, so they compare floats and compare
``Fraction`` ends only on a float tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .rational import NEG_INF, POS_INF, approx, eq, is_finite, lt, total_length

Rat = Fraction
Endpoint = Union[Fraction, float]  # float is only ever +-math.inf


def rat(x) -> Fraction:
    """Coerce ints, strings like ``"3/4"`` and Fractions to Fraction."""
    if type(x) is Fraction or isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"refusing to coerce float {x!r}; pass a Fraction or string")
    return Fraction(x)


def _as_endpoint(x) -> Endpoint:
    if isinstance(x, float):
        if math.isinf(x):
            return x
        raise TypeError(f"endpoint must be rational or infinite, got float {x!r}")
    return rat(x)


class SetAlgebraError(ValueError):
    """Raised on violated preconditions of set operations."""


@dataclass(frozen=True)
class Interval:
    """One interval with exact endpoint flags.  Never empty.

    Invariants: lo <= hi; infinite endpoints are open; lo == hi forces both
    flags closed (a degenerate point).
    """

    lo: Endpoint
    hi: Endpoint
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        lo_finite, hi_finite = is_finite(lo), is_finite(hi)
        if not lo_finite and not eq(lo, NEG_INF):
            raise SetAlgebraError(f"bad lower endpoint {lo!r}")
        if not hi_finite and not eq(hi, POS_INF):
            raise SetAlgebraError(f"bad upper endpoint {hi!r}")
        # -inf < every finite end < +inf, so only two finite ends can clash
        if lo_finite and hi_finite and not lt(lo, hi):
            if lt(hi, lo):
                raise SetAlgebraError(f"empty interval: lo={lo} > hi={hi}")
            if not (self.lo_closed and self.hi_closed):
                raise SetAlgebraError("degenerate interval must be closed; empty "
                                      "intervals are normalized away")
        if not lo_finite and self.lo_closed:
            raise SetAlgebraError("-inf endpoint cannot be closed")
        if not hi_finite and self.hi_closed:
            raise SetAlgebraError("+inf endpoint cannot be closed")

    # -- queries ------------------------------------------------------------

    def is_point(self) -> bool:
        return eq(self.lo, self.hi)

    def is_bounded(self) -> bool:
        return is_finite(self.lo) and is_finite(self.hi)

    def length(self) -> Union[Fraction, float]:
        return total_length((self,))

    def contains(self, x: Fraction) -> bool:
        lo, hi = self.lo, self.hi
        if lt(x, lo) or lt(hi, x):
            return False
        if not self.lo_closed and eq(x, lo):
            return False
        if not self.hi_closed and eq(x, hi):
            return False
        return True

    # -- derived intervals ----------------------------------------------------

    def closure(self) -> "Interval":
        return Interval(self.lo, self.hi,
                        is_finite(self.lo), is_finite(self.hi))

    def interior(self) -> "Interval | None":
        if self.is_point():
            return None
        return Interval(self.lo, self.hi, False, False)

    def shift(self, d: Fraction) -> "Interval":
        lo = self.lo + d if is_finite(self.lo) else self.lo
        hi = self.hi + d if is_finite(self.hi) else self.hi
        return Interval(lo, hi, self.lo_closed, self.hi_closed)

    def __str__(self) -> str:
        if self.is_point():
            return "{%s}" % (self.lo,)
        lo = "-inf" if not is_finite(self.lo) else str(self.lo)
        hi = "inf" if not is_finite(self.hi) else str(self.hi)
        return "%s%s,%s%s" % ("[" if self.lo_closed else "(", lo, hi,
                              "]" if self.hi_closed else ")")


def ivl(lo, hi, lo_closed=True, hi_closed=False) -> "Interval | None":
    """Build an interval, returning None when it would be empty."""
    lo = _as_endpoint(lo)
    hi = _as_endpoint(hi)
    if not is_finite(lo):
        lo_closed = False
    if not is_finite(hi):
        hi_closed = False
    if lt(hi, lo):
        return None
    if not (lo_closed and hi_closed) and eq(lo, hi):
        return None
    return Interval(lo, hi, lo_closed, hi_closed)


def closed(a, b):
    return ivl(a, b, True, True)


def opened(a, b):
    return ivl(a, b, False, False)


def ico(a, b):
    """Half-open [a, b)."""
    return ivl(a, b, True, False)


def ioc(a, b):
    """Half-open (a, b]."""
    return ivl(a, b, False, True)


def point(a):
    return ivl(a, a, True, True)


def _intersect_intervals(a: Interval, b: Interval) -> "Interval | None":
    if eq(a.lo, b.lo):
        lo, lo_closed = a.lo, a.lo_closed and b.lo_closed
    else:
        lo, lo_closed = (a.lo, a.lo_closed) if lt(b.lo, a.lo) else (b.lo, b.lo_closed)
    if eq(a.hi, b.hi):
        hi, hi_closed = a.hi, a.hi_closed and b.hi_closed
    else:
        hi, hi_closed = (a.hi, a.hi_closed) if lt(a.hi, b.hi) else (b.hi, b.hi_closed)
    if not lt(lo, hi) and (not (lo_closed and hi_closed) or lt(hi, lo)):
        return None
    return Interval(lo, hi, lo_closed, hi_closed)


def _ends_before(a: Interval, b: Interval) -> bool:
    """a stops strictly left of b's right end (same end: a open, b closed)."""
    return lt(a.hi, b.hi) or (b.hi_closed and not a.hi_closed and eq(a.hi, b.hi))


def _mergeable(cur: Interval, nxt: Interval) -> bool:
    if lt(nxt.lo, cur.hi):
        return True
    return (cur.hi_closed or nxt.lo_closed) and eq(nxt.lo, cur.hi)


def _starts_after(a: Interval, b: Interval) -> bool:
    """a starts right of b: a.lo > b.lo, or a open and b closed at one lo.
    Parts already in this order need no sort."""
    return lt(b.lo, a.lo) or (b.lo_closed and not a.lo_closed and eq(a.lo, b.lo))


def _covered(spans: Iterable[Interval], cover: Sequence[Interval]) -> bool:
    """Is the union of `spans` minus the union of `cover` null?  The spans
    are disjoint and in order (they may touch), the cover is the parts of a
    set.  `pos` runs from each span's lo through the parts of `cover` that
    reach past it, and a positive gap before the next part of `cover` (or
    before the span's hi, when `cover` runs out) answers False.  A gap of
    one point between two parts of `cover` moves `pos` nowhere."""
    j = 0
    for p in spans:
        hi = p.hi
        pos = p.lo
        if eq(pos, hi):
            continue  # a point span is null
        while True:
            if j == len(cover):
                return False
            q = cover[j]
            if not lt(pos, q.hi):
                j += 1  # q ends at or before pos
                continue
            if lt(pos, q.lo):
                return False  # (pos, min(q.lo, hi)) is not covered
            pos = q.hi
            if not lt(pos, hi):
                break  # q covers the rest of p and may cover later spans
            j += 1
    return True


def _normalize(parts: Iterable[Interval]) -> tuple[Interval, ...]:
    items = list(parts)
    if any(_starts_after(p, q) for p, q in zip(items, items[1:])):
        items.sort(key=lambda p: (approx(p.lo), p.lo, not p.lo_closed))
    return _join_sorted(items)


def _join_sorted(items: list[Interval]) -> tuple[Interval, ...]:
    """Join the overlapping or adjacent neighbours of parts sorted by lo."""
    out: list[Interval] = []
    for p in items:
        if not out:
            out.append(p)
            continue
        cur = out[-1]
        if _mergeable(cur, p):
            if lt(cur.hi, p.hi):
                hi, hi_closed = p.hi, p.hi_closed
            elif eq(p.hi, cur.hi):
                hi, hi_closed = cur.hi, cur.hi_closed or p.hi_closed
            else:
                hi, hi_closed = cur.hi, cur.hi_closed
            out[-1] = Interval(cur.lo, hi, cur.lo_closed, hi_closed)
        else:
            out.append(p)
    return tuple(out)


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of disjoint, non-adjacent intervals, sorted by lo.

    Construct through :meth:`of`; the raw constructor assumes parts are
    already normalized.
    """

    parts: tuple[Interval, ...] = ()

    @staticmethod
    def of(*parts) -> "IntervalSet":
        """Normalize any iterable mix of Interval / None / IntervalSet."""
        collected: list[Interval] = []
        for p in parts:
            if p is None:
                continue
            if isinstance(p, IntervalSet):
                collected.extend(p.parts)
            elif isinstance(p, Interval):
                collected.append(p)
            else:
                raise TypeError(f"not an interval: {p!r}")
        return IntervalSet(_normalize(collected))

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(())

    @staticmethod
    def real_line() -> "IntervalSet":
        return IntervalSet((Interval(NEG_INF, POS_INF, False, False),))

    # -- predicates -----------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.parts

    def is_bounded(self) -> bool:
        return all(p.is_bounded() for p in self.parts)

    def is_closed(self) -> bool:
        """Closed as a subset of the real line (infinite ends qualify)."""
        return all((not is_finite(p.lo) or p.lo_closed) and
                   (not is_finite(p.hi) or p.hi_closed) for p in self.parts)

    def is_compact(self) -> bool:
        return self.is_bounded() and self.is_closed()

    def contains(self, x) -> bool:
        x = rat(x)
        return any(p.contains(x) for p in self.parts)

    def is_subset(self, other: "IntervalSet") -> bool:
        """Is self a subset of other?  A part lies in other iff it lies in
        one part of it: the first part of `other` that reaches the part's
        hi, which must also start at or before its lo.  One walk, building
        no difference set."""
        cover = other.parts
        j = 0
        for p in self.parts:
            while j < len(cover) and _ends_before(cover[j], p):
                j += 1
            if j == len(cover) or _starts_after(cover[j], p):
                return False
        return True

    def subset_up_to_null(self, other: "IntervalSet") -> bool:
        """Is self \\ other null?  One cover walk (`_covered`)."""
        return _covered(self.parts, other.parts)

    def meets(self, other: "IntervalSet") -> bool:
        """Do self and other meet in positive measure?  The intersection
        sweep, asking max(lo) < min(hi) of each pair of parts and building
        no intersection."""
        a, b = self.parts, other.parts
        i = j = 0
        while i < len(a) and j < len(b):
            p, q = a[i], b[j]
            lo = q.lo if lt(p.lo, q.lo) else p.lo
            if lt(p.hi, q.hi):
                if lt(lo, p.hi):
                    return True
                i += 1
            else:
                if lt(lo, q.hi):
                    return True
                j += 1
        return False

    def is_null(self) -> bool:
        # parts are never empty, so the measure is 0 iff every part is a point
        return all(eq(p.lo, p.hi) for p in self.parts)

    # -- measure --------------------------------------------------------------

    def measure(self) -> Union[Fraction, float]:
        return total_length(self.parts)

    # -- boolean algebra --------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        # merge the two sorted part lists, then join neighbours: no sort
        a, b = self.parts, other.parts
        if not a:
            return other
        if not b:
            return self
        merged = []
        i = j = 0
        while i < len(a) and j < len(b):
            if _starts_after(a[i], b[j]):
                merged.append(b[j])
                j += 1
            else:
                merged.append(a[i])
                i += 1
        merged += a[i:]
        merged += b[j:]
        return IntervalSet(_join_sorted(merged))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        # Sweep both sorted part lists, advancing whichever part ends first.
        # Intersections of the parts of two normalized sets are disjoint and
        # non-adjacent, so the output is normalized as it comes.
        a, b = self.parts, other.parts
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            got = _intersect_intervals(a[i], b[j])
            if got is not None:
                out.append(got)
            if _ends_before(a[i], b[j]):
                i += 1
            elif _ends_before(b[j], a[i]):
                j += 1
            else:
                i += 1
                j += 1
        return IntervalSet(tuple(out))

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        # One sweep: a part of `other` that ends before the remainder `cur`
        # cuts it and is done; one that reaches past it may cut later parts.
        cuts = other.parts
        out = []
        j = 0
        for cur in self.parts:
            while cur is not None and j < len(cuts):
                mid = _intersect_intervals(cur, cuts[j])
                reaches_past = not _ends_before(cuts[j], cur)
                if mid is not None:
                    left = ivl(cur.lo, mid.lo, cur.lo_closed, not mid.lo_closed)
                    if left is not None:
                        out.append(left)
                    cur = None if reaches_past else ivl(mid.hi, cur.hi, not mid.hi_closed,
                                                        cur.hi_closed)
                if reaches_past:
                    break
                j += 1
            if cur is not None:
                out.append(cur)
        return IntervalSet(tuple(out))

    # -- topology ----------------------------------------------------------------

    def closure(self) -> "IntervalSet":
        return IntervalSet(_normalize(p.closure() for p in self.parts))

    def interior(self) -> "IntervalSet":
        return IntervalSet(_normalize(p.interior() for p in self.parts
                                      if p.interior() is not None))

    # -- geometry -------------------------------------------------------------------

    def shift(self, d) -> "IntervalSet":
        d = rat(d)
        return IntervalSet(tuple(p.shift(d) for p in self.parts))

    def fatten(self, eps) -> "IntervalSet":
        """Open eps-neighborhood of the set."""
        eps = rat(eps)
        if eps <= 0:
            raise SetAlgebraError("fatten needs eps > 0")
        out = []
        for p in self.parts:
            lo = p.lo - eps if is_finite(p.lo) else p.lo
            hi = p.hi + eps if is_finite(p.hi) else p.hi
            out.append(ivl(lo, hi, False, False))
        return IntervalSet.of(*out)

    def compact_core(self, eps, bound) -> "IntervalSet":
        """A compact subset: open finite endpoints move inward by eps, closed
        endpoints stay, unbounded ends are cut at -bound / +bound."""
        eps, bound = rat(eps), rat(bound)
        if eps <= 0:
            raise SetAlgebraError("compact_core needs eps > 0")
        out = []
        for p in self.parts:
            lo = p.lo if p.lo_closed else (p.lo + eps if is_finite(p.lo) else -bound)
            hi = p.hi if p.hi_closed else (p.hi - eps if is_finite(p.hi) else bound)
            out.append(ivl(lo, hi, True, True))
        return IntervalSet.of(*out)

    def endpoints(self) -> list[Fraction]:
        """All finite endpoints, ascending."""
        vals = set()
        for p in self.parts:
            if is_finite(p.lo):
                vals.add(p.lo)
            if is_finite(p.hi):
                vals.add(p.hi)
        return sorted(vals)

    def __str__(self) -> str:
        if not self.parts:
            return "empty"
        return " u ".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class Domain:
    """A measure space (X, Lebesgue): X is a non-empty interval set."""

    carrier: IntervalSet

    def __post_init__(self):
        if self.carrier.is_empty():
            raise SetAlgebraError("domain carrier must be non-empty")

    @staticmethod
    def open_interval(a, b) -> "Domain":
        return Domain(IntervalSet.of(opened(a, b)))

    @staticmethod
    def closed_interval(a, b) -> "Domain":
        return Domain(IntervalSet.of(closed(a, b)))

    @staticmethod
    def real_line() -> "Domain":
        return Domain(IntervalSet.real_line())

    def measure(self) -> Union[Fraction, float]:
        return self.carrier.measure()

    def __str__(self) -> str:
        return str(self.carrier)


# -- spec-level operation names -----------------------------------------------


def union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return a.union(b)


def intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return a.intersect(b)


def complement(a: IntervalSet, within: Domain) -> IntervalSet:
    if not a.is_subset(within.carrier):
        raise SetAlgebraError(f"{a} is not a subset of the domain {within}")
    return within.carrier.difference(a)


def measure(a: IntervalSet) -> Union[Fraction, float]:
    return a.measure()


def first_overlap(sets: Sequence[IntervalSet]) -> "tuple[int, int, IntervalSet] | None":
    """The first pair i < j, in i-major order, whose sets meet in positive
    measure, with their intersection; None when the sets are pairwise
    disjoint up to null sets.

    One sweep over the non-point parts of all sets, sorted by lo, finds i
    and builds nothing.  A part of positive length meets another in
    positive measure iff the one that comes later starts left of the
    other's hi.  Parts of one set never do so, since a later part of a set
    starts at or right of the hi of each earlier one.  So a part meets an
    earlier part iff it starts left of the largest hi so far, and a later
    part iff the part right after it starts left of its hi; either way the
    other part is of another set.  i is the smallest set with such a part,
    and `IntervalSet.meets` finds j among the sets after it: theirs is the
    one intersection built.
    """
    spans = sorted((approx(p.lo), p.lo, p.hi, i) for i, s in enumerate(sets)
                   for p in s.parts if not eq(p.lo, p.hi))
    first = len(sets)
    top = NEG_INF
    for t, (_, lo, hi, i) in enumerate(spans, 1):
        if i < first and (lt(lo, top) or t < len(spans) and lt(spans[t][1], hi)):
            first = i
        if lt(top, hi):
            top = hi
    if first == len(sets):
        return None
    s = sets[first]
    j = next(j for j in range(first + 1, len(sets)) if s.meets(sets[j]))
    return first, j, s.intersect(sets[j])


def is_compact_subset(k: IntervalSet, g: IntervalSet) -> bool:
    """True iff k is compact (bounded, all-closed) and k lies in interior(g)."""
    if k.is_empty():
        return True
    return k.is_compact() and k.is_subset(g.interior())

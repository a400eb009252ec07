"""Piecewise-linear functions with exact rational arithmetic.

A function is a finite list of pieces (interval, slope, intercept) whose
intervals partition the domain carrier up to a Lebesgue-null set.  A verdict
needs |u|, pointwise min, the superlevel sets A_alpha(u) = { |u| > alpha }
and null tests, and the class offers those, all exact, with polynomial
composition of step functions, translation and restriction to build terms.
Functions are identified almost everywhere; point evaluation uses literal
piece membership with a left-piece fallback at breakpoints that fall in
measure-zero gaps.

Results of ``min_of`` are canonical: no two touching pieces (one closed and
one open end at the same point) share slope and intercept, so each maximal
affine run is one piece.  Merging such pieces changes no point value.
``from_pieces``, the constructors and ``translate`` keep the cells they are
given, since family terms feed ``piece_value_candidates`` and breakpoint
spans piece by piece.

Step functions sum_i v_i chi(S_i) are built by one left-to-right cut sweep
(`_cut_sweep`).  Each part of the carrier and of every level set gives two
cuts, an end and a flag: before x for '[x' and 'x)', after x for '(x' and
'x]'.  The sweep merges these already sorted cut lists through the
``lt``/``eq`` kernel, never sorting, and hands out the cells between
consecutive cuts that lie in the carrier, each with the sets that hold it.
``step`` (and ``indicator``) gives a cell the sum of the values of the
levels that hold it and joins none, so its pieces are those of the pairwise
sum of the scaled indicators; no indicator or partial sum is built.  With
one level, neighbouring cells inside one carrier part differ in membership
of it, so the pieces are the parts of the level set and of the rest of the
carrier.

Both binary operations, min(u, v) and {u > v}, read one walk over the two
sorted piece lists, `_cells_with`, which advances whichever piece ends
first and yields each non-empty common cell as local ends and flags with
its two pieces, building nothing; each costs time linear in the pieces of
its operands.  Where two laws cross (in ``min_of``, and in {u > v}), where
a law changes sign (in ``abs_fn``) and where it crosses a level (in
``superlevel`` and ``support``), the side each law wins on follows from the
sign of a slope, since a x + b - c = a (x - x0); no point is sampled, and
`_half_ends` cuts a cell at x0 on local ends.

The set {u > v} is one lazy walk over its parts, one per common cell
(`_exceeds_parts`); no difference function u - v is built.  ``exceeds``
joins the parts into the set, and the null test ``exceeds_somewhere``
stops at the first part of positive length, building nothing.  The other
null test, ``vanishes_off(s)``, asks whether supp(u) \\ s is null: up to
null sets supp(u) is the union of the non-point pieces whose law is not 0,
since a sloped piece loses only its root, so it is the cover walk of
``IntervalSet.subset_up_to_null`` over those pieces and the parts of s.  A
certificate check builds the set itself (``exceeds``, ``support``) only
when the test fails, as the witness it reports.

The two kernels behind v_J = min_j |u_kj| and its level sets build each
output object once.  ``min_of`` joins the touching pieces of one law in its
first input (`_coalesced`) and folds the others in with `_min2`, which
joins the law that wins on each common cell to the open run as it is
emitted, by the same rule; a run becomes one ``Piece`` at the end, or stays
the input piece whose ends and law it has.  `_level_set`, behind
``superlevel`` and ``support``, emits each piece's part above the upper
level and part below the lower level in x order, joins touching parts as
they come and returns the parts as they stand, with no sorting or
normalizing pass; a part that is a whole piece is that piece's own
``Interval``.

That arithmetic is the kernel of :mod:`linfweak.rational`: each crossing
x0 is an unreduced integer pair (``crossing``), each cell end is compared
with it by one cross product (``side``), and a ``Fraction`` is built only
where x0 falls strictly inside a cell and cuts it.  A law that does not
change is not rebuilt: `_abs_piece` hands back its own piece, and `abs_fn`
returns the function itself when no piece changes.  Laws are Fractions
throughout; the validation walk below stores laws given as ints as
Fractions.

A function keeps what is worked out from it (`_kept`): |u|, the support,
A_alpha(u) per alpha and the norm pair of ``norm_pair`` are built on first
use and then read back, in a dict stored on the instance outside the
dataclass fields, so a function that is never asked (each `_min2` result,
say) costs what it did.  When |u| is u itself only a marker is kept, so no
function refers to itself, and a new |u| is marked as its own |.|.  The
null tests and {u > v} keep nothing: each call walks the pieces again.

Every ``PiecewiseFn`` is validated when it is built, internal results
included, in one walk over its pieces and the carrier parts, without
sorting: inside each carrier part the pieces must form one run that starts
at the part's start and ends at its end, each piece starting where the one
before it ends (two touching ends may not both be closed); a part that
holds no piece must be a single point, and a piece with nonzero slope must
be bounded.  So the pieces are in order and disjoint, their union lies in
the carrier, and the carrier minus that union is Lebesgue-null.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .rational import crossing, eq, is_finite, lt, max_abs_pair, poly_values, side
from .sets import (Domain, Interval, IntervalSet, SetAlgebraError, _covered,
                   _join_sorted, _starts_after, rat)

_ZERO = Fraction(0)


class UnsupportedOperationError(ValueError):
    """The result would leave the piecewise-linear representation class."""


class EvaluationError(ValueError):
    pass


@dataclass(frozen=True)
class Piece:
    interval: Interval
    slope: Fraction
    intercept: Fraction

    def value(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept

    def is_null(self) -> bool:
        return self.interval.is_point()

    def closure_values(self) -> tuple[Fraction, Fraction]:
        """Values at the closure endpoints (pieces with slope are bounded)."""
        if self.slope == 0:
            return (self.intercept, self.intercept)
        a, b = self.interval.lo, self.interval.hi
        va, vb = self.value(a), self.value(b)
        return (min(va, vb), max(va, vb))


def _left_of(a: Interval, b: Interval) -> bool:
    """a ends before b starts: the two share no point and b does not reach
    left of a's end."""
    if a.hi_closed and b.lo_closed:
        return lt(a.hi, b.lo)
    return not lt(b.lo, a.hi)


_EXCEEDS = "pieces exceed the domain carrier"
_GAP = "pieces leave a non-null gap in the carrier"


def _place(parts, j: int, run: bool, full: bool, iv: Interval, touching: bool):
    """One step of the carrier walk in `PiecewiseFn.__post_init__`: place the
    piece iv (touching: it starts where the latest piece ends) and return the
    new (j, run, full).  run: parts[j] holds the latest piece; full: that
    piece reaches the end of parts[j].  Inside a part the pieces form one run
    from the part's start, each starting where the one before it ends."""
    if run and not full and not touching:
        raise SetAlgebraError(_GAP)
    if run and full and not (touching and iv.lo_closed and parts[j].hi_closed):
        j, run = j + 1, False
    if not run:
        # iv opens the run of a later part: the parts it passes hold no
        # piece, and it must start where its own part starts
        while j < len(parts) and _left_of(parts[j], iv):
            if not eq(parts[j].lo, parts[j].hi):
                raise SetAlgebraError(_GAP)
            j += 1
        if j == len(parts):
            raise SetAlgebraError(_EXCEEDS)
        if not eq(iv.lo, parts[j].lo):
            raise SetAlgebraError(_EXCEEDS if lt(iv.lo, parts[j].lo) else _GAP)
        if iv.lo_closed and not parts[j].lo_closed:
            raise SetAlgebraError(_EXCEEDS)
    part = parts[j]
    if lt(iv.hi, part.hi):
        return j, True, False
    if (part.hi_closed or not iv.hi_closed) and eq(iv.hi, part.hi):
        return j, True, True
    raise SetAlgebraError(_EXCEEDS)


@dataclass(frozen=True)
class PiecewiseFn:
    domain: Domain
    pieces: tuple[Piece, ...]

    def __post_init__(self):
        # One walk over the pieces and the sorted, disjoint carrier parts.
        # Order is checked on every piece; the first coverage fault is
        # raised after the walk, so that pieces out of order are reported
        # as such and not as the gap they leave.  Laws given as ints are
        # stored as Fractions, whose slots the crossing kernel reads.
        parts = self.domain.carrier.parts
        j, run, full = 0, False, False
        fault = None
        last = None
        coerce = False
        for p in self.pieces:
            iv = p.interval
            if type(p.slope) is not Fraction or type(p.intercept) is not Fraction:
                coerce = True
            touching = last is not None and eq(iv.lo, last.hi)
            if last is not None and (iv.lo_closed and last.hi_closed if touching
                                     else lt(iv.lo, last.hi)):
                raise SetAlgebraError(f"overlapping pieces near {iv.lo}")
            if fault is None:
                try:
                    j, run, full = _place(parts, j, run, full, iv, touching)
                except SetAlgebraError as exc:
                    fault = exc
            if not eq(p.slope, _ZERO) and not iv.is_bounded():
                raise SetAlgebraError("a piece with nonzero slope must be bounded")
            last = iv
        if fault is not None:
            raise fault
        if run:
            if not full:
                raise SetAlgebraError(_GAP)
            j += 1
        for part in parts[j:]:
            if not eq(part.lo, part.hi):
                raise SetAlgebraError(_GAP)
        if coerce:
            object.__setattr__(self, "pieces", tuple(
                Piece(p.interval, rat(p.slope), rat(p.intercept)) for p in self.pieces))

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_pieces(domain: Domain, triples: Iterable[tuple]) -> "PiecewiseFn":
        pieces = [Piece(iv, rat(a), rat(b)) for iv, a, b in triples]
        if any(_starts_after(p.interval, q.interval) for p, q in zip(pieces, pieces[1:])):
            pieces.sort(key=lambda p: (p.interval.lo, not p.interval.lo_closed))
        return PiecewiseFn(domain, tuple(pieces))

    @staticmethod
    def constant(domain: Domain, c) -> "PiecewiseFn":
        c = rat(c)
        return PiecewiseFn(domain, tuple(Piece(p, Fraction(0), c)
                                         for p in domain.carrier.parts))

    @staticmethod
    def indicator(domain: Domain, s: IntervalSet) -> "PiecewiseFn":
        return PiecewiseFn.step(domain, [(s, Fraction(1))])

    @staticmethod
    def step(domain: Domain, levels: Sequence[tuple[IntervalSet, Fraction]]) -> "PiecewiseFn":
        """sum_i v_i chi(S_i) for levels (S_i, v_i): each cell of the cut
        sweep takes the sum of the values of the levels that hold it.  No
        cells are joined: inside one carrier part, neighbouring cells differ
        in some level, so the pieces are those of the pairwise sum of the
        scaled indicators."""
        values = [rat(v) for _, v in levels]
        pieces = []
        for lo, hi, lo_closed, hi_closed, inside in _cut_sweep(
                domain.carrier, [s for s, _ in levels]):
            value = _ZERO
            for v, hit in zip(values, inside):
                if hit:
                    value = v if value is _ZERO else value + v
            pieces.append(Piece(Interval(lo, hi, lo_closed, hi_closed), _ZERO, value))
        return PiecewiseFn(domain, tuple(pieces))

    # -- basic queries -----------------------------------------------------------

    def is_step(self) -> bool:
        return all(p.slope == 0 for p in self.pieces)

    def eval(self, x) -> Fraction:
        x = rat(x)
        if not self.domain.carrier.contains(x):
            raise EvaluationError(f"{x} is outside the domain {self.domain}")
        for p in self.pieces:
            if p.interval.contains(x):
                return p.value(x)
        # x sits in a null gap between pieces: left-piece convention.
        left = None
        for p in self.pieces:
            if p.interval.hi <= x:
                left = p
        if left is not None:
            return left.value(x)
        for p in self.pieces:
            if p.interval.lo >= x:
                return p.value(x)
        raise EvaluationError(f"no piece near {x}")

    def breakpoints(self) -> list[Fraction]:
        pts = set()
        for p in self.pieces:
            if is_finite(p.interval.lo):
                pts.add(p.interval.lo)
            if is_finite(p.interval.hi):
                pts.add(p.interval.hi)
        return sorted(pts)

    def piece_value_candidates(self) -> set[Fraction]:
        """|values| attained at endpoints of non-null pieces (step levels and
        ramp extremes); these are the thresholds where superlevel sets change."""
        vals = set()
        for p in self.pieces:
            if p.is_null():
                continue
            lo_v, hi_v = p.closure_values()
            vals.add(abs(lo_v))
            vals.add(abs(hi_v))
        return vals

    def norm_pair(self) -> tuple[int, int]:
        """||u||, the largest |value| at the closure ends of the non-null
        pieces, as the unreduced integer pair of `rational.max_abs_pair`;
        worked out once and kept (see `_kept`)."""
        kept = self._kept()
        got = kept.get("norm")
        if got is None:
            got = kept["norm"] = max_abs_pair(self.pieces)
        return got

    def ess_sup_norm(self) -> Fraction:
        """`norm_pair` as a ``Fraction``, reduced on each call."""
        return Fraction(*self.norm_pair())

    def _kept(self) -> dict:
        """The values worked out from this function and kept on it: |u|
        under "abs" (None when |u| is u itself, so that u holds no
        reference to itself), the norm pair under "norm", and each level
        set {|u| > c} under the integer pair (n, d) of c, the support
        under (0, 1).  The dict is made on first use and stored in the
        instance's own __dict__, outside the dataclass fields, so equality,
        hashing and the cost of a function that is never asked stay as
        they are."""
        try:
            return self._kept_values
        except AttributeError:
            kept = {}
            object.__setattr__(self, "_kept_values", kept)
            return kept

    # -- combination helpers ---------------------------------------------------

    def _cells_with(self, other: "PiecewiseFn"):
        """The common refinement, from left to right: yields (lo, hi,
        lo_closed, hi_closed, p, q) for each non-empty meet of a piece p of
        self and a piece q of other.  One walk over the two piece lists,
        advancing whichever piece ends first (an open end before a closed
        one at the same place) and both when they end alike; nothing is
        built."""
        ps, qs = self.pieces, other.pieces
        i = j = 0
        while i < len(ps) and j < len(qs):
            p, q = ps[i], qs[j]
            pv, qv = p.interval, q.interval
            plo, qlo = pv.lo, qv.lo
            if eq(plo, qlo):
                lo, lo_closed = plo, pv.lo_closed and qv.lo_closed
            elif lt(qlo, plo):
                lo, lo_closed = plo, pv.lo_closed
            else:
                lo, lo_closed = qlo, qv.lo_closed
            phi, qhi = pv.hi, qv.hi
            if eq(phi, qhi):
                hi, hi_closed = phi, pv.hi_closed and qv.hi_closed
                if pv.hi_closed == qv.hi_closed:
                    i += 1
                    j += 1
                elif qv.hi_closed:
                    i += 1
                else:
                    j += 1
            elif lt(phi, qhi):
                hi, hi_closed = phi, pv.hi_closed
                i += 1
            else:
                hi, hi_closed = qhi, qv.hi_closed
                j += 1
            if lt(lo, hi) or (lo_closed and hi_closed and eq(lo, hi)):
                yield lo, hi, lo_closed, hi_closed, p, q

    def _same_domain(self, other: "PiecewiseFn"):
        if self.domain.carrier != other.domain.carrier:
            raise SetAlgebraError("functions live on different domains")

    # -- algebra ------------------------------------------------------------------

    def abs_fn(self) -> "PiecewiseFn":
        """|u|; u itself when no piece changes (u >= 0 everywhere).  Built
        once and kept, and a new |u| is marked as its own |.|."""
        kept = self._kept()
        if "abs" not in kept:
            pieces = []
            changed = False
            for p in self.pieces:
                got = _abs_piece(p)
                changed = changed or got[0] is not p
                pieces += got
            if changed:
                out = kept["abs"] = PiecewiseFn(self.domain, tuple(pieces))
                out._kept()["abs"] = None
            else:
                kept["abs"] = None
        out = kept["abs"]
        return self if out is None else out

    def compose_poly(self, coeffs: Sequence) -> "PiecewiseFn":
        """p(u) for a polynomial p given by coefficients [c0, c1, ...];
        u must be a step function.  The pieces are u's, each with the value
        p(level), worked out once per distinct level (`poly_values`)."""
        if not self.is_step():
            raise UnsupportedOperationError("polynomial composition needs a step function")
        pieces = self.pieces
        values = poly_values([rat(c) for c in coeffs], [p.intercept for p in pieces])
        return PiecewiseFn(self.domain, tuple(
            Piece(p.interval, _ZERO, v) for p, v in zip(pieces, values)))

    def translate(self, d) -> "PiecewiseFn":
        """x -> u(x + d); the domain carrier moves by -d."""
        d = rat(d)
        new_domain = Domain(self.domain.carrier.shift(-d))
        pieces = tuple(Piece(p.interval.shift(-d), p.slope, p.intercept + p.slope * d)
                       for p in self.pieces)
        return PiecewiseFn(new_domain, pieces)

    def restrict(self, s: IntervalSet) -> "PiecewiseFn":
        carrier = self.domain.carrier.intersect(s)
        if carrier.is_empty():
            raise SetAlgebraError("restriction to an empty window")
        triples = []
        for p in self.pieces:
            for part in IntervalSet.of(p.interval).intersect(s).parts:
                triples.append((part, p.slope, p.intercept))
        return PiecewiseFn.from_pieces(Domain(carrier), triples)

    # -- level sets -------------------------------------------------------------

    def superlevel(self, alpha) -> IntervalSet:
        """A_alpha(u) = { x : |u(x)| > alpha }, alpha > 0; built once per
        alpha and kept."""
        alpha = rat(alpha)
        if alpha._numerator <= 0:
            raise ValueError("superlevel requires alpha > 0")
        return self._level(alpha)

    def support(self) -> IntervalSet:
        """{ u != 0 }: a sloped piece loses only its root.  Built once and
        kept."""
        return self._level(_ZERO)

    def _level(self, c: Fraction) -> IntervalSet:
        """{ |u| > c } for c >= 0, from `_level_set` on first use, then
        from `_kept` under the integer pair of c."""
        kept = self._kept()
        key = c._numerator, c._denominator
        got = kept.get(key)
        if got is None:
            got = kept[key] = _level_set(self.pieces, c, -c)
        return got

    def exceeds(self, other: "PiecewiseFn") -> IntervalSet:
        """{ x : u(x) > v(x) }, exact with strict-inequality endpoint flags:
        the parts of `_exceeds_parts`, joined."""
        self._same_domain(other)
        return IntervalSet(_join_sorted([
            Interval(lo, hi, lo_closed, hi_closed)
            for lo, hi, lo_closed, hi_closed, _ in _exceeds_parts(self, other)]))

    def exceeds_somewhere(self, other: "PiecewiseFn") -> bool:
        """Is { x : u(x) > v(x) } of positive measure?  The walk of
        `exceeds`, stopped at the first part of positive length; nothing is
        built."""
        self._same_domain(other)
        return any(lt(part[0], part[1]) for part in _exceeds_parts(self, other))

    def vanishes_off(self, s: IntervalSet) -> bool:
        """Is supp(u) \\ s null?  Up to null sets supp(u) is the union of the
        non-point pieces whose law is not 0, since a sloped piece loses only
        its root; so this is the cover walk of
        `IntervalSet.subset_up_to_null` over those pieces and the parts of
        s.  Nothing is built."""
        return _covered((p.interval for p in self.pieces
                         if p.slope._numerator or p.intercept._numerator), s.parts)

    def __str__(self) -> str:
        bits = ", ".join(f"{p.interval}: {p.slope}*x+{p.intercept}" for p in self.pieces)
        return f"piecewise[{bits}]"


def _cut_sweep(carrier: IntervalSet, sets: Sequence[IntervalSet]):
    """The cells of the carrier between consecutive cuts, from left to right.

    Each part of the carrier and of every set gives two cuts, an end and a
    flag: before x for '[x' and 'x)', after x for '(x' and 'x]'.  The sorted
    cut lists are merged through `lt`/`eq`, and all cuts at one place are
    taken together, so consecutive places differ and the cell between them
    is never empty: from before x to after x it is the point {x}.  Yields
    (lo, hi, lo_closed, hi_closed, inside) for each cell inside the
    carrier; inside[i] tells whether sets[i] holds the cell (one list,
    updated in place: read it before the next cell)."""
    lists = [s.parts for s in sets]
    lists.append(carrier.parts)
    own = len(sets)  # the carrier's index
    inside = [False] * len(lists)
    taken = [0] * len(lists)  # cuts passed per list
    heads = [(parts[0].lo, not parts[0].lo_closed) if parts else None for parts in lists]
    x = after = None  # the latest place
    while True:
        at = []
        for i, head in enumerate(heads):
            if head is None:
                continue
            hx, ha = head
            if not at or lt(hx, bx) or (ba and not ha and eq(hx, bx)):
                at, bx, ba = [i], hx, ha
            elif ha == ba and eq(hx, bx):
                at.append(i)
        if inside[own]:
            yield x, bx, not after, ba, inside
        for i in at:
            inside[i] = not inside[i]
            t = taken[i] = taken[i] + 1
            parts = lists[i]
            if t == 2 * len(parts):
                heads[i] = None
            else:
                iv = parts[t >> 1]
                heads[i] = (iv.hi, iv.hi_closed) if t & 1 else (iv.lo, not iv.lo_closed)
        if heads[own] is None:
            return
        x, after = bx, ba


def _abs_piece(p: Piece) -> tuple[Piece, ...]:
    """|u| on one piece, as (p,) when |u| = u there.  u = a (x - root), so
    |u| is u right of the root and -u left of it when a > 0, and the other
    way round when a < 0."""
    a, b, iv = p.slope, p.intercept, p.interval
    an = a._numerator
    if an == 0:
        return (p,) if b._numerator >= 0 else (Piece(iv, a, -b),)
    _, n, d = crossing(a, b, _ZERO, _ZERO)
    lo_side = side(iv.lo, n, d)
    if lo_side >= 0:
        # right of the root; a point piece at the root, where u = 0, keeps u
        if an > 0 or (lo_side == 0 and eq(iv.lo, iv.hi)):
            return (p,)
        return (Piece(iv, -a, -b),)
    if side(iv.hi, n, d) <= 0:
        return (p,) if an < 0 else (Piece(iv, -a, -b),)
    root = Fraction(n, d)
    left, right = ((-a, -b), (a, b)) if an > 0 else ((a, b), (-a, -b))
    return (Piece(Interval(iv.lo, root, iv.lo_closed, True), *left),
            Piece(Interval(root, iv.hi, False, iv.hi_closed), *right))


def _half_ends(lo, hi, lo_closed: bool, hi_closed: bool, n: int, d: int,
               right: bool):
    """The part of the cell from lo to hi right of x0 = n/d (when right) or
    left of it, as (lo, hi, lo_closed, hi_closed, whole), whole telling
    whether it is the whole cell; None when it is empty.  The far end is
    compared first, so an empty part costs one comparison."""
    if right:
        if side(hi, n, d) <= 0:
            return None
        near = side(lo, n, d)
        if near > 0:
            return lo, hi, lo_closed, hi_closed, True
        return lo if near == 0 else Fraction(n, d), hi, False, hi_closed, False
    if side(lo, n, d) >= 0:
        return None
    near = side(hi, n, d)
    if near < 0:
        return lo, hi, lo_closed, hi_closed, True
    return lo, hi if near == 0 else Fraction(n, d), lo_closed, False, False


def _exceeds_parts(u: PiecewiseFn, v: PiecewiseFn):
    """The parts of {u > v} in x order, at most one per common cell, as
    `_half_ends` gives them.  On a cell u - v = (a1 - a2)(x - x0), so u wins
    right of the crossing x0 when a1 > a2, left of it when a1 < a2, and on
    the whole cell or nowhere when a1 = a2.  Lazy, and nothing is built but
    the crossing of a cell that it cuts."""
    for lo, hi, lo_closed, hi_closed, p, q in u._cells_with(v):
        s, n, d = crossing(p.slope, p.intercept, q.slope, q.intercept)
        if s == 0:
            if lt(q.intercept, p.intercept):
                yield lo, hi, lo_closed, hi_closed, True
        else:
            got = _half_ends(lo, hi, lo_closed, hi_closed, n, d, s > 0)
            if got is not None:
                yield got


def _level_set(pieces: Sequence[Piece], up, down) -> IntervalSet:
    """{ a x + b > up } united with { a x + b < down } over the pieces, in one
    walk; down <= up.  Each piece gives its parts in x order: a sloped piece
    has a x + b - c = a (x - x0) at the crossing x0 of the level c, so its
    part below comes first when a > 0 and its part above when a < 0.  The
    pieces are ordered and disjoint, hence so are the parts: a part that
    starts where the open run ends, one of the two ends closed, extends the
    run, and each run becomes one Interval when it closes, or stays the
    piece's own interval when it is that whole interval."""
    out = []
    lo = hi = None  # the open run; lo is None until the first part
    lo_closed = hi_closed = False
    whole = None
    for p in pieces:
        iv, a, b = p.interval, p.slope, p.intercept
        an = a._numerator
        if an == 0:
            if not lt(up, b) and not lt(b, down):
                continue
            cuts = ((iv.lo, iv.hi, iv.lo_closed, iv.hi_closed, True),)
        else:
            cuts = []
            # (level, keep the part right of its crossing), in x order
            for c, right in (((down, False), (up, True)) if an > 0
                             else ((up, False), (down, True))):
                _, n, d = crossing(a, b, _ZERO, c)
                got = _half_ends(iv.lo, iv.hi, iv.lo_closed, iv.hi_closed, n, d, right)
                if got is not None:
                    cuts.append(got)
        for part_lo, part_hi, part_lo_closed, part_hi_closed, part_whole in cuts:
            if lo is not None and (hi_closed or part_lo_closed) and eq(part_lo, hi):
                hi, hi_closed, whole = part_hi, part_hi_closed, None
                continue
            if lo is not None:
                out.append(whole or Interval(lo, hi, lo_closed, hi_closed))
            lo, hi, lo_closed, hi_closed = part_lo, part_hi, part_lo_closed, part_hi_closed
            whole = iv if part_whole else None
    if lo is not None:
        out.append(whole or Interval(lo, hi, lo_closed, hi_closed))
    return IntervalSet(tuple(out))


def min_of(fns: Sequence[PiecewiseFn]) -> PiecewiseFn:
    """Exact pointwise minimum in canonical form; breakpoints appear at
    crossing abscissae.  The first function's touching pieces of one law
    are joined before the fold, so that `_min2`, which keeps the first
    law where two laws tie on a point cell, starts from a canonical run."""
    if not fns:
        raise ValueError("min_of needs at least one function")
    out = fns[0]
    pieces = _coalesced(out.pieces)
    if len(pieces) != len(out.pieces):
        out = PiecewiseFn(out.domain, pieces)
    for f in fns[1:]:
        out = _min2(out, f)
    return out


def _min2(u: PiecewiseFn, v: PiecewiseFn) -> PiecewiseFn:
    """min(u, v) in one walk over the common cells (`_cells_with`).  The law
    that wins on a cell (or on each side of the crossing that cuts it)
    extends the open run when the run ends where the cell starts, one end
    closed and one open, with the same slope and intercept, as `_coalesced`
    would join them.  A run becomes one Piece when the walk ends: the input
    piece whose law it carries, when the run has that piece's own ends, or
    one new Interval and Piece."""
    u._same_domain(v)
    runs = []  # [lo, hi, lo_closed, hi_closed, slope, intercept, the piece
    #            whose law the run carries]
    for lo, hi, lo_closed, hi_closed, p, q in u._cells_with(v):
        a1, b1, a2, b2 = p.slope, p.intercept, q.slope, q.intercept
        s, n, d = crossing(a1, b1, a2, b2)
        end, end_closed, cut = hi, hi_closed, False
        if s == 0:
            win = q if lt(b2, b1) else p
        else:
            # u is the lower law left of the crossing x0 when a1 > a2 and
            # right of it when a1 < a2
            left, right = (p, q) if s > 0 else (q, p)
            lo_side = side(lo, n, d)
            if lo_side >= 0:
                # right of x0; on the point cell x0 the two laws tie: keep u's
                win = p if lo_side == 0 and eq(lo, hi) else right
            else:
                win = left
                cut = side(hi, n, d) > 0
                if cut:
                    end, end_closed = Fraction(n, d), True
        a, b = win.slope, win.intercept
        last = runs[-1] if runs else None
        if (last is not None and last[3] != lo_closed and eq(last[1], lo)
                and (last[4] is a or eq(last[4], a)) and (last[5] is b or eq(last[5], b))):
            last[1], last[3] = end, end_closed
        else:
            runs.append([lo, end, lo_closed, end_closed, a, b, win])
        if cut:
            # cut at the crossing: the other law wins right of it
            runs.append([end, hi, False, hi_closed, right.slope, right.intercept, right])
    pieces = []
    for lo, hi, lo_closed, hi_closed, a, b, source in runs:
        iv = source.interval
        if (lo_closed == iv.lo_closed and hi_closed == iv.hi_closed
                and eq(lo, iv.lo) and eq(hi, iv.hi)):
            pieces.append(source)
        else:
            pieces.append(Piece(Interval(lo, hi, lo_closed, hi_closed), a, b))
    return PiecewiseFn(u.domain, tuple(pieces))


def _coalesced(pieces: Sequence[Piece]) -> tuple[Piece, ...]:
    """Merge each run of touching pieces (one end closed, the other open, at
    the same point) that share slope and intercept; point values stay."""
    out: list[Piece] = []
    for p in pieces:
        if out:
            last = out[-1]
            lv, iv = last.interval, p.interval
            if (lv.hi_closed != iv.lo_closed and eq(lv.hi, iv.lo)
                    and eq(last.slope, p.slope) and eq(last.intercept, p.intercept)):
                out[-1] = Piece(Interval(lv.lo, iv.hi, lv.lo_closed, iv.hi_closed),
                                p.slope, p.intercept)
                continue
        out.append(p)
    return tuple(out)

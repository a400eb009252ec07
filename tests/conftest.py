import signal
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import HealthCheck, settings, strategies as st

from linfweak.piecewise import Piece, PiecewiseFn
from linfweak.sets import NEG_INF, POS_INF, Domain, Interval, IntervalSet, closed, ivl, point

# Shared families (`corpus.family_by_name`) live for the whole session, and
# their terms keep |u|, supports, level sets and norms once asked
# (`PiecewiseFn._kept`), their certificates the sets they declare.  A test
# that corrupts a kernel (patches `abs_fn`, `min_of`, `step`, ...) must
# build fresh families with `FAMILIES[name]()`, so that no wrong value is
# stored on a shared term for later tests to read.

settings.register_profile(
    "default", deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
# twenty times the examples, for the exact-kernel differentials and grid oracles:
#   pytest tests/test_piecewise.py -k "Differential or GridOracles" \
#       --hypothesis-profile=deep
# and for the set walks:
#   pytest tests/test_sets.py -k "SweepOracles or CoverWalks or FirstOverlap" \
#       --hypothesis-profile=deep
# and for the parser fuzzing:
#   pytest tests/test_cli.py -k ParserFuzz --hypothesis-profile=deep
settings.register_profile("deep", settings.get_profile("default"), max_examples=2000)
settings.load_profile("default")


@st.composite
def rationals(draw, lo=-8, hi=8, max_den=12):
    num = draw(st.integers(lo * max_den, hi * max_den))
    den = draw(st.integers(1, max_den))
    return Fraction(num, den)


@st.composite
def interval_sets(draw, max_parts=3, bounded=True):
    """Random normalized interval sets with rational endpoints; unless
    `bounded`, sometimes with a left and/or a right ray added."""
    n = draw(st.integers(0, max_parts))
    parts = []
    for _ in range(n):
        a = draw(rationals())
        b = draw(rationals())
        lo, hi = (a, b) if a <= b else (b, a)
        lo_c = draw(st.booleans())
        hi_c = draw(st.booleans())
        if lo == hi:
            lo_c = hi_c = True
        parts.append(ivl(lo, hi, lo_c, hi_c))
    if not bounded:
        if draw(st.booleans()):
            parts.append(ivl(NEG_INF, draw(rationals()), False, draw(st.booleans())))
        if draw(st.booleans()):
            parts.append(ivl(draw(rationals()), POS_INF, draw(st.booleans()), False))
    return IntervalSet.of(*parts)


def grid_points(*sets: IntervalSet, density=4):
    """Rational probe points: all endpoints, midpoints between consecutive
    endpoints, and points beyond the extremes.  A membership oracle grid."""
    pts = set()
    for s in sets:
        pts.update(s.endpoints())
    pts = sorted(pts)
    probes = set(pts)
    for a, b in zip(pts, pts[1:]):
        for i in range(1, density):
            probes.add(a + (b - a) * Fraction(i, density))
    if pts:
        probes.add(pts[0] - 1)
        probes.add(pts[-1] + 1)
    return sorted(probes)


ORACLE_DOMAIN = Domain(IntervalSet.of(closed(-4, 4)))
# few laws, so that neighbouring pieces often share one
SLOPES = (Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2))
INTERCEPTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))


@st.composite
def piecewise_fns(draw, step=False, max_cuts=5):
    """Random piecewise-linear functions on ORACLE_DOMAIN = [-4, 4].  Each
    interior breakpoint is owned by the left piece, the right piece, a point
    piece of its own, or no piece (a null gap)."""
    drawn = draw(st.lists(rationals(lo=-4, hi=4, max_den=6), max_size=max_cuts))
    cuts = sorted({c for c in drawn if -4 < c < 4})
    ends = [Fraction(-4)] + cuts + [Fraction(4)]
    slopes = st.just(Fraction(0)) if step else st.sampled_from(SLOPES)
    laws = st.tuples(slopes, st.sampled_from(INTERCEPTS))
    triples = []
    lo_closed = True
    for a, b in zip(ends, ends[1:]):
        owner = "left" if b == 4 else draw(st.sampled_from(
            ("left", "right", "point", "gap")))
        triples.append((ivl(a, b, lo_closed, owner == "left"), *draw(laws)))
        if owner == "point":
            triples.append((point(b), *draw(laws)))
        lo_closed = owner == "right"
    return PiecewiseFn.from_pieces(ORACLE_DOMAIN, triples)


def function_probes(*fns, extra=()):
    """grid_points over every breakpoint of the given functions (and every
    endpoint of the `extra` sets), keeping the points that lie in a piece of
    each function (gap points are evaluated by convention, not by a piece)."""
    sets = [IntervalSet.of(p.interval) for f in fns for p in f.pieces]
    return [x for x in grid_points(*sets, *extra)
            if all(any(p.interval.contains(x) for p in f.pieces) for f in fns)]


# -- test-side references: common cells, {u > v} and a.e. equality in plain
# Fraction operators, and builders of scaled and shifted functions.  None of
# them calls the piecewise kernels that the tests check.


def _ref_meet(a, b):
    """a n b as (lo, hi, lo_closed, hi_closed), or None when empty."""
    if a.lo > b.lo:
        lo, lo_closed = a.lo, a.lo_closed
    elif b.lo > a.lo:
        lo, lo_closed = b.lo, b.lo_closed
    else:
        lo, lo_closed = a.lo, a.lo_closed and b.lo_closed
    if a.hi < b.hi:
        hi, hi_closed = a.hi, a.hi_closed
    elif b.hi < a.hi:
        hi, hi_closed = b.hi, b.hi_closed
    else:
        hi, hi_closed = a.hi, a.hi_closed and b.hi_closed
    if lo < hi or (lo == hi and lo_closed and hi_closed):
        return lo, hi, lo_closed, hi_closed
    return None


def ref_cells(u, v):
    """The non-empty meets of every piece p of u with every piece q of v,
    as (lo, hi, lo_closed, hi_closed, p, q): p-major order is x order,
    since the pieces of u are disjoint and in order."""
    return [(*meet, p, q) for p in u.pieces for q in v.pieces
            if (meet := _ref_meet(p.interval, q.interval)) is not None]


def _ref_gt(p, c):
    """{a x + b > c} on the piece."""
    a, b, iv = p.slope, p.intercept, p.interval
    if a == 0:
        return iv if b > c else None
    x0 = (c - b) / a
    if a > 0:
        if x0 < iv.lo:
            return iv
        return Interval(x0, iv.hi, False, iv.hi_closed) if x0 < iv.hi else None
    if iv.hi < x0:
        return iv
    return Interval(iv.lo, x0, iv.lo_closed, False) if iv.lo < x0 else None


def ref_exceeds(u, v):
    """{u > v}: on each common cell {(a1 - a2) x + b1 - b2 > 0}."""
    return IntervalSet.of(*[
        _ref_gt(Piece(Interval(lo, hi, lo_closed, hi_closed), p.slope - q.slope,
                      p.intercept - q.intercept), Fraction(0))
        for lo, hi, lo_closed, hi_closed, p, q in ref_cells(u, v)])


def ref_ae_equal(u, v):
    """u = v almost everywhere: two affine laws agree on a cell of positive
    length only when they are the same law."""
    assert u.domain.carrier == v.domain.carrier
    return all((p.slope, p.intercept) == (q.slope, q.intercept)
               for lo, hi, _, _, p, q in ref_cells(u, v) if lo < hi)


def scaled(u, c):
    """c u, piece for piece."""
    return PiecewiseFn(u.domain, tuple(
        Piece(p.interval, c * p.slope, c * p.intercept) for p in u.pieces))


def shifted(u, c):
    """u + c, piece for piece."""
    return PiecewiseFn(u.domain, tuple(
        Piece(p.interval, p.slope, p.intercept + c) for p in u.pieces))


class WallClockLimit(AssertionError):
    """A call ran past the wall-clock limit of `within_seconds`."""


@contextmanager
def within_seconds(seconds: int):
    """Fail the enclosed block once `seconds` of wall time have passed, so a
    test of a bounded-time answer fails instead of hanging (SIGALRM, so the
    block must run in the main thread)."""
    def expire(signum, frame):
        raise WallClockLimit(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

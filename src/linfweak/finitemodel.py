"""Brute-force laboratory: the dual theory on finite measure spaces.

On a finite space every set is measurable, every finitely additive measure
is a vector of point masses (and automatically sigma-additive, so the purely
finitely additive part is always zero), and the whole dual-space story is
computable by enumeration: 0-1 measures are exactly the principal ones at
positive-weight points, they biject with ultrafilters, they are the extreme
points of the dual unit ball, and integrating against them sweeps out the
essential range.  Subsets are bitmasks over point indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from typing import Iterable, Optional, Sequence

from .polytope import _bits, vertex_enumeration
from .sets import rat


class FiniteModelError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteSpace:
    """n atom-points with nonnegative weights (the measure of each point)."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.weights:
            raise FiniteModelError("need at least one point")
        if any(w < 0 for w in self.weights):
            raise FiniteModelError("weights must be nonnegative")

    @staticmethod
    def of(*weights) -> "FiniteSpace":
        return FiniteSpace(tuple(rat(w) for w in weights))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def subsets(self) -> Iterable[int]:
        return range(1 << self.n)

    def measure(self, mask: int) -> Fraction:
        return sum((self.weights[i] for i in _bits(mask)), Fraction(0))

    def is_null(self, mask: int) -> bool:
        return self.measure(mask) == 0

    def positive_points(self) -> list[int]:
        return [i for i, w in enumerate(self.weights) if w > 0]


def mask_of(points: Sequence[int], n: int) -> int:
    m = 0
    for p in points:
        if not 0 <= p < n:
            raise FiniteModelError(f"point {p} outside the space")
        m |= 1 << p
    return m


@dataclass(frozen=True)
class FAVector:
    """A finitely additive measure as its vector of point masses."""

    masses: tuple[Fraction, ...]

    @staticmethod
    def of(*masses) -> "FAVector":
        return FAVector(tuple(rat(m) for m in masses))

    def value(self, mask: int) -> Fraction:
        return sum((self.masses[i] for i in _bits(mask)), Fraction(0))

    def total_variation(self) -> Fraction:
        return sum(abs(m) for m in self.masses)

    def scale(self, c: Fraction) -> "FAVector":
        return FAVector(tuple(c * m for m in self.masses))

    def __neg__(self):
        return self.scale(Fraction(-1))


@dataclass(frozen=True)
class ZeroOneMeasure:
    """A 0-1 measure: on a finite space always principal at one point of
    positive weight (so it vanishes on null sets)."""

    point: int

    def value(self, mask: int) -> Fraction:
        return Fraction(1) if (mask >> self.point) & 1 else Fraction(0)

    def to_vector(self, n: int) -> FAVector:
        masses = [Fraction(0)] * n
        masses[self.point] = Fraction(1)
        return FAVector(tuple(masses))


# ---------------------------------------------------------------------------
# 0-1 measures and ultrafilters


def enumerate_zero_one_measures(space: FiniteSpace) -> list[ZeroOneMeasure]:
    """Exactly one 0-1 measure per positive-weight point."""
    return [ZeroOneMeasure(i) for i in space.positive_points()]


def enumerate_zero_one_measures_bruteforce(space: FiniteSpace) -> list[dict[int, Fraction]]:
    """Independent oracle for small n: enumerate every {0,1}-valued set
    function and keep those that are finitely additive, vanish on null sets
    and have total mass 1.  Exponential in 2^n; meant for n <= 4."""
    n = space.n
    if n > 4:
        raise FiniteModelError("brute force is limited to n <= 4")
    masks = list(space.subsets())
    disjoint_pairs = [(a, b) for a in masks for b in masks if a & b == 0]
    nulls = [m for m in masks if space.is_null(m)]
    found = []
    for assignment in product((Fraction(0), Fraction(1)), repeat=len(masks)):
        nu = dict(zip(masks, assignment))
        if nu[0] != 0 or nu[space.full_mask] != 1:
            continue
        if any(nu[m] != 0 for m in nulls):
            continue
        if any(nu[a | b] != nu[a] + nu[b] for a, b in disjoint_pairs):
            continue
        found.append(nu)
    return found


def filter_of(omega: ZeroOneMeasure, space: FiniteSpace) -> frozenset[int]:
    """F(omega) = { E : omega(E) = 1 }, as a set of masks."""
    return frozenset(m for m in space.subsets() if omega.value(m) == 1)


def is_filter(F: frozenset[int], space: FiniteSpace) -> bool:
    if space.full_mask not in F:
        return False
    if any(space.is_null(m) for m in F):
        return False
    for a in F:
        for b in F:
            if (a & b) not in F:
                return False
    for a in F:
        for b in space.subsets():
            if (b & a) == a and b not in F:
                return False
    return True


def is_ultrafilter(F: frozenset[int], space: FiniteSpace) -> bool:
    """Maximality: for every set, it or its complement belongs to the filter;
    equivalent to having no strictly larger filter."""
    return is_filter(F, space) and _is_maximal(F, space)


def _is_maximal(F: frozenset[int], space: FiniteSpace) -> bool:
    full = space.full_mask
    return all(m in F or (full ^ m) in F for m in space.subsets())


def measure_from_filter(F: frozenset[int], space: FiniteSpace) -> dict[int, Fraction]:
    return {m: Fraction(1) if m in F else Fraction(0) for m in space.subsets()}


def ultrafilter_roundtrip(omega: ZeroOneMeasure, space: FiniteSpace) -> dict:
    """omega -> filter -> omega', checking the filter axioms and maximality
    along the way; the roundtrip must reproduce omega on every set."""
    F = filter_of(omega, space)
    is_f = is_filter(F, space)
    axioms = {"filter": is_f, "ultrafilter": is_f and _is_maximal(F, space)}
    back = measure_from_filter(F, space)
    axioms["roundtrip"] = all(back[m] == omega.value(m) for m in space.subsets())
    return {"filter": F, "checks": axioms}


# ---------------------------------------------------------------------------
# integration, Dirac constants, essential range


def integrate(u: Sequence, nu) -> Fraction:
    """The integral of u against nu, an `FAVector` or a `ZeroOneMeasure`:
    the sum of u_i * m_i.  Every coordinate of u is read as a `Fraction` (a
    float raises `TypeError`), but only the nonzero masses are multiplied: a
    signed 0-1 measure has one."""
    masses = nu.masses if isinstance(nu, FAVector) else \
        nu.to_vector(len(u)).masses
    if len(u) != len(masses):
        raise FiniteModelError("dimension mismatch")
    total = Fraction(0)
    for ui, m in zip(u, masses):
        ui = rat(ui)
        if m:
            total += ui * m
    return total


def dirac_alpha(u: Sequence, omega: ZeroOneMeasure, space: FiniteSpace) -> Fraction:
    """The unique alpha with omega({ |u - alpha| < eps }) = 1 for every eps;
    it equals the integral, and |alpha| equals the integral of |u|."""
    u = [rat(x) for x in u]
    if len(u) != space.n:
        raise FiniteModelError("dimension mismatch")
    alpha = integrate(u, omega)
    if u[omega.point] != alpha:
        raise FiniteModelError("principal measure does not see its point value")
    abs_int = integrate([abs(x) for x in u], omega)
    if abs_int != abs(alpha):
        raise FiniteModelError("the |alpha| identity failed")
    return alpha


def dirac_alpha_is_unique(u: Sequence, omega: ZeroOneMeasure, space: FiniteSpace,
                          candidates: Optional[Iterable[Fraction]] = None) -> bool:
    """No other candidate value satisfies the small-ball condition: for beta
    != alpha some eps makes omega({ |u - beta| < eps }) = 0."""
    u = [rat(x) for x in u]
    alpha = dirac_alpha(u, omega, space)
    if candidates is None:
        candidates = set(u) | {alpha + 1, alpha - 1}
    for beta in candidates:
        beta = rat(beta)
        if beta == alpha:
            continue
        eps = abs(beta - alpha) / 2
        ball = mask_of([i for i, ui in enumerate(u) if abs(ui - beta) < eps], space.n)
        if omega.value(ball) != 0:
            return False
    return True


def essential_range_bruteforce(u: Sequence, space: FiniteSpace) -> set[Fraction]:
    """Both sides of the identity { integral of u against omega } = R(u),
    computed independently and asserted equal."""
    u = [rat(x) for x in u]
    left = {integrate(u, w) for w in enumerate_zero_one_measures(space)}
    # right side straight from the definition: alpha qualifies iff every
    # epsilon-ball around it has positive measure
    values = sorted(set(u))
    gaps = [b - a for a, b in zip(values, values[1:]) if b > a]
    eps_floor = min(gaps) / 2 if gaps else Fraction(1)
    right = set()
    for alpha in values:
        eps_grid = [Fraction(1), eps_floor, eps_floor / 2]
        if all(space.measure(mask_of(
                [i for i, ui in enumerate(u) if abs(ui - alpha) < eps], space.n)) > 0
               for eps in eps_grid):
            right.add(alpha)
    if left != right:
        raise FiniteModelError(
            f"essential range identity violated: dual side {left}, range side {right}")
    return left


# ---------------------------------------------------------------------------
# Jordan decomposition


@dataclass(frozen=True)
class JordanDecomposition:
    positive: FAVector
    negative: FAVector

    @property
    def total_variation(self) -> Fraction:
        return self.positive.total_variation() + self.negative.total_variation()


def jordan(nu: FAVector, space: FiniteSpace, verify: bool = True) -> JordanDecomposition:
    """nu = nu+ - nu-, computed by the sign split and (when verify is on)
    checked against the lattice formula (nu v 0)(E) = sup { nu(F) : F subseteq E }
    over every subset, by the subset-max transform of nu's subset sums (the
    zeta transform in the (max, +) semiring)."""
    if len(nu.masses) != space.n:
        raise FiniteModelError("dimension mismatch")
    pos = FAVector(tuple(max(m, Fraction(0)) for m in nu.masses))
    neg = FAVector(tuple(max(-m, Fraction(0)) for m in nu.masses))
    if verify:
        _check_lattice_formula(nu, pos)
        meet = tuple(min(p, q) for p, q in zip(pos.masses, neg.masses))
        if any(m != 0 for m in meet):
            raise FiniteModelError("nu+ and nu- are not mutually singular")
    return JordanDecomposition(pos, neg)


def _check_lattice_formula(nu: FAVector, pos: FAVector) -> None:
    """pos(E) = sup { nu(F) : F subseteq E } on every mask E, in integers:
    both vectors are scaled by the lcm of their denominators."""
    scale = lcm(*(m.denominator for m in nu.masses + pos.masses))
    best = _sup_table([int(m * scale) for m in nu.masses])
    want = _subset_sums([int(m * scale) for m in pos.masses])
    if best != want:
        mask = next(m for m, (b, w) in enumerate(zip(best, want)) if b != w)
        raise FiniteModelError(
            f"sup formula disagrees with the sign split on mask {mask}")


def _subset_sums(masses: Sequence[int]) -> list[int]:
    """The sum of the masses over every mask, in one pass: once point i is
    in, the masks that contain it are those without it plus mass i."""
    table = [0]
    for m in masses:
        table += [v + m for v in table]
    return table


def _sup_table(masses: Sequence[int]) -> list[int]:
    """best[E] = max { sum of the masses over F : F subseteq E } on every
    mask E (the empty F gives 0): the subset-max transform of the subset
    sums, n * 2^(n-1) comparisons.  Round i lets each mask that contains
    point i take the best of the same mask without it."""
    best = _subset_sums(masses)
    size = len(best)
    for i in range(len(masses)):
        bit = 1 << i
        for lo in range(0, size, 2 * bit):
            for m in range(lo + bit, lo + 2 * bit):
                if best[m - bit] > best[m]:
                    best[m] = best[m - bit]
    return best


def yosida_hewitt_split(nu: FAVector, space: FiniteSpace) -> tuple[FAVector, FAVector]:
    """(purely finitely additive part, sigma-additive part).  On a finite
    space every finitely additive measure is sigma-additive (only finitely
    many disjoint non-empty sets exist), so the split is (0, nu)."""
    zero = FAVector(tuple(Fraction(0) for _ in nu.masses))
    return zero, nu


def is_purely_finitely_additive(nu: FAVector, space: FiniteSpace) -> bool:
    """Via the nested-sets criterion: a nonnegative purely finitely additive
    measure keeps full mass on sets of arbitrarily small lambda-measure, which
    on a finite space forces it to vanish."""
    pos = FAVector(tuple(max(m, Fraction(0)) for m in nu.masses))
    neg = FAVector(tuple(max(-m, Fraction(0)) for m in nu.masses))
    return all(m == 0 for m in pos.masses) and all(m == 0 for m in neg.masses)


def atom_formula_check(omega: ZeroOneMeasure, space: FiniteSpace) -> bool:
    """omega(E) = lambda(E n E_omega) / lambda(E_omega) with the atom E_omega
    being the carrying point."""
    e_omega = 1 << omega.point
    lam = space.measure(e_omega)
    if lam == 0:
        return False
    return all(omega.value(m) == space.measure(m & e_omega) / lam
               for m in space.subsets())


# ---------------------------------------------------------------------------
# extreme points and Rainwater reduction


def extreme_points_unit_ball(space: FiniteSpace) -> list[FAVector]:
    """Vertices of { nu : |nu|(X) <= 1, nu null on null points } by exact
    halfspace-intersection enumeration; they must coincide with the plus or
    minus 0-1 measures, which is asserted."""
    pos = space.positive_points()
    d = len(pos)
    if d == 0:
        return []
    constraints = []
    for signs in product((1, -1), repeat=d):
        constraints.append((tuple(Fraction(s) for s in signs), Fraction(1)))
    verts = vertex_enumeration(constraints)
    out = []
    for v in verts:
        masses = [Fraction(0)] * space.n
        for coord, p in zip(v, pos):
            masses[p] = coord
        out.append(FAVector(tuple(masses)))
    expected = _signed_zero_one_measures(space)
    if set(out) != set(expected):
        raise FiniteModelError(
            f"extreme points {sorted(v.masses for v in out)} differ from the "
            f"0-1 measures {sorted(v.masses for v in expected)}")
    return sorted(out, key=lambda v: v.masses)


def _signed_zero_one_measures(space: FiniteSpace) -> list[FAVector]:
    """The plus and minus 0-1 measures, sorted by their masses."""
    units = [w.to_vector(space.n) for w in enumerate_zero_one_measures(space)]
    return sorted(units + [-v for v in units], key=lambda v: v.masses)


@dataclass
class RainwaterReport:
    ball_converges: bool
    extreme_converges: bool

    @property
    def agree(self) -> bool:
        return self.ball_converges == self.extreme_converges


def _eventually_constant(seq: Sequence[Fraction]) -> bool:
    return all(x == seq[-1] for x in seq[len(seq) // 2:])


def rainwater_check(space: FiniteSpace, vectors: Sequence[Sequence]) -> RainwaterReport:
    """Convergence (eventual constancy over the supplied horizon) of the
    integrals against every ball element versus against extreme points only.
    Ball elements are sampled exactly: the vertices plus rational convex
    combinations, which decide the whole ball by convexity.  The integral is
    linear in the measure, so each combination's sequence is the same
    combination of two extreme points' sequences."""
    if len(vectors) < 4:
        raise FiniteModelError("need a few terms to talk about convergence")
    us = [[rat(x) for x in u] for u in vectors]
    if any(len(u) != space.n for u in us):
        raise FiniteModelError("dimension mismatch")
    # the extreme points of the unit ball, as extreme_points_unit_ball
    # asserts against its vertex enumeration
    extremes = _signed_zero_one_measures(space)
    if not extremes:
        return RainwaterReport(True, True)
    seqs = [[integrate(u, w) for u in us] for w in extremes]
    extreme = all(_eventually_constant(s) for s in seqs)
    # the samples: the extreme points, the zero measure and two convex
    # combinations of each pair of extreme points
    ball = extreme and _eventually_constant([Fraction(0)] * len(us)) and all(
        _eventually_constant([(x + y) / 2 for x, y in zip(a, b)])
        and _eventually_constant([(x + 2 * y) / 3 for x, y in zip(a, b)])
        for a, b in combinations(seqs, 2))
    return RainwaterReport(ball, extreme)

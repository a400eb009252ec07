"""Restriction of finitely additive functionals to C_0: the hat measure.

A purely finitely additive 0-1 measure is represented constructively by a
nested base of positive-measure interval sets B_1 >= B_2 >= ...; the measure
takes the value 1 on every B_l, and a set query is answered only when the
base forces it:

    one           some B_l is contained in the set up to a null set
    zero          some B_l meets the set in a null set
    undetermined  neither, for ANY l (certified symbolically)

Base endpoints are affine in l and 1/l, so all order relations between
endpoints stabilize beyond a computable index and the tail measures of
B_l \\ E and B_l n E are exact functions a + b/l + c*l, determined by
interpolation and consistency checks.  That makes the three-valued query
total: 'undetermined' is a theorem about every l, not a budget artifact.
Each member B_l is built once per base and shared by its checks, queries
and witnesses.  The base's own crossing bound is stored when it is built,
so a query adds only the crossings of base endpoints with its set's
endpoints, and it works that threshold out only when levels 1 and 2 leave
the answer open.

Each level test is one merge walk over sorted parts that builds no set:
`IntervalSet.subset_up_to_null` for 'one', `IntervalSet.meets` for 'zero'.
The members already lie in the carrier, so a query clips its set to the
carrier only for the threshold and the tail.  The endpoint arithmetic is
the integer-pair kernel of :mod:`linfweak.rational`: `EndFn.at` builds one
`Fraction` per endpoint, the crossing bounds are integer ceilings, and the
tail fit solves for a, b and c by integer Cramer's rule.

Each base is read once, when built, as the point of the one-point
compactification X_inf = X u {inf} where it concentrates (a 0-1 measure is
an ultrafilter).  An escape from every compact of X, through a lost
boundary point or to +-inf, is the point at infinity here (`weaknull-at` at
such a boundary point localizes along that single route instead); a part
keeping positive length, or limits on both sides of the carrier's edge,
leave the base unresolved.  The Borel measure representing the restriction
to C_0(X) is computed from the forced answers and these limits alone (so
it is the same for every extension of the base): an atom whose base shrinks
to a point of X contributes a Dirac mass there; an atom at infinity
contributes nothing; the sigma-additive density passes through.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .piecewise import PiecewiseFn
from .points import ExtPoint
from .rational import cauchy_bound, diff, end_value, fit_abc
from .sets import (Domain, Interval, IntervalSet, NEG_INF, POS_INF,
                   SetAlgebraError, is_finite, ivl, rat)

ONE = "one"
ZERO = "zero"
UNDETERMINED = "undetermined"

_ZERO = Fraction(0)
CHECK_LEVELS = 8    # levels checked one by one when a base is built
COMPACT_SCAN = 64   # members searched for a compact closure in the carrier
MINIMAX_BUDGET = 8  # dyadic steps of the minimax compacts and opens


class UnsupportedOracleError(ValueError):
    """The base's accumulation structure is outside the resolvable class;
    raised instead of ever returning a wrong answer."""


class OracleConsistencyError(ValueError):
    """A bound that must hold for every extension failed: the supplied
    composite oracle is internally inconsistent."""


@dataclass(frozen=True)
class EndFn:
    """Endpoint as a function of the base index: const + inv/l + lin*l."""

    const: Fraction
    inv: Fraction = Fraction(0)
    lin: Fraction = Fraction(0)

    def at(self, ell: int) -> Fraction:
        return end_value(self.const, self.inv, self.lin, ell)

    def limit(self) -> Union[Fraction, float]:
        if self.lin > 0:
            return POS_INF
        if self.lin < 0:
            return NEG_INF
        return self.const


@dataclass(frozen=True)
class BasePart:
    """One interval of the base; None endpoints mean -inf / +inf."""

    lo: Optional[EndFn]
    hi: Optional[EndFn]
    lo_closed: bool
    hi_closed: bool

    @staticmethod
    def affine(lo_c, lo_inv, hi_c, hi_inv, lo_closed=False, hi_closed=False) -> "BasePart":
        return BasePart(EndFn(rat(lo_c), rat(lo_inv)), EndFn(rat(hi_c), rat(hi_inv)),
                        lo_closed, hi_closed)

    def at(self, ell: int) -> Optional[Interval]:
        lo = self.lo.at(ell) if self.lo is not None else NEG_INF
        hi = self.hi.at(ell) if self.hi is not None else POS_INF
        return ivl(lo, hi, self.lo_closed, self.hi_closed)

    def endpoint_fns(self) -> list[EndFn]:
        return [e for e in (self.lo, self.hi) if e is not None]


def _crossing_bound(f: EndFn, g: EndFn) -> Optional[int]:
    """An index beyond which f - g keeps one sign: bound the roots of
    (f.lin-g.lin) l^2 + (f.const-g.const) l + (f.inv-g.inv) = 0."""
    return cauchy_bound(diff(f.lin, g.lin), diff(f.const, g.const),
                        diff(f.inv, g.inv))


@dataclass(frozen=True)
class BaseFormula:
    """Finitely many BaseParts, optionally index-shifted (the base is read at
    l + index_shift, a cofinal reindexing with identical forcing power)."""

    parts: tuple[BasePart, ...]
    index_shift: int = 0

    def at(self, ell: int) -> IntervalSet:
        if ell < 1:
            raise ValueError("base index starts at 1")
        return self.raw_at(ell + self.index_shift)

    def raw_at(self, m: int) -> IntervalSet:
        return IntervalSet.of(*[p.at(m) for p in self.parts])

    def raw_threshold(self) -> int:
        """A raw index beyond which every order relation between base
        endpoints is frozen; `FilterBaseMeasure._threshold` adds the
        constants of a query."""
        fns = [f for p in self.parts for f in p.endpoint_fns()]
        worst = 1
        for i in range(len(fns)):
            for j in range(i + 1, len(fns)):
                b = _crossing_bound(fns[i], fns[j])
                if b is not None:
                    worst = max(worst, b)
        return max(worst, self.index_shift + 1)


class FilterBaseMeasure:
    """A 0-1 finitely additive measure pinned down by omega(B_l) = 1.

    `limit` is the point of X_inf where the base concentrates: a point of
    the carrier, or infinity when every limit of the base falls outside the
    carrier.  It is None when the base has no single limit, and
    `limit_detail` then says why."""

    def __init__(self, formula: BaseFormula, domain: Domain):
        self.formula = formula
        self.domain = domain
        carrier = domain.carrier
        # members by raw level; the formula is immutable and IntervalSet is
        # frozen, so every reader can share them
        self._members: dict[int, IntervalSet] = {}
        self._endpoint_fns = [f for p in formula.parts for f in p.endpoint_fns()]
        self._base_threshold = formula.raw_threshold()
        # past raw level `frozen` no endpoint order changes, so positive
        # measure there is positive measure at every later level
        frozen = self._base_threshold + 1
        levels = (*range(1, CHECK_LEVELS + 1),
                  max(frozen - formula.index_shift, CHECK_LEVELS))
        for i, ell in enumerate(levels):
            b = self.at(ell)
            if not b.is_subset(carrier):
                raise SetAlgebraError(f"B_{ell} leaves the carrier")
            if b.is_null():
                raise SetAlgebraError(f"B_{ell} is lambda-null; filter bases "
                                      "need positive measure at every level")
            if i and not b.is_subset(prev):
                raise SetAlgebraError(f"B_{ell} is not nested inside B_{levels[i-1]}")
            prev = b
        self._check_tail_nested()
        self.limit, self.limit_detail = _base_limit(formula, frozen, carrier)

    def _check_tail_nested(self):
        for p in self.formula.parts:
            if p.lo is not None and not (p.lo.lin > 0 or (p.lo.lin == 0 and p.lo.inv <= 0)):
                raise UnsupportedOracleError(
                    "base part lower endpoint is not eventually non-decreasing")
            if p.hi is not None and not (p.hi.lin < 0 or (p.hi.lin == 0 and p.hi.inv >= 0)):
                raise UnsupportedOracleError(
                    "base part upper endpoint is not eventually non-increasing")

    def at(self, ell: int) -> IntervalSet:
        if ell < 1:
            raise ValueError("base index starts at 1")
        return self._member(ell + self.formula.index_shift)

    def _member(self, m: int) -> IntervalSet:
        """B at raw level m, built once per base."""
        b = self._members.get(m)
        if b is None:
            b = self._members[m] = self.formula.raw_at(m)
        return b

    def _threshold(self, constants: Sequence[Fraction]) -> int:
        """A raw index past which no order between base endpoints and the
        constants changes, so measures of derived sets are a + b/m + c*m.
        Two constants never cross: only base-constant pairs raise it.
        Against a constant k, f - k has the coefficients f.lin - 0,
        f.const - k and f.inv - 0."""
        worst = self._base_threshold
        consts = [rat(k) for k in constants]
        for f in self._endpoint_fns:
            a, c = diff(f.lin, _ZERO), diff(f.inv, _ZERO)
            for k in consts:
                b = cauchy_bound(a, diff(f.const, k), c)
                if b is not None and b > worst:
                    worst = b
        return worst

    # -- the three-valued query ---------------------------------------------

    def query(self, e: IntervalSet) -> str:
        """Forced value of omega(e), or 'undetermined' (certified for all l).

        Members are built once per base and shared by every query.  Levels 1
        and 2 are always scanned, so the endpoint threshold is worked out
        only when neither decides.  The scanned members lie in the carrier
        (the constructor checks it), so the level tests read e as given;
        the threshold and the tail read e inside the carrier."""
        # The base is nested, so both measures below are non-increasing in
        # ell and the tail test alone decides; the scan is an early exit,
        # capped so that a late endpoint crossing costs no long walk.
        for ell in (1, 2):
            answer = self._scan_level(ell, e)
            if answer is not None:
                return answer
        e = e.intersect(self.domain.carrier)
        m_star = self._threshold(e.endpoints())
        scan_hi = min(max(1, m_star - self.formula.index_shift) + 1, CHECK_LEVELS)
        for ell in range(3, scan_hi + 1):
            answer = self._scan_level(ell, e)
            if answer is not None:
                return answer
        if self._tail_identically_null(lambda b: b.difference(e), m_star):
            return ONE
        if self._tail_identically_null(lambda b: b.intersect(e), m_star):
            return ZERO
        return UNDETERMINED

    def _scan_level(self, ell: int, e: IntervalSet) -> Optional[str]:
        b = self.at(ell)
        if b.subset_up_to_null(e):
            return ONE
        if not b.meets(e):
            return ZERO
        return None

    def _tail_identically_null(self, setfn: Callable[[IntervalSet], IntervalSet],
                               m_star: int) -> bool:
        """Is lambda(setfn(B_m)) = 0 for some (hence all larger) raw m > m_star?

        Beyond the stabilization index the measure is exactly a + b/m + c*m;
        three samples determine it, a fourth confirms.  The quantity is
        non-increasing (bases are nested), so it hits zero at a finite index
        iff it is identically zero on the tail.
        """
        samples = []
        idx = [m_star + 1, m_star + 2, m_star + 3, m_star + 4]
        for m in idx:
            v = setfn(self._member(m)).measure()
            if v == POS_INF:
                return False
            samples.append(v)
        m1, m2, m3, m4 = idx
        v1, v2, v3, v4 = samples
        a, b, c = fit_abc((m1, v1), (m2, v2), (m3, v3))
        if a + b / m4 + c * m4 != v4:
            raise OracleConsistencyError("tail measure is not of the stabilized "
                                         "form a + b/m + c*m; threshold too small")
        return a == 0 and b == 0 and c == 0


def _base_limit(formula: BaseFormula, probe: int,
                carrier: IntervalSet) -> tuple[Optional[ExtPoint], str]:
    """Where the base concentrates, read from the endpoint limits of the
    parts alive past the raw level `probe`: a single point of the carrier,
    infinity when every limit falls outside the carrier, or None with the
    reason when a part keeps positive length or the limits straddle the
    carrier's edge."""
    points: set[Union[Fraction, float]] = set()
    for p in formula.parts:
        if p.at(probe) is None and p.at(probe + 1) is None:
            continue  # the part died before the tail
        lo_lim = p.lo.limit() if p.lo is not None else NEG_INF
        hi_lim = p.hi.limit() if p.hi is not None else POS_INF
        if lo_lim == hi_lim and is_finite(lo_lim):
            points.add(lo_lim)
        elif lo_lim == POS_INF or hi_lim == NEG_INF:
            # the part slides away whole
            points.add(POS_INF if lo_lim == POS_INF else NEG_INF)
        else:
            return None, (f"a base part keeps positive length in the limit "
                          f"([{lo_lim}, {hi_lim}])")
    finite_pts = sorted(q for q in points if is_finite(q))
    infinite = [q for q in points if not is_finite(q)]
    in_carrier = [q for q in finite_pts if carrier.contains(q)]
    if not in_carrier:
        return ExtPoint.infinity(), ""
    if len(finite_pts) == 1 and not infinite:
        return ExtPoint.at(in_carrier[0]), ""
    return None, (f"base oscillates between {_point_list(finite_pts + infinite)}, "
                  f"of which {_point_list(in_carrier)} lie in the carrier; the "
                  f"extension is not pinned down")


def _point_list(points: Sequence[Union[Fraction, float]]) -> str:
    return "[" + ", ".join(str(q) for q in points) + "]"


# ---------------------------------------------------------------------------
# composite finitely additive functionals


@dataclass(frozen=True)
class QueryResult:
    lower: Union[Fraction, float]
    upper: Union[Fraction, float]
    determined: bool
    atom_answers: tuple[str, ...]
    density_part: Union[Fraction, float]


class CompositeFA:
    """nu = sum_i c_i omega_i + g lambda with c_i > 0, omega_i filter-base
    measures, g >= 0 an integrable step density."""

    def __init__(self, atoms: Sequence[tuple[Fraction, FilterBaseMeasure]] = (),
                 density: Optional[PiecewiseFn] = None,
                 domain: Optional[Domain] = None):
        self.atoms = tuple((rat(c), base) for c, base in atoms)
        for c, _ in self.atoms:
            if c <= 0:
                raise ValueError("atom coefficients must be positive")
        if domain is None:
            if self.atoms:
                domain = self.atoms[0][1].domain
            elif density is not None:
                domain = density.domain
            else:
                raise ValueError("an empty functional still needs a domain")
        self.domain = domain
        for _, base in self.atoms:
            if base.domain.carrier != domain.carrier:
                raise ValueError("all atoms must live on the same carrier")
        if density is None:
            density = PiecewiseFn.constant(domain, 0)
        if density.domain.carrier != domain.carrier:
            raise ValueError("the density must live on the functional's carrier")
        if not density.is_step():
            raise ValueError("densities are step functions here")
        for p in density.pieces:
            if p.intercept < 0:
                raise ValueError("densities must be nonnegative")
            if p.intercept > 0 and not p.interval.is_bounded():
                raise ValueError("density must be integrable")
        self.density = density

    def density_integral(self, e: IntervalSet) -> Fraction:
        return _step_integral(self.density, e)  # its pieces lie in the carrier

    def total_mass(self) -> Fraction:
        return sum((c for c, _ in self.atoms), Fraction(0)) + \
            self.density_integral(self.domain.carrier)


def _step_integral(density: PiecewiseFn, e: IntervalSet) -> Fraction:
    total = Fraction(0)
    for p in density.pieces:
        if p.intercept != 0:
            total += p.intercept * IntervalSet.of(p.interval).intersect(e).measure()
    return total


def fa_query(nu: CompositeFA, e: IntervalSet) -> QueryResult:
    """Bounds on nu(e) valid for every extension of the filter bases."""
    answers = tuple(base.query(e) for _, base in nu.atoms)
    dens = nu.density_integral(e)
    lower = dens + sum((c for (c, _), a in zip(nu.atoms, answers) if a == ONE),
                       Fraction(0))
    upper = lower + sum((c for (c, _), a in zip(nu.atoms, answers)
                         if a == UNDETERMINED), Fraction(0))
    return QueryResult(lower, upper, all(a != UNDETERMINED for a in answers),
                       answers, dens)


# ---------------------------------------------------------------------------
# the hat measure


@dataclass(frozen=True)
class RegularBorel:
    """Point masses plus a step density: the class closed under restriction
    of composite functionals to C_0."""

    point_masses: tuple[tuple[Fraction, Fraction], ...]  # (location, mass)
    density: PiecewiseFn

    def measure_of(self, b: IntervalSet) -> Fraction:
        total = _step_integral(self.density, b)
        for x, m in self.point_masses:
            if b.contains(x):
                total += m
        return total

    def total_mass(self) -> Fraction:
        return self.measure_of(IntervalSet.real_line())

    def is_zero(self) -> bool:
        return not self.point_masses and all(p.intercept == 0
                                             for p in self.density.pieces)


def hat(nu: CompositeFA) -> RegularBorel:
    """The Borel measure representing the restriction of nu to C_0(X).

    Each atom contributes its coefficient as a Dirac mass at its base's
    limit, when that limit is a point of X and some base member has compact
    closure inside X; an atom at infinity contributes nothing.  Unresolved
    bases raise instead of guessing, and a measure that escapes the minimax
    enclosures of nu raises `OracleConsistencyError`.
    """
    masses: dict[Fraction, Fraction] = {}
    for c, base in nu.atoms:
        x0 = _resolved_limit(base)
        if x0.is_infinite:
            continue
        _first_compact_level(base)
        masses[x0.x] = masses.get(x0.x, Fraction(0)) + c
    out = RegularBorel(tuple(sorted(masses.items())), nu.density)
    _validate_against_minimax(nu, out)
    return out


def _resolved_limit(base: FilterBaseMeasure) -> ExtPoint:
    if base.limit is None:
        raise UnsupportedOracleError(base.limit_detail)
    return base.limit


def _first_compact_level(base: FilterBaseMeasure) -> int:
    """The first level whose member has compact closure inside the carrier
    (the later, nested members then have one too)."""
    carrier = base.domain.carrier
    for ell in range(1, COMPACT_SCAN + 1):
        cl = base.at(ell).closure()
        if cl.is_compact() and cl.is_subset(carrier):
            return ell
    raise UnsupportedOracleError(
        "no base member with compact closure inside the carrier was found; "
        "the Dirac contribution cannot be certified")


def _validate_against_minimax(nu: CompositeFA, rb: RegularBorel):
    probes = []
    for x, _ in rb.point_masses:
        probes.append(IntervalSet.of(ivl(x - Fraction(1, 8), x + Fraction(1, 8),
                                         False, False)).intersect(nu.domain.carrier))
    probes.append(nu.domain.carrier)
    for b in probes:
        if b.is_empty():
            continue
        lo, hi = minimax_value(nu, b, side="inf-sup")
        v = rb.measure_of(b)
        if not (lo <= v <= hi):
            raise OracleConsistencyError(
                f"hat value {v} on {b} escapes the minimax enclosure [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# minimax evaluation


def relative_interior_open(s: IntervalSet, carrier: IntervalSet) -> bool:
    """Is s open in the subspace topology of the carrier?"""
    outside = carrier.difference(s)
    return s == carrier.difference(outside.closure())


def _inner_compacts(b: IntervalSet) -> list[IntervalSet]:
    """An increasing family of compacts inside b (open finite endpoints move
    in by 1/2^m, unbounded ends are clipped at +-2^m)."""
    out = []
    for m in range(1, MINIMAX_BUDGET + 1):
        k = b.compact_core(Fraction(1, 2 ** m), 2 ** m)
        if not k.is_empty():
            out.append(k)
    if b.is_compact() and not b.is_empty():
        out.append(b)
    return out


def _outer_opens(b: IntervalSet, carrier: IntervalSet) -> list[IntervalSet]:
    out = []
    for m in range(1, MINIMAX_BUDGET + 1):
        out.append(b.fatten(Fraction(1, 2 ** m)).intersect(carrier))
    if relative_interior_open(b, carrier):
        out.append(b)
    return out


def minimax_value(nu: CompositeFA, b: IntervalSet,
                  side: str = "inf-sup") -> tuple[Fraction, Fraction]:
    """Certified enclosure of hat(nu)(b) through the minimax formula over
    rational-endpoint compacts and opens.

    'inf-sup' (infimum over opens G >= b of the supremum of nu over compacts
    inside G) is evaluated as: upper bounds from forced queries on a
    shrinking family of opens, lower bounds from forced queries on an
    exhausting family of compacts inside b.  'sup-inf' strengthens the lower
    bound: for a compact k <= b the inner infimum over opens is itself
    bounded below by the atoms forced to 1 on every open superset of k.
    Both enclosures contain the true value for every extension of the bases.
    """
    if side not in ("inf-sup", "sup-inf"):
        raise ValueError("side is 'inf-sup' or 'sup-inf'")
    carrier = nu.domain.carrier
    b = b.intersect(carrier)
    compacts = _inner_compacts(b)
    opens = _outer_opens(b, carrier)
    # omega(G) = 1 is forced for EVERY open G containing a compact k iff the
    # base shrinks to a point of k (B_l then enters each fattening of k, and
    # every open superset of a compact contains a fattening)
    points = [(c, base.limit.x) for c, base in nu.atoms
              if base.limit is not None and not base.limit.is_infinite]
    lower = Fraction(0)
    for k in compacts:
        cand = fa_query(nu, k).lower
        if side == "sup-inf":
            forced = sum((c for c, x in points if k.contains(x)), Fraction(0))
            cand = max(cand, forced + nu.density_integral(k))
        lower = max(lower, cand)
    upper = nu.total_mass()
    for g in opens:
        upper = min(upper, fa_query(nu, g).upper)
    if lower > upper:
        raise OracleConsistencyError(
            f"minimax enclosure is empty on {b}: [{lower}, {upper}]")
    return lower, upper


# ---------------------------------------------------------------------------
# singularity detection and the howd bounds


@dataclass(frozen=True)
class SingularityWitness:
    alpha: Fraction
    compacts: tuple[IntervalSet, ...]
    measures: tuple[Fraction, ...]
    lower_bounds: tuple[Fraction, ...]


def singularity_witness(nu: CompositeFA, alpha, count: int = 8) -> Optional[SingularityWitness]:
    """Nested compacts K_n with forced nu(K_n) >= alpha and lambda(K_n) -> 0,
    drawn from the bases of atoms that restrict to Dirac masses; None when
    the Dirac mass available is below alpha (step densities contribute no
    singular part)."""
    alpha = rat(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if count <= 0:
        raise ValueError("count must be positive")
    dirac_atoms = [(c, base) for c, base in nu.atoms
                   if not _resolved_limit(base).is_infinite]
    total = sum((c for c, _ in dirac_atoms), Fraction(0))
    if total < alpha or not dirac_atoms:
        return None
    # the union of the atoms' closed hulls is compact inside the carrier
    # from the last of their first compact levels on
    start = max(_first_compact_level(base) for _, base in dirac_atoms)
    compacts, measures, lowers = [], [], []
    for n in range(start, start + count):
        hulls = [base.at(n).closure() for _, base in dirac_atoms]
        k = IntervalSet.of(*[h for hull in hulls for h in hull.parts])
        lower = fa_query(nu, k).lower
        if lower < alpha:
            raise OracleConsistencyError(
                f"singularity witness lost mass at n={n}: {lower} < {alpha}")
        compacts.append(k)
        measures.append(k.measure())
        lowers.append(lower)
    return SingularityWitness(alpha, tuple(compacts), tuple(measures), tuple(lowers))


@dataclass(frozen=True)
class HowdReport:
    lower_on_k: Fraction
    hat_on_b: Fraction
    upper_on_g: Fraction

    @property
    def ok(self) -> bool:
        return self.lower_on_k <= self.hat_on_b <= self.upper_on_g


def howd_bounds_check(nu: CompositeFA, k: IntervalSet, b: IntervalSet,
                      g: IntervalSet) -> HowdReport:
    """Verify nu(K) <= hat(nu)(B) <= nu(G) for K compact <= B <= G open,
    using the forced query bounds for the outer nu-values."""
    carrier = nu.domain.carrier
    if not k.is_compact():
        raise ValueError("K must be compact")
    if not relative_interior_open(g.intersect(carrier), carrier):
        raise ValueError("G must be open in the carrier")
    if not (k.is_subset(b) and b.is_subset(g)):
        raise ValueError("need K <= B <= G")
    rb = hat(nu)
    report = HowdReport(fa_query(nu, k).lower, rb.measure_of(b),
                        fa_query(nu, g).upper)
    if not report.ok:
        raise OracleConsistencyError(
            f"howd chain violated: {report.lower_on_k} <= {report.hat_on_b} "
            f"<= {report.upper_on_g} fails")
    return report

import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from conftest import interval_sets, within_seconds
from linfweak.corpus import (app3_base, closed_dirac_base, dirac_base,
                             escaping_base)
from linfweak.piecewise import PiecewiseFn
from linfweak.points import ExtPoint
from linfweak.rational import fit_abc
from linfweak.restriction import (CHECK_LEVELS, BaseFormula, BasePart,
                                  CompositeFA, EndFn, FilterBaseMeasure, ONE,
                                  UNDETERMINED, UnsupportedOracleError, ZERO,
                                  _crossing_bound, fa_query, hat,
                                  howd_bounds_check,
                                  minimax_value, relative_interior_open,
                                  singularity_witness)
from linfweak.sets import (NEG_INF, POS_INF, Domain, IntervalSet,
                           SetAlgebraError, closed, ico, ivl, opened, point)

X01 = Domain.open_interval(0, 1)


def S(*parts):
    return IntervalSet.of(*parts)


def fat_base():
    """B_l = (0, 1/2 + 1/(l+1)): keeps positive length in the limit."""
    return FilterBaseMeasure(
        BaseFormula((BasePart.affine(0, 0, F(1, 2), 1, False, False),),
                    index_shift=1), X01)


def two_point_base():
    """Shrinks to 1/4 and to 3/4 at once: both limits lie in the carrier."""
    return FilterBaseMeasure(
        BaseFormula((BasePart.affine(F(1, 4), -1, F(1, 4), 1, False, False),
                     BasePart.affine(F(3, 4), -1, F(3, 4), 1, False, False)),
                    index_shift=8), X01)


def two_ended_base():
    """B_l = (0, 1/l) u (1 - 1/l, 1): escapes through both ends of (0,1)."""
    return FilterBaseMeasure(
        BaseFormula((BasePart.affine(0, 0, 0, 1, False, False),
                     BasePart.affine(1, -1, 1, 0, False, False))), X01)


class TestFilterBase:
    def test_nestedness_enforced(self):
        growing = BaseFormula((BasePart.affine(0, 0, 0, -1, False, False),))
        with pytest.raises(SetAlgebraError):
            FilterBaseMeasure(growing, X01)

    def test_positive_measure_enforced(self):
        # B_l = (1/2, 1/2): empty
        degenerate = BaseFormula((BasePart.affine(F(1, 2), 0, F(1, 2), 0,
                                                  False, False),))
        with pytest.raises(SetAlgebraError):
            FilterBaseMeasure(degenerate, X01)

    def test_carrier_containment_enforced(self):
        wide = BaseFormula((BasePart.affine(-1, 0, 1, 0, False, False),))
        with pytest.raises(SetAlgebraError):
            FilterBaseMeasure(wide, X01)

    def test_base_emptying_out_after_the_checked_levels_rejected(self):
        # (1/2 - 1/l, 3/8 + 1/l) is empty from l = 16 on
        late = BaseFormula((BasePart.affine(F(1, 2), -1, F(3, 8), 1,
                                            False, False),))
        with pytest.raises(SetAlgebraError, match="lambda-null"):
            FilterBaseMeasure(late, Domain.open_interval(-1, 2))


class TestLimit:
    def test_corpus_bases(self):
        assert escaping_base().limit == ExtPoint.infinity()
        assert dirac_base().limit == ExtPoint.at(F(1, 2))
        assert closed_dirac_base().limit == ExtPoint.at(F(1, 2))
        assert app3_base().limit == ExtPoint.at(0)

    def test_escape_through_both_ends_is_infinity(self):
        base = two_ended_base()
        assert base.limit == ExtPoint.infinity()
        assert hat(CompositeFA([(F(1), base)])).is_zero()

    def test_unresolved_bases_keep_their_reason(self):
        fat, two = fat_base(), two_point_base()
        assert fat.limit is None and two.limit is None
        assert fat.limit_detail.startswith("a base part keeps positive length")
        assert two.limit_detail.startswith("base oscillates between")

    def test_oscillation_reason_prints_points_plainly(self):
        # shrinks to 1/2 and slides off to +inf along (l, inf)
        base = FilterBaseMeasure(
            BaseFormula((BasePart.affine(F(1, 2), -1, F(1, 2), 1),
                         BasePart(EndFn(F(0), F(0), F(1)), None, False, False)),
                        index_shift=3), Domain.open_interval(0, POS_INF))
        assert base.limit is None
        assert base.limit_detail == ("base oscillates between [1/2, inf], of which "
                                     "[1/2] lie in the carrier; the extension is "
                                     "not pinned down")

    def test_sup_inf_encloses_on_an_unresolved_base(self):
        for base, b in ((fat_base(), S(opened(0, F(1, 4)))),
                        (two_point_base(), S(opened(0, F(1, 2))))):
            nu = CompositeFA([(F(1), base)])
            assert minimax_value(nu, b, side="sup-inf") == (0, 1)


class TestQuery:
    def test_contained_tail_gives_one(self):
        assert escaping_base().query(S(opened(0, F(1, 2)))) == ONE

    def test_disjoint_tail_gives_zero(self):
        assert escaping_base().query(S(opened(F(1, 2), 1))) == ZERO

    def test_interleaved_blocks_zero_after_threshold(self):
        blocks = S(*[opened(F(1, 2 * k + 1), F(1, 2 * k)) for k in range(1, 9)])
        assert escaping_base().query(blocks) == ZERO

    def test_late_endpoint_crossing_is_decided_by_the_tail(self):
        # B_l = (1/2 - 1/(4l), 1/2 + 1/(4l)) lies in the set only from about
        # l = 250000 on; no level scan may walk there
        base = FilterBaseMeasure(
            BaseFormula((BasePart.affine(F(1, 2), F(-1, 4), F(1, 2), F(1, 4)),)), X01)
        with within_seconds(5):
            assert base.query(S(opened(F(499999, 1000000), 1))) == ONE
            assert base.query(S(opened(0, F(499999, 1000000)))) == ZERO

    def test_fat_base_is_undetermined(self):
        fat = fat_base()
        assert fat.query(S(opened(0, F(1, 4)))) == UNDETERMINED
        assert fat.query(S(opened(0, F(3, 4)))) == ONE
        assert fat.query(S(opened(F(3, 4), 1))) == ZERO

    def test_bounds_and_determined_flag(self):
        nu = CompositeFA([(F(1), fat_base())])
        q = fa_query(nu, S(opened(0, F(1, 4))))
        assert (q.lower, q.upper, q.determined) == (0, 1, False)

    def test_density_contributes_exactly(self):
        dens = PiecewiseFn.constant(X01, F(2))
        nu = CompositeFA([(F(1, 3), dirac_base())], density=dens)
        q = fa_query(nu, S(opened(F(1, 4), F(3, 4))))
        assert q.density_part == 1
        assert q.lower == 1 + F(1, 3)  # the base is eventually inside
        assert q.determined

    def test_density_on_another_carrier_rejected(self):
        dens = PiecewiseFn.constant(Domain.open_interval(0, 2), 1)
        with pytest.raises(ValueError, match="the functional's carrier"):
            CompositeFA([(F(1), dirac_base())], density=dens)
        with pytest.raises(ValueError, match="the functional's carrier"):
            CompositeFA([], density=dens, domain=X01)

    @given(interval_sets())
    def test_density_integral_reaching_outside_the_carrier(self, e):
        # plain reference: each level times its measure inside e n carrier
        low, high = S(opened(0, F(1, 3))), S(ico(F(1, 2), F(3, 4)))
        # 1/7 off the levels: a level on the carrier, the others shifted
        dens = PiecewiseFn.step(X01, [(X01.carrier, F(1, 7)), (low, F(2) - F(1, 7)),
                                      (high, F(5) - F(1, 7))])
        inside = e.intersect(X01.carrier)
        rest = inside.difference(low.union(high))
        expected = (2 * low.intersect(inside).measure()
                    + 5 * high.intersect(inside).measure()
                    + F(1, 7) * rest.measure())
        assert CompositeFA([], density=dens).density_integral(e) == expected


class TestHat:
    def test_escaping_base_vanishes(self):
        rb = hat(CompositeFA([(F(1), escaping_base())]))
        assert rb.is_zero()

    def test_dirac_base(self):
        rb = hat(CompositeFA([(F(1), dirac_base())]))
        assert rb.point_masses == ((F(1, 2), F(1)),)

    def test_pure_density_passes_through(self):
        dens = PiecewiseFn.step(X01, [(S(opened(0, F(1, 2))), F(3))])
        rb = hat(CompositeFA([], density=dens))
        assert rb.point_masses == ()
        assert rb.measure_of(S(opened(0, F(1, 4)))) == F(3, 4)

    def test_app3_base_concentrates_at_origin(self):
        rb = hat(CompositeFA([(F(1), app3_base())]))
        assert rb.point_masses == ((F(0), F(1)),)

    def test_unsupported_fat_base(self):
        nu = CompositeFA([(F(1), fat_base())])
        text = r"^a base part keeps positive length in the limit \(\[0, 1/2\]\)$"
        with pytest.raises(UnsupportedOracleError, match=text):
            hat(nu)
        with pytest.raises(UnsupportedOracleError, match=text):
            singularity_witness(nu, F(1, 2))

    def test_unsupported_two_point_base(self):
        nu = CompositeFA([(F(1), two_point_base())])
        text = (r"^base oscillates between \[1/4, 3/4\], of which \[1/4, 3/4\] "
                r"lie in the carrier; the extension is not pinned down$")
        with pytest.raises(UnsupportedOracleError, match=text):
            hat(nu)
        with pytest.raises(UnsupportedOracleError, match=text):
            singularity_witness(nu, F(1, 2))

    def test_dichotomy_never_fractional(self):
        for base in (escaping_base(), dirac_base(), app3_base(),
                     closed_dirac_base()):
            rb = hat(CompositeFA([(F(1), base)]))
            assert rb.is_zero() or \
                (len(rb.point_masses) == 1 and rb.point_masses[0][1] == 1)

    def test_surprise_c_every_neighborhood_forced(self):
        base = dirac_base()
        for ell in range(1, 9):
            ball = S(opened(F(1, 2) - F(1, ell), F(1, 2) + F(1, ell))).intersect(
                X01.carrier)
            assert base.query(ball) == ONE

    def test_total_mass_accounting(self):
        dens = PiecewiseFn.constant(X01, F(1, 2))
        nu_esc = CompositeFA([(F(1), escaping_base())], density=dens)
        rb = hat(nu_esc)
        assert rb.total_mass() == F(1, 2) < nu_esc.total_mass()
        nu_stay = CompositeFA([(F(1), dirac_base())], density=dens)
        assert hat(nu_stay).total_mass() == nu_stay.total_mass()

    def test_monotone_consistency(self):
        nu = CompositeFA([(F(1), dirac_base())],
                         density=PiecewiseFn.constant(X01, 1))
        rb = hat(nu)
        chain = [S(opened(F(3, 8), F(5, 8))), S(opened(F(1, 4), F(3, 4))),
                 S(opened(0, 1))]
        values = [rb.measure_of(b) for b in chain]
        assert values == sorted(values)

    def test_alexandroff_compact_density_identity(self):
        # compact X = [0,1], regular (density-only) functional: hat = nu
        dom = Domain.closed_interval(0, 1)
        dens = PiecewiseFn.step(dom, [(dom.carrier, F(1, 3)),
                                      (S(ico(0, F(1, 2))), F(2) - F(1, 3))])
        nu = CompositeFA([], density=dens, domain=dom)
        rb = hat(nu)
        grid = [S(closed(0, F(1, 4))), S(opened(F(1, 4), F(7, 8))),
                S(ico(F(1, 2), 1)), dom.carrier]
        for b in grid:
            assert rb.measure_of(b) == nu.density_integral(b)


class TestMinimax:
    def test_ball_around_dirac(self):
        nu = CompositeFA([(F(1), dirac_base())])
        for side in ("inf-sup", "sup-inf"):
            lo, hi = minimax_value(nu, S(opened(F(1, 4), F(3, 4))), side=side)
            assert lo == hi == 1

    def test_singleton_needs_sup_inf(self):
        nu = CompositeFA([(F(1), dirac_base())])
        lo, hi = minimax_value(nu, S(point(F(1, 2))), side="sup-inf")
        assert lo == hi == 1
        lo2, hi2 = minimax_value(nu, S(point(F(1, 2))), side="inf-sup")
        assert lo2 <= 1 <= hi2

    def test_zero_functional(self):
        nu = CompositeFA([], density=PiecewiseFn.constant(X01, 0), domain=X01)
        assert minimax_value(nu, S(opened(F(1, 8), F(7, 8)))) == (0, 0)

    def test_enclosures_contain_hat_value(self):
        dens = PiecewiseFn.constant(X01, F(1, 4))
        nu = CompositeFA([(F(2, 3), dirac_base()), (F(1, 3), escaping_base())],
                         density=dens)
        rb = hat(nu)
        for b in (S(opened(0, F(1, 2))), S(opened(F(1, 3), F(2, 3))),
                  S(ico(F(1, 2), 1))):
            v = rb.measure_of(b)
            for side in ("inf-sup", "sup-inf"):
                lo, hi = minimax_value(nu, b, side=side)
                assert lo <= v <= hi


class TestSingularity:
    def test_closed_dirac_witness(self):
        nu = CompositeFA([(F(1), closed_dirac_base())])
        wit = singularity_witness(nu, F(1, 2), count=6)
        assert wit.measures == tuple(F(2, n) for n in range(1, 7))
        assert all(lb >= 1 for lb in wit.lower_bounds)
        for a, b in zip(wit.compacts, wit.compacts[1:]):
            assert b.is_subset(a)

    def test_escaping_base_has_none(self):
        assert singularity_witness(CompositeFA([(F(1), escaping_base())]),
                                   F(1, 2)) is None

    def test_pure_density_has_none(self):
        nu = CompositeFA([], density=PiecewiseFn.constant(X01, 1), domain=X01)
        assert singularity_witness(nu, F(1, 2)) is None

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_must_be_positive(self, count):
        nu = CompositeFA([(F(1), closed_dirac_base())])
        with pytest.raises(ValueError, match="^count must be positive$"):
            singularity_witness(nu, F(1, 2), count=count)

    def test_level_above_available_mass(self):
        nu = CompositeFA([(F(1, 4), closed_dirac_base())])
        assert singularity_witness(nu, F(1, 2)) is None
        assert singularity_witness(nu, F(1, 8)) is not None


class TestHowd:
    def test_dirac_chain(self):
        nu = CompositeFA([(F(1), dirac_base())])
        rep = howd_bounds_check(nu, S(closed(F(1, 4), F(3, 4))),
                                S(opened(F(1, 8), F(7, 8))), S(opened(0, 1)))
        assert (rep.lower_on_k, rep.hat_on_b, rep.upper_on_g) == (1, 1, 1)

    def test_escaping_lower_is_zero(self):
        nu = CompositeFA([(F(1), escaping_base())])
        rep = howd_bounds_check(nu, S(closed(F(1, 4), F(1, 2))),
                                S(opened(F(1, 8), F(5, 8))),
                                S(opened(F(1, 16), F(3, 4))))
        assert rep.lower_on_k == 0 and rep.hat_on_b == 0

    def test_density_chain(self):
        nu = CompositeFA([], density=PiecewiseFn.constant(X01, 1), domain=X01)
        rep = howd_bounds_check(nu, S(closed(F(1, 4), F(1, 2))),
                                S(opened(F(1, 8), F(5, 8))),
                                S(opened(F(1, 8), F(5, 8))))
        assert (rep.lower_on_k, rep.hat_on_b, rep.upper_on_g) == \
            (F(1, 4), F(1, 2), F(1, 2))

    def test_grid_of_nested_triples(self):
        nu = CompositeFA([(F(1, 2), dirac_base()), (F(1, 2), escaping_base())],
                         density=PiecewiseFn.constant(X01, F(1, 3)))
        count = 0
        for i in range(1, 6):
            for j in range(i, 6):
                k = S(closed(F(1, 2) - F(i, 16), F(1, 2) + F(i, 16)))
                b = S(opened(F(1, 2) - F(j, 16) - F(1, 32),
                             F(1, 2) + F(j, 16) + F(1, 32)))
                g = b.fatten(F(1, 32)).intersect(X01.carrier)
                rep = howd_bounds_check(nu, k, b, g)
                assert rep.ok
                count += 1
        assert count >= 15

    def test_bad_inputs_rejected(self):
        nu = CompositeFA([(F(1), dirac_base())])
        with pytest.raises(ValueError):
            howd_bounds_check(nu, S(opened(F(1, 4), F(3, 4))),
                              S(opened(0, 1)), S(opened(0, 1)))


class TestRelativeTopology:
    def test_open_in_open_carrier(self):
        assert relative_interior_open(S(opened(0, F(1, 2))), X01.carrier)
        assert not relative_interior_open(S(ico(F(1, 4), F(1, 2))), X01.carrier)

    def test_relatively_open_at_closed_boundary(self):
        carrier = Domain.closed_interval(0, 1).carrier
        assert relative_interior_open(S(ico(0, F(1, 2))), carrier)
        assert not relative_interior_open(S(ico(F(1, 4), F(1, 2))), carrier)


# ---------------------------------------------------------------------------
# members built once per base, threshold only past level 2


def affine_dirac(c, a, b):
    """B_l = (c - a/l, c + b/l) on (0,1), a dual-models shape."""
    return FilterBaseMeasure(BaseFormula((BasePart.affine(c, -a, c, b),)), X01)


def affine_escape(e):
    """B_l = (0, e/l) on (0,1), a dual-models shape."""
    return FilterBaseMeasure(BaseFormula((BasePart.affine(0, 0, 0, e),)), X01)


# The Fraction-operator formulas that the integer-slot kernels replaced.


def ref_end_at(f, ell):
    return f.const + f.inv / ell + f.lin * ell


def ref_crossing_bound(f, g):
    a, b, c = f.lin - g.lin, f.const - g.const, f.inv - g.inv
    if a == 0 and b == 0:
        return None
    if a == 0:
        root = -c / b
        return max(1, math.ceil(root) + 1) if root > 0 else 1
    cauchy = 1 + max(abs(b), abs(c)) / abs(a)
    return max(1, math.ceil(cauchy) + 1)


def ref_fit_abc(p1, p2, p3):
    (l1, v1), (l2, v2), (l3, v3) = p1, p2, p3
    a11, a12, r1 = F(1, l2) - F(1, l1), l2 - l1, v2 - v1
    a21, a22, r2 = F(1, l3) - F(1, l1), l3 - l1, v3 - v1
    det = a11 * a22 - a12 * a21
    b = (r1 * a22 - a12 * r2) / det
    c = (a11 * r2 - r1 * a21) / det
    return v1 - b / l1 - c * l1, b, c


def ref_member(formula, m):
    return IntervalSet.of(*[
        ivl(NEG_INF if p.lo is None else ref_end_at(p.lo, m),
            POS_INF if p.hi is None else ref_end_at(p.hi, m),
            p.lo_closed, p.hi_closed) for p in formula.parts])


def ref_threshold(formula, constants):
    fns = [f for p in formula.parts for f in p.endpoint_fns()]
    fns += [EndFn(F(k)) for k in constants]
    bounds = [ref_crossing_bound(f, g) for i, f in enumerate(fns) for g in fns[i + 1:]]
    return max([1, formula.index_shift + 1] + [b for b in bounds if b is not None])


def reference_query(base, e):
    """The query as it was before the walks: the full endpoint threshold
    worked out before the scan, every member built afresh with Fraction
    operators, and each level decided by a difference and an intersection
    set."""
    formula = base.formula
    e = e.intersect(base.domain.carrier)
    m_star = ref_threshold(formula, e.endpoints())
    scan_hi = min(max(1, m_star - formula.index_shift) + 1, CHECK_LEVELS)
    for ell in range(1, scan_hi + 1):
        b = ref_member(formula, ell + formula.index_shift)
        if b.difference(e).is_null():
            return ONE
        if b.intersect(e).is_null():
            return ZERO
    for answer, setfn in ((ONE, lambda b: b.difference(e)),
                          (ZERO, lambda b: b.intersect(e))):
        idx = [F(m) for m in range(m_star + 1, m_star + 5)]
        vals = [setfn(ref_member(formula, int(m))).measure() for m in idx]
        if POS_INF in vals:
            continue
        a, b, c = ref_fit_abc(*zip(idx[:3], vals[:3]))
        assert a + b / idx[3] + c * idx[3] == vals[3]
        if a == b == c == 0:
            return answer
    return UNDETERMINED


def shifted_dirac(c, shift):
    """B_l = (c - 1/(l+shift), c + 1/(l+shift)) on (0,1)."""
    return FilterBaseMeasure(
        BaseFormula((BasePart.affine(c, -1, c, 1),), index_shift=shift), X01)


def multi_part(c, a, b, e):
    """A punctured neighbourhood of c with an escape through 0 beside it:
    (0, e/l) u (c - a/l, c) u (c, c + b/l), three parts on (0,1)."""
    return FilterBaseMeasure(BaseFormula((
        BasePart.affine(0, 0, 0, e), BasePart.affine(c, -a, c, 0),
        BasePart.affine(c, 0, c, b))), X01)


def seeded_bases(rng):
    """The four corpus bases and the dual-models shapes (two-sided, escaping,
    index-shifted and multi-part), each with its carrier's ends and the point
    its endpoints tend to."""
    c = F(rng.randint(5, 15), 20)
    a, b = F(1, rng.randint(5, 9)), F(1, rng.randint(5, 9))
    e = F(1, rng.randint(4, 8))
    return [(escaping_base(), 0, 1, 0), (dirac_base(), 0, 1, F(1, 2)),
            (closed_dirac_base(), -1, 2, F(1, 2)), (app3_base(), -1, 1, 0),
            (affine_dirac(c, a, b), 0, 1, c),
            (affine_escape(F(1, rng.randint(1, 4))), 0, 1, 0),
            (shifted_dirac(c, rng.randint(3, 6)), 0, 1, c),
            (multi_part(c, a, b, e), 0, 1, c)]


def seeded_set(rng, lo, hi, x):
    """1 to 3 intervals whose ends lie on a grid of [lo, hi] or near x,
    where the base's endpoints cross them at late levels."""
    ends, count = set(), 2 * rng.randint(1, 3)
    while len(ends) < count:
        if rng.random() < 0.5:
            ends.add(lo + (hi - lo) * F(rng.randint(0, 64), 64))
        else:
            ends.add(x + F(rng.choice((-1, 1)), rng.randint(1, 40)))
    ends = sorted(ends)
    return IntervalSet.of(*[
        ivl(ends[i], ends[i + 1], rng.random() < 0.5, rng.random() < 0.5)
        for i in range(0, len(ends), 2)])


def seeded_cases(seed, rounds):
    rng = random.Random(seed)
    for _ in range(rounds):
        for base, lo, hi, x in seeded_bases(rng):
            for _ in range(4):
                yield base, seeded_set(rng, lo, hi, x)


class TestMemberCache:
    def test_each_member_built_once_through_hat_and_singularity(self, monkeypatch):
        built = Counter()
        raw_at = BaseFormula.raw_at

        def counting(formula, m):
            built[id(formula), m] += 1
            return raw_at(formula, m)
        monkeypatch.setattr(BaseFormula, "raw_at", counting)
        dirac, escape = affine_dirac(F(7, 20), F(1, 6), F(1, 8)), affine_escape(F(1, 3))
        nu = CompositeFA([(F(3, 2), dirac), (F(2), escape)])
        assert hat(nu).point_masses == ((F(7, 20), F(3, 2)),)
        wit = singularity_witness(nu, F(3, 2))
        assert wit.measures == tuple(F(7, 24) / n for n in range(1, 9))
        assert {f for f, _ in built} == {id(dirac.formula), id(escape.formula)}
        assert max(built.values()) == 1

    def test_query_equals_the_rebuilding_reference(self):
        answers = Counter()
        for base, e in seeded_cases(7, 12):
            got = base.query(e)
            assert got == reference_query(base, e), (base.formula, e)
            answers[got] += 1
        assert answers[ONE] and answers[ZERO] and answers[UNDETERMINED]

    def test_stored_threshold_equals_the_all_pairs_threshold(self):
        for base, e in seeded_cases(11, 12):
            for s in (e, e.intersect(base.domain.carrier)):
                assert base._threshold(s.endpoints()) == \
                    ref_threshold(base.formula, s.endpoints())
            assert base.formula.raw_threshold() == ref_threshold(base.formula, ())

    def test_members_equal_the_fraction_builds(self):
        for base, _, _, _ in seeded_bases(random.Random(5)):
            for ell in range(1, 20):
                m = ell + base.formula.index_shift
                assert base.at(ell) == ref_member(base.formula, m)

    def test_forcing_is_monotone_in_the_set(self):
        # E <= E': one on E forces one on E', zero on E' forces zero on E
        rng = random.Random(29)
        answers = Counter()
        for _ in range(10):
            for base, lo, hi, x in seeded_bases(rng):
                e = seeded_set(rng, lo, hi, x)
                bigger = e.union(seeded_set(rng, lo, hi, x))
                small, big = base.query(e), base.query(bigger)
                answers[small, big] += 1
                if small == ONE:
                    assert big == ONE, (base.formula, e, bigger)
                if big == ZERO:
                    assert small == ZERO, (base.formula, e, bigger)
        assert answers[ONE, ONE] and answers[ZERO, ZERO] and answers[ZERO, ONE]
        assert answers[UNDETERMINED, UNDETERMINED]


# ---------------------------------------------------------------------------
# integer-slot kernels against the Fraction formulas


small_fractions = st.builds(F, st.integers(-40, 40), st.integers(1, 24))
end_fns = st.builds(EndFn, small_fractions, small_fractions, small_fractions)


class TestIntegerKernels:
    @given(end_fns, st.integers(1, 10 ** 6))
    def test_end_at(self, f, ell):
        got = f.at(ell)
        assert type(got) is F and got == ref_end_at(f, ell)

    @given(end_fns, end_fns)
    def test_crossing_bound(self, f, g):
        assert _crossing_bound(f, g) == ref_crossing_bound(f, g)

    @given(st.builds(EndFn, small_fractions, small_fractions), small_fractions,
           small_fractions)
    def test_crossing_bound_without_the_square_term(self, f, b, c):
        # a = 0 (both ends constant in l), and a = b = 0 with c free
        g = EndFn(f.const - b, f.inv - c)
        assert _crossing_bound(f, g) == ref_crossing_bound(f, g)
        h = EndFn(f.const, f.inv - c)
        assert _crossing_bound(f, h) is None is ref_crossing_bound(f, h)

    @given(small_fractions, small_fractions, small_fractions,
           st.lists(st.integers(1, 10 ** 4), min_size=3, max_size=3, unique=True))
    def test_fit_abc(self, a, b, c, ells):
        pts = [(ell, a + b / ell + c * ell) for ell in ells]
        assert fit_abc(*pts) == ref_fit_abc(*pts) == (a, b, c)

    @given(st.lists(st.integers(1, 60), min_size=3, max_size=3, unique=True),
           st.lists(small_fractions, min_size=3, max_size=3))
    def test_fit_abc_on_arbitrary_samples(self, ells, vals):
        pts = list(zip(ells, vals))
        assert fit_abc(*pts) == ref_fit_abc(*pts)

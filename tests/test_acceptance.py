"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Everything here is exact rational arithmetic unless a tolerance is stated
explicitly (the certified sine enclosures in criterion 4, whose widths are
pinned at 1e-9 and whose floors carry the stated 1e-6 slack).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from conftest import ref_exceeds
from linfweak.corpus import (closed_dirac_base, dirac_base, dini_nonnull,
                             dini_null, dyadic_indicators,
                             dyadic_indicators_minus, dyadic_indicators_plus,
                             escape_translates, escaping_base, sided_translates,
                             tents)
from linfweak.enclosure import sin_of_pi_multiple
from linfweak.engine import (NONNULL, NULL, Policy, intersection_measure,
                             test_weak_null, v_inf, witness_lower_bound)
from linfweak.families import (DisjointSupports, MappedStepFamily,
                               MonotoneEnvelope, NormLimit, SequenceFamily,
                               SinReciprocalFamily)
from linfweak.finitemodel import (FAVector, FiniteSpace,
                                  dirac_alpha, dirac_alpha_is_unique,
                                  enumerate_zero_one_measures,
                                  essential_range_bruteforce,
                                  extreme_points_unit_ball, jordan)
from linfweak.localize import test_weak_null_at
from linfweak.numtheory import (dyadic_divisibility_subsequence, lcm_list,
                                nested_midpoint, prime_power_nondivisor)
from linfweak.piecewise import PiecewiseFn, min_of
from linfweak.points import ExtPoint, WitnessPoint
from linfweak.restriction import (CompositeFA, hat, howd_bounds_check,
                                  singularity_witness)
from linfweak.sets import Domain, IntervalSet, closed, ico, opened

WIDTH = F(1, 10 ** 9)
SLACK = F(1, 10 ** 6)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{label}]: FAIL")
        raise
    print(f"criterion {number} [{label}]: PASS")


def test_criterion_1_dyadic_triple():
    with criterion(1, "dyadic block triple"):
        assert test_weak_null(dyadic_indicators()).is_null
        assert test_weak_null(dyadic_indicators_minus()).is_null
        plus = dyadic_indicators_plus()
        verdict = test_weak_null(plus)
        assert verdict.is_nonnull
        for J in range(1, 13):
            vj = v_inf(plus, list(range(1, J + 1)), J)
            plateau = IntervalSet.of(opened(0, F(1, 2 ** (J + 1))))
            on_plateau = vj.restrict(plateau)
            one = PiecewiseFn.constant(Domain(plateau), 1)
            # v_J = 1 exactly there
            assert ref_exceeds(on_plateau, one).is_empty()
            assert ref_exceeds(one, on_plateau).is_empty()
            # and nothing survives beyond the plateau's closure
            outside = vj.domain.carrier.difference(
                IntervalSet.of(ico(0, F(1, 2 ** (J + 1)))))
            assert vj.restrict(outside).ess_sup_norm() == 0


def test_criterion_2_tents():
    with criterion(2, "tents: pointwise null, weakly non-null"):
        fam = tents()
        rng = random.Random(31415926)
        points = [F(rng.randint(-2 ** 24 + 1, 2 ** 24 - 1), 2 ** 24)
                  for _ in range(1000)]
        for x in points:
            if x == 0:
                assert fam.term(5).eval(x) == 0
                continue
            k0 = int(2 / abs(x)) + 1  # supports live inside [-2/k, 2/k]
            for k in (k0, k0 + 1, k0 + 7):
                assert fam.term(k).eval(x) == 0
        verdict = test_weak_null(fam)
        assert verdict.is_nonnull and verdict.scheme == "superlevel-kernel"
        rows = {row["J"]: row for row in verdict.witness.table}
        for J in range(1, 13):
            assert rows[J]["kernel_measure"] == F(2, J) > 0
            if "intersection_measure" in rows[J]:
                assert rows[J]["intersection_measure"] >= F(2, J)


def test_criterion_3_translates():
    with criterion(3, "translates: global and localized verdicts"):
        assert test_weak_null(escape_translates()).is_null
        fam = sided_translates()
        assert test_weak_null(fam).is_nonnull
        for i in range(20):
            x0 = ExtPoint.at(F(i - 10, 2))
            assert test_weak_null_at(fam, x0).kind == NULL
        assert test_weak_null_at(fam, ExtPoint.infinity()).kind == NONNULL


def test_criterion_4_sin_witnesses():
    with criterion(4, "sin(1/(kx)) certified norm floors"):
        fam = SinReciprocalFamily()
        prefix = [2, 4, 8, 16]
        p, m = prime_power_nondivisor(prefix)
        assert (p, m) == (3, 1)
        x = WitnessPoint.inv_pi_multiple(F(lcm_list(prefix), p ** m))
        sin13 = sin_of_pi_multiple(F(1, 3), WIDTH)
        floor = sin13.hi - SLACK  # certifies |u| >= sin(pi/3) - 1e-6
        wb = witness_lower_bound(fam, prefix, 4, x, floor)
        assert wb.certified
        assert all(e.width() <= WIDTH for e in wb.enclosures)

        ks = dyadic_divisibility_subsequence(1, 4)
        x2 = WitnessPoint.inv_pi_multiple(nested_midpoint(ks))
        wb2 = witness_lower_bound(fam, ks[1:], 4, x2, F(0))
        assert all(e.width() <= WIDTH for e in wb2.enclosures)
        for enc in wb2.enclosures:
            # certified value >= 1/sqrt(2) - 1e-6, via the exact square test
            assert enc.lo + SLACK > 0 and (enc.lo + SLACK) ** 2 >= F(1, 2)


def test_criterion_5_finite_model_trials():
    with criterion(5, "finite models, 100 randomized trials"):
        start = time.monotonic()
        rng = random.Random(271828)
        for trial in range(100):
            n = rng.randint(1, 4)
            weights = [F(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(n)]
            if not any(weights):
                weights[rng.randrange(n)] = F(1, 2)
            space = FiniteSpace(tuple(weights))
            omegas = enumerate_zero_one_measures(space)
            # extreme points equal the plus/minus 0-1 measures (asserted inside)
            verts = extreme_points_unit_ball(space)
            assert len(verts) == 2 * len(omegas)
            u = [F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(n)]
            essential_range_bruteforce(u, space)  # both sides, asserted inside
            nu = FAVector(tuple(F(rng.randint(-8, 8), rng.randint(1, 4))
                                for _ in range(n)))
            jordan(nu, space, verify=True)  # sup formula over all 2^n subsets
            for w in omegas:
                alpha = dirac_alpha(u, w, space)
                assert dirac_alpha_is_unique(u, w, space)
                assert alpha == sum(ui * w.to_vector(n).masses[i]
                                    for i, ui in enumerate(u))
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"finite-model suite took {elapsed:.1f}s"


def test_criterion_6_restriction():
    with criterion(6, "restriction to C0: hat, howd grid, singularity"):
        nu_esc = CompositeFA([(F(1), escaping_base())])
        assert hat(nu_esc).is_zero()
        nu_dir = CompositeFA([(F(1), dirac_base())])
        assert hat(nu_dir).point_masses == ((F(1, 2), F(1)),)

        x01 = Domain.open_interval(0, 1)
        dens = PiecewiseFn.constant(x01, F(1, 3))
        cases = 0
        for atoms in ([(F(1), dirac_base())], [(F(1), escaping_base())],
                      [(F(1, 2), dirac_base()), (F(1, 2), escaping_base())]):
            for with_density in (False, True):
                nu = CompositeFA(atoms, dens if with_density else None)
                for i in range(1, 5):
                    for j in range(i, 5):
                        k = IntervalSet.of(closed(F(1, 2) - F(i, 16),
                                                  F(1, 2) + F(i, 16)))
                        b = IntervalSet.of(opened(F(1, 2) - F(j, 16) - F(1, 64),
                                                  F(1, 2) + F(j, 16) + F(1, 64)))
                        g = b.fatten(F(1, 64)).intersect(x01.carrier)
                        assert howd_bounds_check(nu, k, b, g).ok
                        cases += 1
        assert cases >= 50

        nu_sing = CompositeFA([(F(1), closed_dirac_base())])
        wit = singularity_witness(nu_sing, F(1, 2), count=8)
        assert wit.measures == tuple(F(2, n) for n in range(1, 9))
        assert all(lb == 1 for lb in wit.lower_bounds)


def _random_disjoint_indicator(rng, signed=False):
    """Indicator family over shifted dyadic blocks with a random positive
    width fraction; supports are pairwise disjoint by construction."""
    num = rng.randint(1, 3)
    den = rng.randint(num, 4)
    scale = F(num, den)
    height = F(rng.randint(1, 5), rng.randint(1, 3))
    if signed and rng.random() < 0.5:
        height = -height
    domain = Domain.open_interval(-1, 1)

    def sets(k):
        lo = F(1, 2 ** (k + 1))
        return IntervalSet.of(ico(lo, lo + scale * lo))

    class _Fam(SequenceFamily):
        def _term(self, k):
            return PiecewiseFn.step(self.domain, [(sets(k), height)])

    return _Fam(domain, f"rand-disjoint-{scale}-{height}", abs(height),
                (DisjointSupports("dyadic blocks scaled inward"),))


def _random_monotone(rng):
    domain = Domain.open_interval(0, 1)
    block = IntervalSet.of(opened(0, F(rng.randint(1, 3), 4)))
    limit = F(rng.randint(0, 2), 2)

    class _Fam(SequenceFamily):
        def _term(self, k):
            return PiecewiseFn.step(self.domain, [(block, limit + F(1, k))])

    return _Fam(domain, f"rand-monotone-{limit}", limit + 1,
                (MonotoneEnvelope(), NormLimit(limit, lambda k: F(1, k)))), limit


def _random_kernel_family(rng):
    return dyadic_indicators_plus()


def test_criterion_7_cross_cutting_properties():
    with criterion(7, "cross-cutting randomized properties"):
        rng = random.Random(1618033)
        fast = Policy(j_max=4, k_max=10)

        # (i) |u_k| verdict equivalence
        for _ in range(1000):
            roll = rng.random()
            if roll < 0.5:
                fam = _random_disjoint_indicator(rng, signed=True)
            elif roll < 0.75:
                fam, _ = _random_monotone(rng)
            else:
                fam = _random_kernel_family(rng)
            a = test_weak_null(fam, fast)
            b = test_weak_null(fam.abs_mapped(), fast)
            assert a.kind == b.kind, fam.name

        # (ii) intersection measure equals the superlevel measure of v_J
        # (the identity is asserted inside intersection_measure)
        alphas = [F(1, 2), F(1, 4), F(3, 4), F(1, 8)]
        for _ in range(1000):
            fam = (_random_disjoint_indicator(rng) if rng.random() < 0.6
                   else tents())
            J = rng.randint(1, 4)
            subseq = sorted(rng.sample(range(1, 12), J))
            intersection_measure(fam, subseq, rng.choice(alphas), J)

        # (iii) superlevel monotonicity in alpha and in J
        for _ in range(1000):
            fam = tents() if rng.random() < 0.5 else \
                _random_disjoint_indicator(rng, signed=True)
            ks = sorted(rng.sample(range(1, 10), 3))
            fns = [fam.term(k).abs_fn() for k in ks]
            a1, a2 = sorted([rng.choice(alphas), rng.choice(alphas)])
            u = fns[0]
            assert u.superlevel(a2).is_subset(u.superlevel(a1))
            v2, v3 = min_of(fns[:2]), min_of(fns)
            for alpha in (a1, a2):
                assert v3.superlevel(alpha).is_subset(v2.superlevel(alpha))

        # (iv) composition stability under F(t) = t^2
        for _ in range(1000):
            fam = _random_disjoint_indicator(rng, signed=True)
            assert test_weak_null(fam, fast).is_null
            squared = MappedStepFamily(fam, [F(0), F(0), F(1)])
            assert test_weak_null(squared, fast).is_null


def test_criterion_8_dini():
    with criterion(8, "Dini corollary, both directions"):
        assert test_weak_null(dini_null()).is_null
        nonnull = test_weak_null(dini_nonnull())
        assert nonnull.is_nonnull and nonnull.scheme == "monotone-norm-floor"
        rng = random.Random(8128)
        for _ in range(20):
            fam, limit = _random_monotone(rng)
            verdict = test_weak_null(fam)
            assert verdict.is_null == (limit == 0)

import random
from fractions import Fraction as F
from itertools import combinations, product
from math import lcm

import pytest
from hypothesis import given, strategies as st

from linfweak import finitemodel
from linfweak.cli import MAX_POINTS
from linfweak.finitemodel import (FAVector, FiniteModelError, FiniteSpace,
                                  ZeroOneMeasure, _check_lattice_formula,
                                  _sup_table, atom_formula_check,
                                  dirac_alpha, dirac_alpha_is_unique,
                                  enumerate_zero_one_measures,
                                  enumerate_zero_one_measures_bruteforce,
                                  essential_range_bruteforce,
                                  extreme_points_unit_ball, integrate,
                                  is_filter, is_purely_finitely_additive,
                                  is_ultrafilter, jordan, mask_of,
                                  rainwater_check, ultrafilter_roundtrip,
                                  yosida_hewitt_split)
from linfweak.polytope import vertex_enumeration


class TestEnumerateG:
    def test_three_unit_weights(self):
        assert len(enumerate_zero_one_measures(FiniteSpace.of(1, 1, 1))) == 3

    def test_null_point_excluded(self):
        ws = enumerate_zero_one_measures(FiniteSpace.of(1, 0, 2))
        assert [w.point for w in ws] == [0, 2]

    def test_all_zero_weights(self):
        assert enumerate_zero_one_measures(FiniteSpace.of(0, 0)) == []

    @pytest.mark.parametrize("weights", [(1,), (1, 1), (1, 0, 2), (1, 1, 1),
                                         (F(1, 3), 0, F(2, 5), 1)])
    def test_bruteforce_agrees(self, weights):
        space = FiniteSpace.of(*weights)
        brute = enumerate_zero_one_measures_bruteforce(space)
        principal = enumerate_zero_one_measures(space)
        assert len(brute) == len(principal)
        for w in principal:
            as_dict = {m: w.value(m) for m in space.subsets()}
            assert as_dict in brute


class TestUltrafilters:
    def test_roundtrip(self):
        space = FiniteSpace.of(1, 1, 1)
        out = ultrafilter_roundtrip(ZeroOneMeasure(1), space)
        assert all(out["checks"].values())

    def test_exhaustive_axiom_check_n4(self):
        space = FiniteSpace.of(1, 2, F(1, 2), 3)
        for w in enumerate_zero_one_measures(space):
            out = ultrafilter_roundtrip(w, space)
            assert all(out["checks"].values())

    def test_non_maximal_filter_detected(self):
        space = FiniteSpace.of(1, 1, 1)
        # the filter of supersets of {0,1}: a filter, but not maximal
        base = mask_of([0, 1], 3)
        F_ = frozenset(m for m in space.subsets() if (m & base) == base)
        assert is_filter(F_, space)
        assert not is_ultrafilter(F_, space)

    def test_null_member_breaks_filter(self):
        space = FiniteSpace.of(1, 0, 1)
        F_ = frozenset(m for m in space.subsets() if (m >> 1) & 1)
        assert not is_filter(F_, space)

    def test_roundtrip_checks_the_filter_axioms_once(self, monkeypatch):
        space = FiniteSpace.of(1, 0, 2)
        calls = []

        def counted(F_, sp):
            calls.append(F_)
            return is_filter(F_, sp)
        monkeypatch.setattr(finitemodel, "is_filter", counted)
        out = ultrafilter_roundtrip(ZeroOneMeasure(2), space)
        assert len(calls) == 1
        assert out["checks"] == {"filter": True, "ultrafilter": True,
                                 "roundtrip": True}

    def test_roundtrip_at_a_null_point_is_not_an_ultrafilter(self):
        out = ultrafilter_roundtrip(ZeroOneMeasure(1), FiniteSpace.of(1, 0, 2))
        assert out["checks"] == {"filter": False, "ultrafilter": False,
                                 "roundtrip": True}


class TestIntegration:
    def test_point_evaluation(self):
        assert integrate([3, 3, 5], ZeroOneMeasure(2)) == 5

    def test_zero_vector(self):
        assert integrate([1, -1, 7], FAVector.of(0, 0, 0)) == 0

    def test_mixed_masses(self):
        assert integrate([1, -1, 7], FAVector.of(F(1, 2), F(1, 2), 0)) == 0

    def test_dirac_alpha(self):
        space = FiniteSpace.of(1, 1, 1)
        assert dirac_alpha([3, 3, 5], ZeroOneMeasure(0), space) == 3

    def test_dirac_alpha_uniqueness_grid(self):
        space = FiniteSpace.of(1, 1, 1)
        assert dirac_alpha_is_unique([3, 3, 5], ZeroOneMeasure(0), space)
        assert dirac_alpha_is_unique(
            [3, 3, 5], ZeroOneMeasure(0), space,
            candidates=[F(3) + F(1, 2 ** n) for n in range(1, 8)])

    def test_abs_alpha_identity(self):
        space = FiniteSpace.of(1, 1)
        alpha = dirac_alpha([-2, 4], ZeroOneMeasure(0), space)
        assert alpha == -2
        assert integrate([2, 4], ZeroOneMeasure(0)) == abs(alpha)


class TestEssentialRange:
    def test_two_values(self):
        assert essential_range_bruteforce([0, 1], FiniteSpace.of(1, 1)) == \
            {F(0), F(1)}

    def test_null_point_invisible(self):
        assert essential_range_bruteforce([0, 9], FiniteSpace.of(1, 0)) == {F(0)}

    def test_random_agreement_is_asserted_internally(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 4)
            space = FiniteSpace.of(*[rng.randint(0, 3) for _ in range(n)])
            if not space.positive_points():
                continue
            u = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
            essential_range_bruteforce(u, space)  # raises on mismatch


def _sup_over_subsets(nu, mask):
    """sup { nu(F) : F subseteq mask } by walking every submask, summing
    the Fractions bit by bit: the reference for the subset-max transform."""
    best = F(0)  # F = empty set
    sub = mask
    while True:
        v = nu.value(sub)
        if v > best:
            best = v
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return best


def _sign_split(nu):
    return (tuple(max(m, F(0)) for m in nu.masses),
            tuple(max(-m, F(0)) for m in nu.masses))


class TestJordan:
    def test_example(self):
        space = FiniteSpace.of(1, 1)
        dec = jordan(FAVector.of(1, -2), space)
        assert dec.positive.masses == (1, 0)
        assert dec.negative.masses == (0, 2)
        assert dec.total_variation == 3

    def test_nonnegative_has_zero_negative_part(self):
        space = FiniteSpace.of(1, 1, 1)
        dec = jordan(FAVector.of(1, 0, F(2, 3)), space)
        assert all(m == 0 for m in dec.negative.masses)

    def test_sup_formula_random_n4(self):
        rng = random.Random(99)
        space = FiniteSpace.of(1, 1, 1, 1)
        for _ in range(25):
            nu = FAVector.of(*[F(rng.randint(-6, 6), rng.randint(1, 3))
                               for _ in range(4)])
            jordan(nu, space)  # verify=True checks all 2^4 subsets

    @pytest.mark.parametrize("verify", [True, False])
    @pytest.mark.parametrize("masses, weights", [
        ((1, -2), (1, 1, 1)),                # fewer masses than points
        ((1, -2, 3, 0, 5), (1, 1, 1)),       # more masses than points
    ])
    def test_dimension_mismatch(self, masses, weights, verify):
        with pytest.raises(FiniteModelError, match="dimension mismatch"):
            jordan(FAVector.of(*masses), FiniteSpace.of(*weights), verify=verify)

    @pytest.mark.parametrize("weights", [
        (1, 2, F(1, 3), 1, 1, 5, 1, 1),      # every point live
        (1, 0, 2, 0, F(1, 2), 0, 3, 1),      # three null points
    ])
    def test_largest_space_is_the_sign_split(self, weights):
        assert len(weights) == MAX_POINTS
        rng = random.Random(8)
        space = FiniteSpace.of(*weights)
        for _ in range(5):
            nu = FAVector(tuple(F(rng.choice((-1, 1)) * rng.randint(1, 8), den)
                                for den in rng.sample(range(1, 9), MAX_POINTS)))
            dec = jordan(nu, space)
            assert (dec.positive.masses, dec.negative.masses) == _sign_split(nu)
            assert dec.total_variation == sum(abs(m) for m in nu.masses)

    def test_verify_runs_the_lattice_check(self, monkeypatch):
        seen = []
        monkeypatch.setattr(finitemodel, "_check_lattice_formula",
                            lambda nu, pos: seen.append((nu, pos)))
        nu = FAVector.of(1, -2)
        jordan(nu, FiniteSpace.of(1, 1), verify=False)
        assert seen == []
        dec = jordan(nu, FiniteSpace.of(1, 1))
        assert seen == [(nu, dec.positive)]

    @pytest.mark.parametrize("wrong", [
        "total variation", "drop a positive mass", "move a mass",
        "a finer denominator"])
    def test_wrong_split_is_rejected(self, wrong):
        nu = FAVector.of(F(1, 2), -2, 3, 0, F(-1, 3))
        pos = list(_sign_split(nu)[0])
        if wrong == "total variation":
            pos = [abs(m) for m in nu.masses]
        elif wrong == "drop a positive mass":
            pos[2] = F(0)
        elif wrong == "a finer denominator":
            pos[0] += F(1, 7)  # less than 1 / lcm of nu's denominators
        else:
            pos[3], pos[2] = pos[2], F(0)
        _check_lattice_formula(nu, FAVector(_sign_split(nu)[0]))
        with pytest.raises(FiniteModelError, match="sup formula disagrees"):
            _check_lattice_formula(nu, FAVector(tuple(pos)))


_MASS = st.fractions(min_value=-5, max_value=5, max_denominator=8)


@st.composite
def lattice_vectors(draw):
    """Up to six masses of mixed sign with denominators up to 8; zeros and
    repeated masses are drawn on purpose."""
    pool = draw(st.lists(_MASS, min_size=1, max_size=3)) + [F(0)]
    return FAVector(tuple(draw(st.lists(st.one_of(st.sampled_from(pool), _MASS),
                                        min_size=1, max_size=6))))


@given(lattice_vectors())
def test_sup_table_matches_the_submask_walk(nu):
    scale = lcm(*(m.denominator for m in nu.masses))
    best = _sup_table([int(m * scale) for m in nu.masses])
    assert len(best) == 1 << len(nu.masses)
    for mask, sup in enumerate(best):
        assert sup == _sup_over_subsets(nu, mask) * scale
    dec = jordan(nu, FiniteSpace.of(*[1] * len(nu.masses)))
    assert (dec.positive.masses, dec.negative.masses) == _sign_split(nu)


@given(lattice_vectors(), st.data())
def test_any_other_split_is_rejected(nu, data):
    pos = _sign_split(nu)[0]
    wrong = data.draw(st.lists(_MASS, min_size=len(pos), max_size=len(pos))
                      .filter(lambda w: tuple(w) != pos))
    with pytest.raises(FiniteModelError, match="sup formula disagrees"):
        _check_lattice_formula(nu, FAVector(tuple(wrong)))


def _dense_integral(u, masses):
    """Every coordinate times its mass, zero masses included."""
    return sum((F(ui) * m for ui, m in zip(u, masses)), F(0))


@given(lattice_vectors(), st.data())
def test_integrate_equals_the_dense_sum(nu, data):
    n = len(nu.masses)
    u = data.draw(st.lists(st.one_of(_MASS, st.integers(-5, 5)), min_size=n, max_size=n))
    got = integrate(u, nu)
    assert type(got) is F and got == _dense_integral(u, nu.masses)
    for i in range(n):
        omega = ZeroOneMeasure(i)
        got = integrate(u, omega)
        assert type(got) is F and got == _dense_integral(u, omega.to_vector(n).masses) == u[i]


def test_integrate_reads_every_coordinate():
    # the float sits where the 0-1 measure has mass zero
    with pytest.raises(TypeError, match="float"):
        integrate([0.5, F(1)], ZeroOneMeasure(1))
    with pytest.raises(TypeError, match="float"):
        integrate([0.5, F(1)], FAVector.of(0, 1))


class TestYosidaHewitt:
    def test_split_is_trivial(self):
        space = FiniteSpace.of(1, 2)
        nu = FAVector.of(F(1, 3), -1)
        mu, gamma = yosida_hewitt_split(nu, space)
        assert all(m == 0 for m in mu.masses)
        assert gamma == nu
        assert is_purely_finitely_additive(mu, space)
        assert not is_purely_finitely_additive(nu, space)

    def test_atom_formula(self):
        space = FiniteSpace.of(2, 3)
        for w in enumerate_zero_one_measures(space):
            assert atom_formula_check(w, space)


class TestExtremePoints:
    def test_two_points(self):
        verts = extreme_points_unit_ball(FiniteSpace.of(1, 1))
        assert len(verts) == 4

    def test_null_point_carries_no_vertex(self):
        verts = extreme_points_unit_ball(FiniteSpace.of(1, 0, 1))
        assert len(verts) == 4
        assert all(v.masses[1] == 0 for v in verts)

    def test_three_points(self):
        verts = extreme_points_unit_ball(FiniteSpace.of(1, 1, 1))
        assert len(verts) == 6

    def test_seven_live_points(self):
        space = FiniteSpace.of(1, 2, F(1, 3), 0, 1, 1, 5, 1)
        verts = extreme_points_unit_ball(space)
        live = [0, 1, 2, 4, 5, 6, 7]
        assert len(verts) == 14
        assert {v.masses for v in verts} == {
            tuple(F(sign * (i == p)) for i in range(8))
            for p in live for sign in (1, -1)}

    def test_matches_plus_minus_g(self):
        space = FiniteSpace.of(F(1, 2), 1, 0, 2)
        verts = set(extreme_points_unit_ball(space))
        expected = set()
        for w in enumerate_zero_one_measures(space):
            expected.add(w.to_vector(space.n))
            expected.add(-w.to_vector(space.n))
        assert verts == expected


class TestVertexEnumeration:
    def test_square(self):
        cons = [((1, 0), F(1)), ((-1, 0), F(1)), ((0, 1), F(1)), ((0, -1), F(1))]
        verts = vertex_enumeration(cons)
        assert len(verts) == 4

    @pytest.mark.parametrize("d", range(1, 8))
    def test_cross_polytope(self, d):
        cons = [(tuple(F(s) for s in signs), F(1))
                for signs in product((1, -1), repeat=d)]
        units = [tuple(F(sign * (i == j)) for i in range(d))
                 for j in range(d) for sign in (1, -1)]
        assert vertex_enumeration(cons) == sorted(units)

    def test_degenerate_cut(self):
        # a triangle: x >= 0, y >= 0, x + y <= 1
        cons = [((-1, 0), F(0)), ((0, -1), F(0)), ((1, 1), F(1))]
        verts = vertex_enumeration(cons)
        assert sorted(verts) == [(F(0), F(0)), (F(0), F(1)), (F(1), F(0))]


def _det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return F(1)
    return sum((-1) ** c * rows[0][c] * _det([r[:c] + r[c + 1:] for r in rows[1:]])
               for c in range(len(rows)) if rows[0][c])


def brute_force_vertices(cons, d):
    """Every d-subset of the constraints with a unique solution, solved by
    Cramer's rule, kept when it satisfies every constraint."""
    found = set()
    for subset in combinations(cons, d):
        rows = [list(a) for a, _ in subset]
        det = _det(rows)
        if det == 0:
            continue
        x = tuple(_det([r[:i] + [b] + r[i + 1:] for r, (_, b) in zip(rows, subset)]) / det
                  for i in range(d))
        if all(sum(ai * xi for ai, xi in zip(a, x)) <= b for a, b in cons):
            found.add(x)
    return sorted(found)


@st.composite
def cut_unit_cubes(draw):
    """[-1, 1]^d (d <= 3) cut by integer halfspaces; repeated, redundant,
    degenerate (several cuts through one vertex) and infeasible cuts all
    occur."""
    d = draw(st.integers(1, 3))
    cuts = [(tuple(F(sign * (j == i)) for j in range(d)), F(1))
            for i in range(d) for sign in (1, -1)]
    for _ in range(draw(st.integers(0, 5))):
        cuts.append((tuple(F(draw(st.integers(-3, 3))) for _ in range(d)),
                     F(draw(st.integers(-3, 3)))))
    cons = []
    for a, b in cuts:
        # a scaled copy is a second constraint with the same hyperplane
        for scale in draw(st.sampled_from([(1,), (1,), (1, 1), (1, 2)])):
            cons.append((tuple(scale * x for x in a), scale * b))
    return d, draw(st.permutations(cons))


@given(cut_unit_cubes())
def test_vertex_enumeration_matches_brute_force(case):
    d, cons = case
    assert vertex_enumeration(cons) == brute_force_vertices(cons, d)


def rainwater_by_samples(space, vectors):
    """Rainwater's check as a walk over sample vectors: every sample of the
    ball is built as a measure and every integral is taken afresh."""
    us = [[F(x) for x in u] for u in vectors]
    extremes = finitemodel._signed_zero_one_measures(space)
    if not extremes:
        return True, True
    samples = list(extremes) + [FAVector(tuple(F(0) for _ in range(space.n)))]
    for a, b in combinations(extremes, 2):
        samples.append(FAVector(tuple((x + y) / 2 for x, y in zip(a.masses, b.masses))))
        samples.append(FAVector(tuple((x + 2 * y) / 3 for x, y in zip(a.masses, b.masses))))

    def converges(nu):
        seq = [integrate(u, nu) for u in us]
        return all(x == seq[-1] for x in seq[len(seq) // 2:])
    return all(map(converges, samples)), all(map(converges, extremes))


@st.composite
def rainwater_problems(draw):
    """Spaces of up to 8 points, some null, and 4 to 8 mixed-sign vectors
    whose coordinates each settle after their own number of terms, or not."""
    n = draw(st.integers(1, 8))
    weights = draw(st.lists(st.sampled_from([0, 1, 2, F(1, 3)]), min_size=n, max_size=n))
    entry = st.integers(-12, 12).map(lambda k: F(k, 4))
    length = draw(st.integers(4, 8))
    columns = []
    for _ in range(n):
        column = draw(st.lists(entry, min_size=length, max_size=length))
        tail = draw(st.integers(0, length - 1))
        columns.append(column[:length - tail] + [column[length - tail - 1]] * tail)
    return FiniteSpace.of(*weights), [list(row) for row in zip(*columns)]


@given(rainwater_problems())
def test_rainwater_by_linearity_matches_the_sample_walk(problem):
    space, vectors = problem
    rep = rainwater_check(space, vectors)
    assert (rep.ball_converges, rep.extreme_converges) == \
        rainwater_by_samples(space, vectors)


class TestRainwater:
    def test_constant_sequence(self):
        space = FiniteSpace.of(1, 1, 1)
        rep = rainwater_check(space, [[1, 2, 3]] * 5)
        assert rep.ball_converges and rep.extreme_converges and rep.agree

    def test_alternating_sequence(self):
        space = FiniteSpace.of(1, 1)
        vecs = [[k % 2, 0] for k in range(8)]
        rep = rainwater_check(space, vecs)
        assert not rep.ball_converges and not rep.extreme_converges and rep.agree

    @pytest.mark.parametrize("weights", [(0, 0), (1, 0)])
    def test_vector_length_is_checked_with_or_without_live_points(self, weights):
        with pytest.raises(FiniteModelError, match="dimension mismatch"):
            rainwater_check(FiniteSpace.of(*weights), [[1, 2, 3]] * 4)

    def test_random_eventually_constant(self):
        rng = random.Random(5)
        space = FiniteSpace.of(1, 2, F(1, 2))
        for _ in range(20):
            tail = [F(rng.randint(-3, 3)) for _ in range(3)]
            vecs = [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            vecs += [list(tail)] * 5
            rep = rainwater_check(space, vecs)
            assert rep.agree and rep.ball_converges


@given(st.lists(st.integers(0, 3), min_size=1, max_size=4))
def test_extreme_point_count_is_twice_live_points(ws):
    space = FiniteSpace.of(*ws)
    verts = extreme_points_unit_ball(space)
    assert len(verts) == 2 * len(space.positive_points())


@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                min_size=1, max_size=4))
def test_yosida_hewitt_split_trivial_for_random_vectors(masses):
    space = FiniteSpace.of(*[1] * len(masses))
    nu = FAVector(tuple(F(m) for m in masses))
    mu, gamma = yosida_hewitt_split(nu, space)
    assert all(m == 0 for m in mu.masses) and gamma == nu
    assert is_purely_finitely_additive(nu, space) == \
        all(m == 0 for m in nu.masses)

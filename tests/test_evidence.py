"""The evidence table and the kernel-witness rows walk each subsequence once.

These tests rebuild the same rows cell by cell with the public
`intersection_measure` (which recomputes v_J and the set intersection from
scratch for every cell), rebuild the local table as the same cells inside
each window from the sets alone, and check that corrupting either side of
the criterion identity is still caught on the global and on the local
evidence path.
"""

from fractions import Fraction as F

import pytest

from conftest import shifted
from linfweak import engine, localize
from linfweak.corpus import FAMILIES, LOCAL_CORPUS, family_by_name
from linfweak.engine import (INCONCLUSIVE, EngineError, Policy,
                             default_alpha_grid, intersection_measure,
                             test_weak_null)
from linfweak.families import SequenceFamily
from linfweak.localize import neighborhood, test_weak_null_at
from linfweak.piecewise import PiecewiseFn
from linfweak.points import ExtPoint

BARE = ("tents", "escape-translates", "summable-disjoint")


def bare(name):
    """The named corpus family without certificates, so that every scheme
    declines and the engine builds the evidence table.  The terms are a
    fresh family's, since the identity guard below corrupts kernels."""
    inner = FAMILIES[name]()

    class Bare(SequenceFamily):
        def _term(self, k):
            return inner.term(k)

    return Bare(inner.domain, f"bare-{name}", inner.norm_bound, ())


def _cell(family, subseq, alpha, J, window):
    """One cell from scratch: `intersection_measure` globally, and inside a
    window the measure of window n A_alpha(u_k1) n ... n A_alpha(u_kJ),
    built from the sets alone."""
    if window is None:
        return intersection_measure(family, subseq, alpha, J)
    inter = window
    for k in subseq[:J]:
        inter = inter.intersect(family.term(k).superlevel(alpha))
    return inter.measure()


def rebuilt_table(family, policy, window=None):
    """The evidence table (inside the window, when one is given), one
    from-scratch computation per cell."""
    alphas = policy.alpha_grid or default_alpha_grid(family, min(policy.k_max, 12))
    rows = []
    for alpha in alphas:
        for name, strat in policy.strategies:
            for J in range(1, policy.j_max + 1):
                subseq = [strat(j) for j in range(1, J + 1)]
                if subseq[-1] > policy.k_max:
                    break
                m = _cell(family, subseq, alpha, J, window)
                rows.append({"alpha": alpha, "subsequence": name, "J": J,
                             "measure": m})
                if m == 0:
                    break
    for subseq in policy.extra_subsequences:
        for alpha in alphas:
            for J in range(1, min(policy.j_max, len(subseq)) + 1):
                m = _cell(family, subseq, alpha, J, window)
                rows.append({"alpha": alpha, "subsequence": str(subseq), "J": J,
                             "measure": m})
                if m == 0:
                    break
    return rows


POLICIES = [
    Policy(j_max=6, extra_subsequences=[[2, 3, 5, 8, 13]]),
    Policy(j_max=8, k_max=9, alpha_grid=[F(1, 3), F(1, 2), F(3, 4)],
           extra_subsequences=[[1, 4, 6], [3, 5, 7, 9, 11, 13, 15, 17, 19]]),
]


class TestEvidenceTable:
    @pytest.mark.parametrize("name", BARE)
    @pytest.mark.parametrize("policy", POLICIES, ids=("default-grid", "small-k"))
    def test_equals_cell_by_cell_rebuild(self, name, policy):
        verdict = test_weak_null(bare(name), policy)
        assert verdict.kind == INCONCLUSIVE
        assert verdict.evidence["table"] == rebuilt_table(bare(name), policy)

    @staticmethod
    def _row_lengths(name, policy):
        lengths = {}
        for row in test_weak_null(bare(name), policy).evidence["table"]:
            lengths[row["subsequence"]] = row["J"]
        return lengths

    def test_rows_stop_beyond_k_max(self):
        policy = Policy(j_max=8, k_max=9, alpha_grid=[F(1, 2)])
        # odd reaches 9; even stops before 10, dyadic before 16
        assert self._row_lengths("tents", policy) == {
            "identity": 8, "even": 4, "odd": 5, "dyadic": 3}

    def test_rows_stop_at_the_first_null_intersection(self):
        policy = Policy(j_max=8, alpha_grid=[F(1, 8)])
        # the layers are disjoint in k, so two indices give a null set
        assert self._row_lengths("summable-disjoint", policy) == {
            "identity": 2, "even": 2, "odd": 2, "dyadic": 2}

    def test_kernel_witness_rows_match_intersection_measure(self):
        tents = family_by_name("tents")
        verdict = test_weak_null(tents, Policy(j_max=14))
        alpha = verdict.witness.alpha
        rows = verdict.witness.table
        assert [row["J"] for row in rows] == list(range(1, 15))
        for row in rows:
            if row["J"] <= 12:
                want = intersection_measure(tents, list(range(1, row["J"] + 1)),
                                            alpha, row["J"])
                assert row["intersection_measure"] == want
            else:
                assert "intersection_measure" not in row


class TestLocalEvidenceTable:
    @pytest.mark.parametrize("name", BARE)
    @pytest.mark.parametrize("point", ("0", "1/2", "inf"))
    @pytest.mark.parametrize("policy,ell_max", [
        (Policy(), 6),
        (Policy(j_max=4, alpha_grid=[F(1, 3), F(1, 2), F(3, 4), F(7, 8)]), 3),
    ], ids=("default", "small"))
    def test_equals_windowed_rebuild(self, name, point, policy, ell_max):
        family = bare(name)
        x0 = ExtPoint.parse(point)
        verdict = test_weak_null_at(family, x0, policy, ell_max)
        assert verdict.kind == INCONCLUSIVE
        windows = [(ell, neighborhood(family.domain, x0, ell))
                   for ell in range(1, ell_max + 1)]
        rebuilt = [{"ell": ell, **row} for ell, w in windows if not w.is_empty()
                   for row in rebuilt_table(family, policy, w)]
        assert verdict.evidence["table"] and verdict.evidence["table"] == rebuilt

    def test_honours_the_alpha_grid_and_extra_subsequences(self):
        grid = [F(1, 8), F(1, 4), F(1, 2), F(3, 4)]
        policy = Policy(alpha_grid=grid, extra_subsequences=[[2, 3, 5]])
        table = test_weak_null_at(bare("tents"), ExtPoint.at(0),
                                  policy).evidence["table"]
        assert {row["alpha"] for row in table} == set(grid)
        extra = [row for row in table if row["subsequence"] == "[2, 3, 5]"]
        assert {row["alpha"] for row in extra} == set(grid)
        assert {row["ell"] for row in extra} == set(range(1, 7))


def _first_term_only(fns):
    return fns[0]


def _global_case(name):
    def prepare(monkeypatch):
        return lambda: test_weak_null(bare(name), Policy(j_max=4))
    return prepare


def _local_tents_at_0(monkeypatch):
    """Only the local table can catch the corruption: a question at a point
    builds no global evidence table."""
    return lambda: test_weak_null_at(bare("tents"), ExtPoint.at(0), Policy(j_max=4))


GUARDED = {**{name: _global_case(name) for name in BARE},
           "tents-at-0": _local_tents_at_0}


class TestIdentityGuard:
    """A wrong v_J must be caught by the identity check on the evidence
    path; the set side is computed without v_J, so it cannot follow."""

    @pytest.mark.parametrize("case", GUARDED)
    def test_corrupted_min_of(self, case, monkeypatch):
        run = GUARDED[case](monkeypatch)
        monkeypatch.setattr(engine, "min_of", _first_term_only)
        with pytest.raises(EngineError, match="criterion identity violated"):
            run()

    @pytest.mark.parametrize("case", GUARDED)
    def test_corrupted_abs(self, case, monkeypatch):
        run = GUARDED[case](monkeypatch)
        abs_fn = PiecewiseFn.abs_fn
        monkeypatch.setattr(PiecewiseFn, "abs_fn", lambda u: shifted(abs_fn(u), 1))
        with pytest.raises(EngineError, match="criterion identity violated"):
            run()

    def test_corrupted_min_of_on_the_kernel_path(self, monkeypatch):
        monkeypatch.setattr(engine, "min_of", _first_term_only)
        with pytest.raises(EngineError, match="criterion identity violated"):
            test_weak_null(FAMILIES["tents"]())


def _never(*args):
    raise AssertionError("a global witness or table was built")


class TestLocalQuestionBuildsNoGlobalTable:
    """A question at a point asks the global verdict only whether it is
    null: a family that no certificate decides gets the evidence tables of
    the point's windows and never the global one."""

    def test_tables_only_for_the_non_empty_windows(self, monkeypatch):
        family, x0, ell_max = bare("tents"), ExtPoint.parse("1/30"), 6
        windows = []
        table = engine._evidence_table

        def counted(fam, policy, alphas, store, window=None):
            windows.append(window)
            return table(fam, policy, alphas, store, window)

        monkeypatch.setattr(engine, "_evidence_table", counted)
        monkeypatch.setattr(localize, "_evidence_table", counted)
        monkeypatch.setattr(engine, "_inconclusive", _never)
        verdict = test_weak_null_at(family, x0, Policy(), ell_max)
        assert verdict.kind == INCONCLUSIVE
        want = [w for w in (neighborhood(family.domain, x0, ell)
                            for ell in range(1, ell_max + 1)) if not w.is_empty()]
        assert windows == want

    @pytest.mark.parametrize("name,pt,expected", LOCAL_CORPUS,
                             ids=[f"{n}@{p}" for n, p, _ in LOCAL_CORPUS])
    def test_no_global_kernel_witness_or_table(self, name, pt, expected,
                                               monkeypatch):
        # the global kernel witness and table decide only a global non-null
        # or inconclusive verdict, which says nothing about the point
        monkeypatch.setattr(engine, "_checked_kernel_witness", _never)
        monkeypatch.setattr(engine, "_inconclusive", _never)
        verdict = test_weak_null_at(family_by_name(name), ExtPoint.parse(pt), Policy())
        assert verdict.kind == expected


class TestOneBuildPerCall:
    """Within one engine call each A_alpha(u_k) is built once per (k, alpha)
    and each { v_J > alpha } once per (prefix, alpha), however many windows,
    rows and subsequences share them; the rows stay the cell-by-cell
    rebuild."""

    @staticmethod
    def _count_builds(monkeypatch):
        built, keep = {}, []
        superlevel = PiecewiseFn.superlevel

        def counted(u, alpha):
            keep.append(u)  # no id is reused while the counts are read
            key = (id(u), alpha)
            built[key] = built.get(key, 0) + 1
            return superlevel(u, alpha)

        monkeypatch.setattr(PiecewiseFn, "superlevel", counted)
        return built

    @pytest.mark.parametrize("name", BARE)
    def test_global_table(self, name, monkeypatch):
        policy = Policy(j_max=8)
        rebuilt = rebuilt_table(bare(name), policy)
        built = self._count_builds(monkeypatch)
        verdict = test_weak_null(bare(name), policy)
        assert verdict.evidence["table"] == rebuilt
        assert built and max(built.values()) == 1

    @pytest.mark.parametrize("name", BARE)
    def test_local_table(self, name, monkeypatch):
        family, x0, policy, ell_max = bare(name), ExtPoint.at(0), Policy(j_max=6), 8
        windows = [(ell, neighborhood(family.domain, x0, ell))
                   for ell in range(1, ell_max + 1)]
        rebuilt = [{"ell": ell, **row} for ell, w in windows if not w.is_empty()
                   for row in rebuilt_table(family, policy, w)]
        built = self._count_builds(monkeypatch)
        grids = []
        grid = engine.default_alpha_grid
        monkeypatch.setattr(engine, "default_alpha_grid",
                            lambda *args: grids.append(args) or grid(*args))
        verdict = localize._local_inconclusive(family, x0, policy, ell_max)
        assert verdict.evidence["table"] == rebuilt
        assert built and max(built.values()) == 1
        assert len(grids) == 1

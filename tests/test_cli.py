import ast
import dataclasses
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from conftest import within_seconds
from linfweak.cli import main, run
from linfweak.corpus import FAMILIES
from linfweak.engine import Policy
from linfweak.literals import (LiteralError, parse_base_formula, parse_piecewise,
                               parse_rat, parse_set)
from linfweak.problemfile import TASKS, ProblemError, parse_problem_text
from linfweak.reporting import (embedded_problem, render_machine,
                                strip_volatile)
from linfweak.sets import Domain, SetAlgebraError


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestProblemFiles:
    def test_parse_and_canonical_order(self):
        pf = parse_problem_text("budget-j = 6\ntask = weaknull\nfamily = tents\n")
        assert pf.task == "weaknull"
        assert pf.canonical_lines()[0] == "task = weaknull"

    def test_unknown_field_rejected_with_line(self):
        with pytest.raises(ProblemError) as exc:
            parse_problem_text("task = weaknull\nfamily = tents\nwings = 2\n")
        assert exc.value.line == 3

    def test_unknown_task(self):
        with pytest.raises(ProblemError):
            parse_problem_text("task = fly\n")

    @pytest.mark.parametrize("line, col", [("task = as", 8), ("  task=fly", 8)])
    def test_unknown_task_reported_at_its_value(self, line, col):
        # 'as' also occurs inside the key 'task'; the value starts at column 8
        with pytest.raises(ProblemError, match="unknown task") as exc:
            parse_problem_text(line + "\n")
        assert (exc.value.line, exc.value.col) == (1, col)

    def test_missing_required(self):
        with pytest.raises(ProblemError):
            parse_problem_text("task = weaknull\n")

    def test_comments_and_blanks_ok(self):
        pf = parse_problem_text("# a comment\n\ntask = corpus\n")
        assert pf.task == "corpus"

    @pytest.mark.parametrize("line, col", [("BUDGET = 3", 1), ("  Wings = 2", 3)])
    def test_key_not_allowed_reported_at_its_line_and_column(self, line, col):
        # keys are read lower-cased; the column is that of the key as written
        with pytest.raises(ProblemError) as exc:
            parse_problem_text(f"task = weaknull\nfamily = tents\n{line}\n")
        assert (exc.value.line, exc.value.col) == (3, col)

    def test_upper_case_key_not_allowed_exits_two(self, tmp_path):
        cfg = write(tmp_path, "p.cfg", "task = weaknull\nfamily = tents\nBUDGET = 3\n")
        code, out, err = invoke(["weaknull", cfg])
        assert (code, out) == (2, "")
        assert err.startswith("input error: field 'budget' is not valid")

    def test_upper_case_allowed_key_accepted(self):
        pf = parse_problem_text("task = weaknull\nFAMILY = tents\n")
        assert pf.fields == {"family": "tents"}


class TestExitCodes:
    def test_definite_verdict_is_zero(self, tmp_path):
        cfg = write(tmp_path, "p.cfg", "task = weaknull\nfamily = tents\n")
        code, out, _ = invoke(["weaknull", cfg])
        assert code == 0
        assert "nonnull-certified" in out

    def test_inconclusive_is_three(self, tmp_path):
        # an uncertified family reachable from config: none are built in, so
        # exercise the code path through run() directly
        from linfweak.engine import INCONCLUSIVE, Policy, test_weak_null
        from linfweak.families import IndicatorFamily
        from linfweak.reporting import Report, verdict_to_dict
        from linfweak.sets import Domain, IntervalSet, ico
        fam = IndicatorFamily(Domain.open_interval(-1, 1),
                              lambda k: IntervalSet.of(ico(0, F(1, 2))))
        verdict = test_weak_null(fam, Policy(j_max=3, k_max=6))
        report = Report("weaknull", ["task = weaknull"], verdict_to_dict(verdict))
        assert verdict.kind == INCONCLUSIVE
        assert report.exit_code() == 3

    def test_parse_error_is_two(self, tmp_path):
        cfg = write(tmp_path, "bad.cfg", "task = weaknull\nfamily = tents\nbogus = 1\n")
        code, _, err = invoke(["weaknull", cfg])
        assert code == 2 and "bogus" in err

    def test_malformed_interval_literal(self, tmp_path):
        cfg = write(tmp_path, "bad2.cfg",
                    "task = essrange\ndomain = [0,1\nfunction = [0,1) 0 1\n")
        code, _, err = invoke(["essrange", cfg])
        assert code == 2 and "column" in err

    @pytest.mark.parametrize("task, extra", [("weaknull", ""),
                                             ("weaknull-at", "point = 0\n")])
    def test_unknown_family_is_two_with_a_plain_message(self, tmp_path, task, extra):
        cfg = write(tmp_path, "p.cfg", f"task = {task}\nfamily = nope\n{extra}")
        code, out, err = invoke([task, cfg])
        assert (code, out) == (2, "")
        assert err == (f"input error: unknown family 'nope'; "
                       f"known: {sorted(FAMILIES)}\n")

    def test_missing_file_is_two(self):
        code, _, err = invoke(["weaknull", "/nonexistent.cfg"])
        assert code == 2

    def test_directory_is_two(self, tmp_path):
        code, out, err = invoke(["weaknull", str(tmp_path)])
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and "directory" in err

    def test_non_utf8_file_is_two(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_bytes(b"task = weaknull\nfamily = tents\xff\n")
        code, out, err = invoke(["weaknull", str(cfg)])
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and "0xff" in err

    def test_task_subcommand_mismatch(self, tmp_path):
        cfg = write(tmp_path, "p.cfg", "task = corpus\n")
        code, _, err = invoke(["weaknull", cfg])
        assert code == 2

    def test_engine_error_is_four(self, tmp_path):
        # a valid base whose limit keeps positive length: hat is unsupported
        cfg = write(tmp_path, "p.cfg",
                    "task = restrict\ndomain = (0,1)\n"
                    "atoms = 1 * (0,1/2+1/4/l)\n")
        code, _, err = invoke(["restrict", cfg])
        assert code == 4 and "engine error" in err

    def test_two_limit_base_error_prints_plain_points(self, tmp_path):
        cfg = write(tmp_path, "p.cfg",
                    "task = restrict\ndomain = (0,1)\n"
                    "atoms = 1 * (1/4 - 1/8/l, 1/4 + 1/8/l) u "
                    "(3/4 - 1/8/l, 3/4 + 1/8/l)\n")
        code, out, err = invoke(["restrict", cfg])
        assert code == 4 and out == ""
        assert "base oscillates between [1/4, 3/4], of which [1/4, 3/4] " in err
        assert "Fraction(" not in err

    def test_base_outside_carrier_is_input_error(self, tmp_path):
        cfg = write(tmp_path, "p.cfg",
                    "task = restrict\ndomain = (0,1)\n"
                    "atoms = 1 * (0,1/2+1/l)\n")
        code, _, err = invoke(["restrict", cfg])
        assert code == 2


class TestTasks:
    def test_weaknull_machine_format(self, tmp_path):
        cfg = write(tmp_path, "p.cfg",
                    "task = weaknull\nfamily = dyadic-indicators\n")
        code, out, _ = invoke(["weaknull", cfg, "--format", "machine"])
        assert code == 0
        assert "result.kind = null-certified" in out
        assert "result.scheme = disjoint-supports" in out

    def test_weaknull_at(self, tmp_path):
        cfg = write(tmp_path, "p.cfg",
                    "task = weaknull-at\nfamily = sided-translates\npoint = inf\n")
        code, out, _ = invoke(["weaknull-at", cfg, "--format", "machine"])
        assert code == 0 and "result.kind = nonnull-certified" in out

    @pytest.mark.parametrize("family", ["tents", "dyadic-indicators-plus"])
    def test_weaknull_at_near_the_kernel_accumulation_point(self, tmp_path, family):
        cfg = write(tmp_path, "p.cfg",
                    f"task = weaknull-at\nfamily = {family}\npoint = 1/8\n")
        code, out, _ = invoke(["weaknull-at", cfg, "--format", "machine"])
        assert code == 0
        assert "result.kind = null-certified" in out
        assert "result.scheme = local-support-envelope" in out

    @pytest.mark.parametrize("pt,k0", [("1/20", 41), ("-1/20", 41), ("3/32", 22)])
    def test_weaknull_at_tents_null_inside_the_kernel_window(self, tmp_path, pt, k0):
        # the window of radius 1/6 around the point holds 0 at every ell <= 6;
        # the envelope (-2/k, 2/k) stops accumulating there from k0 on
        cfg = write(tmp_path, "p.cfg",
                    f"task = weaknull-at\nfamily = tents\npoint = {pt}\n")
        code, out, _ = invoke(["weaknull-at", cfg, "--format", "machine"])
        assert code == 0
        assert "result.kind = null-certified" in out
        assert f"result.evidence.vanishing_from = {k0}" in out

    def test_weaknull_at_tents_nonnull_at_zero_with_the_largest_ell_max(self, tmp_path):
        # no window search: ell-max past budget-k leaves the kernel witness as is
        cfg = write(tmp_path, "p.cfg",
                    "task = weaknull-at\nfamily = tents\npoint = 0\nell-max = 64\n")
        code, out, _ = invoke(["weaknull-at", cfg, "--format", "machine"])
        assert code == 0
        assert "result.kind = nonnull-certified" in out
        assert "result.scheme = local-superlevel-kernel" in out

    @pytest.mark.parametrize("repeat", [
        "alpha-grid = 1/2, 1/4, 1/2\nsubseq = identity, odd\n",
        "alpha-grid = 1/2, 1/4\nsubseq = identity, odd, identity\n",
        "alpha-grid = 1/4, 1/2, 1/4, 1/2\nsubseq = identity, identity, odd\n",
    ], ids=("alpha", "strategy", "both"))
    def test_repeated_alpha_or_strategy_gives_one_row_per_cell(self, tmp_path, repeat):
        # the tents at 1/30 vanish near it only from k = 61 on, past budget-k
        # 48, so no local rule answers and the table does
        base = "task = weaknull-at\nfamily = tents\npoint = 1/30\nell-max = 49\nbudget-j = 3\n"

        def rows(text):
            code, out, _ = invoke(["weaknull-at", write(tmp_path, "p.cfg", text),
                                   "--format", "machine"])
            assert code == 3 and "result.kind = inconclusive" in out
            table = {}
            for line in out.splitlines():
                if line.startswith("result.evidence.table."):
                    key, value = line[len("result.evidence.table."):].split(" = ")
                    n, field = key.split(".")
                    table.setdefault(int(n), {})[field] = value
            return [table[n] for n in sorted(table)]

        got = rows(base + repeat)
        cells = [(r["ell"], r["alpha"], r["subsequence"], r["J"]) for r in got]
        assert len(cells) == len(set(cells))
        assert got == rows(base + "alpha-grid = 1/2, 1/4\nsubseq = identity, odd\n")

    def test_essrange(self, tmp_path):
        cfg = write(tmp_path, "p.cfg",
                    "task = essrange\ndomain = [0,1)\n"
                    "function = [0,1/2) 0 1 ; [1/2,1) 0 0\n")
        code, out, _ = invoke(["essrange", cfg, "--format", "machine"])
        assert code == 0 and "result.range = {0} u {1}" in out

    def test_essrange_at(self, tmp_path):
        cfg = write(tmp_path, "p.cfg",
                    "task = essrange-at\ndomain = (-1,1)\n"
                    "function = (-1,0) 0 0 ; [0,1/2) 0 1 ; [1/2,1) 0 0\n"
                    "point = 0\n")
        code, out, _ = invoke(["essrange-at", cfg, "--format", "machine"])
        assert code == 0 and "result.range = {0} u {1}" in out

    def test_finite_model(self, tmp_path):
        cfg = write(tmp_path, "p.cfg",
                    "task = finite-model\nweights = 1, 0, 2\n"
                    "masses = 1, -2, 3\nvectors = 3,3,5 ; 0,0,1\n")
        code, out, _ = invoke(["finite-model", cfg, "--format", "machine"])
        assert code == 0
        assert "result.zero_one_measures.1 = 0" in out
        assert "result.zero_one_measures.2 = 2" in out
        assert "result.jordan.total_variation = 6" in out

    def test_finite_model_enumerates_vertices_once(self, tmp_path, monkeypatch):
        import linfweak.finitemodel as fm
        calls = []
        enumerate_vertices = fm.vertex_enumeration

        def counted(constraints):
            calls.append(len(constraints))
            return enumerate_vertices(constraints)
        monkeypatch.setattr(fm, "vertex_enumeration", counted)
        cfg = write(tmp_path, "p.cfg",
                    "task = finite-model\nweights = 1, 0, 2\n"
                    "vectors = 1,2,3 ; 0,1,0 ; 3,3,3 ; 3,3,3\n")
        code, out, _ = invoke(["finite-model", cfg, "--format", "machine"])
        assert code == 0 and "result.rainwater.agree = true" in out
        assert calls == [4]

    def test_restrict(self, tmp_path):
        cfg = write(tmp_path, "p.cfg",
                    "task = restrict\ndomain = (0,1)\n"
                    "atoms = 1 * (1/2-1/4/l, 1/2+1/4/l)\n"
                    "set = (1/4,3/4)\nalpha = 1/2\n")
        code, out, _ = invoke(["restrict", cfg, "--format", "machine"])
        assert code == 0
        assert "result.hat.point_masses.1.1 = 1/2" in out
        assert "result.query.lower = 1" in out
        assert "result.singularity.found = true" in out

    def test_restrict_late_endpoint_crossing_answers_at_once(self, tmp_path):
        # the set's left end crosses the base's left end only near l = 250000
        cfg = write(tmp_path, "p.cfg",
                    "task = restrict\ndomain = (0,1)\n"
                    "atoms = 1 * (1/2-1/4/l, 1/2+1/4/l)\n"
                    "set = (499999/1000000, 1)\n")
        with within_seconds(5):
            code, out, _ = invoke(["restrict", cfg, "--format", "machine"])
        assert code == 0
        assert "result.query.atom_answers.1 = one" in out

    def test_corpus_runs_clean(self):
        code, out, _ = invoke(["corpus", "--format", "machine"])
        assert code == 0
        assert "result.failures = 0" in out


class TestReplay:
    @pytest.mark.parametrize("text", [
        "task = weaknull\nfamily = tents\n",
        "task = weaknull\nfamily = summable-disjoint\nbudget-j = 8\n",
        "task = essrange\ndomain = [0,1)\nfunction = [0,1/2) 0 1 ; [1/2,1) 0 0\n",
        "task = restrict\ndomain = (0,1)\natoms = 1 * (0,1/l)\nset = (0,1/2)\n",
        "task = finite-model\nweights = 1, 1\n",
    ])
    def test_reports_replay_identically(self, text):
        first = render_machine(run(parse_problem_text(text)))
        again = render_machine(run(parse_problem_text(embedded_problem(first))))
        assert strip_volatile(first) == strip_volatile(again)

    def test_flag_overrides_reach_the_policy(self, tmp_path):
        cfg = write(tmp_path, "p.cfg",
                    "task = weaknull\nfamily = dyadic-indicators\n")
        code, out, _ = invoke(["weaknull", cfg, "--budget-J", "3",
                               "--format", "machine"])
        assert code == 0 and "problem.2 = budget-j = 3" in out


class TestBudgets:
    @pytest.mark.parametrize("flag,value", [
        ("--budget-J", "-3"), ("--budget-J", "0"), ("--budget-J", "65"),
        ("--budget-k", "-5"), ("--budget-k", "0"), ("--budget-k", "1025"),
    ])
    def test_out_of_range_flag_is_input_error(self, tmp_path, flag, value):
        cfg = write(tmp_path, "p.cfg", "task = weaknull\nfamily = tents\n")
        code, out, err = invoke(["weaknull", cfg, f"{flag}={value}"])
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and value in err

    def test_out_of_range_field_is_input_error(self, tmp_path):
        cfg = write(tmp_path, "p.cfg",
                    "task = weaknull-at\nfamily = tents\npoint = 0\nbudget-j = 0\n")
        code, _, err = invoke(["weaknull-at", cfg])
        assert code == 2 and "budget-j must lie in [1, 64]" in err

    def test_huge_budget_rejected_before_the_engine(self, tmp_path, monkeypatch):
        import linfweak.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("the engine ran on a rejected budget")
        monkeypatch.setattr(cli, "test_weak_null", never)
        monkeypatch.setattr(cli, "test_weak_null_at", never)
        cfg = write(tmp_path, "p.cfg", "task = weaknull\nfamily = tents\n")
        code, _, err = invoke(["weaknull", cfg, "--budget-J=100000000"])
        assert code == 2 and "budget-j must lie in [1, 64]" in err

    @pytest.mark.parametrize("value", ["-3", "0", "65", "100000000"])
    def test_out_of_range_ell_max_rejected_before_the_engine(
            self, tmp_path, monkeypatch, value):
        import linfweak.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("the engine ran on a rejected ell-max")
        monkeypatch.setattr(cli, "test_weak_null_at", never)
        cfg = write(tmp_path, "p.cfg",
                    "task = weaknull-at\nfamily = dyadic-indicators-plus\n"
                    f"point = 0\nell-max = {value}\n")
        code, out, err = invoke(["weaknull-at", cfg])
        assert code == 2 and out == ""
        assert err.startswith("input error: ell-max must lie in [1, 64]")

    def test_largest_ell_max_accepted(self, tmp_path):
        from linfweak.cli import MAX_ELL
        cfg = write(tmp_path, "p.cfg",
                    "task = weaknull-at\nfamily = dyadic-indicators-plus\n"
                    f"point = 0\nell-max = {MAX_ELL}\n")
        code, out, _ = invoke(["weaknull-at", cfg, "--format", "machine"])
        assert code == 0 and "result.kind = nonnull-certified" in out

    def test_budget_flag_for_a_task_without_budgets(self):
        # corpus takes no budgets; echoing one would break the replay
        code, out, err = invoke(["corpus", "--budget-J=-3"])
        assert code == 2 and out == ""
        assert "'budget-j' is not valid for task 'corpus'" in err

    @pytest.mark.parametrize("text", [
        "task = weaknull\nfamily = tents\nsubseq = 5, 3\n",
        "task = weaknull\nfamily = tents\nsubseq = 0, 3\n",
        "task = weaknull-at\nfamily = tents\npoint = 1/30\nsubseq = 3, 2\n",
        # the term 3000000 would be built before the engine saw the list
        "task = weaknull-at\nfamily = dyadic-indicators-plus\n"
        "point = 1/1152921504606846976\nsubseq = 1, 3000000\n",
    ], ids=("decreasing", "index-zero", "decreasing-at-a-point", "past-budget-k"))
    def test_explicit_subseq_rejected_before_the_engine(self, tmp_path, monkeypatch,
                                                       text):
        import linfweak.cli as cli
        monkeypatch.setattr(cli, "test_weak_null", _never)
        monkeypatch.setattr(cli, "test_weak_null_at", _never)
        task = text.split("\n")[0].split(" = ")[1]
        code, out, err = invoke([task, write(tmp_path, "p.cfg", text)])
        assert code == 2 and out == ""
        assert err.startswith("input error: subseq must list strictly increasing "
                              "indices in [1, 48] (budget-k)")

    @pytest.mark.parametrize("line, message", [
        ("budget-j = 1_2", "budget-j must be an integer, got '1_2'"),
        ("subseq = 1_0, 2_0", "subseq must name strategies"),
    ])
    def test_integer_field_reads_only_digits(self, tmp_path, line, message):
        # int() would read '1_2' as 12; the grammar's digits have no '_'
        cfg = write(tmp_path, "p.cfg", f"task = weaknull\nfamily = tents\n{line}\n")
        code, out, err = invoke(["weaknull", cfg])
        assert (code, out) == (2, "")
        assert err.startswith("input error: " + message)

    def test_explicit_subseq_up_to_budget_k_accepted(self, tmp_path):
        cfg = write(tmp_path, "p.cfg",
                    "task = weaknull\nfamily = tents\nsubseq = 1, 3, 60\n")
        code, out, err = invoke(["weaknull", cfg, "--budget-k=60", "--format", "machine"])
        assert code == 0 and "result.kind = nonnull-certified" in out

    def test_largest_budgets_accepted(self, tmp_path):
        from linfweak.cli import MAX_BUDGET_J, MAX_BUDGET_K
        cfg = write(tmp_path, "p.cfg",
                    "task = weaknull\nfamily = dyadic-indicators\n")
        code, out, _ = invoke(["weaknull", cfg, f"--budget-J={MAX_BUDGET_J}",
                               f"--budget-k={MAX_BUDGET_K}", "--format", "machine"])
        assert code == 0 and "result.kind = null-certified" in out


def _never(*args, **kwargs):
    raise AssertionError("the engine ran on rejected input")


class TestInputErrors:
    @pytest.mark.parametrize("text", [
        "task = finite-model\nweights = 1, -1, 2\n",
        "task = finite-model\nweights = " + ", ".join(["1"] * 16) + "\n",
        "task = finite-model\nweights = " + ", ".join(["0"] * 9) + "\n",
        "task = finite-model\nweights = 1, 1\nvectors = 1,2,3\n",
        "task = finite-model\nweights = 1, 1\nmasses = 1\n",
        "task = restrict\ndomain = (0,1)\natoms = -1 * (0,1/l)\n",
        "task = restrict\ndomain = (0,1)\ndensity = (0,1) 0 -1\n",
        "task = restrict\ndomain = (0,1)\natoms = 1 * (0,1/l)\nalpha = 0\n",
        # empty from l = 16 on, past the levels checked one by one
        "task = restrict\ndomain = (-1,2)\natoms = 1 * (1/2 - 1/l, 3/8 + 1/l)\n",
        "task = weaknull-at\nfamily = tents\npoint = abc\n",
        "task = essrange-at\ndomain = (-1,1)\nfunction = (-1,1) 0 1\n"
        "point = 1/0\n",
        # rationals follow the literal grammar ['+' | '-'] digits ['/' digits]
        "task = weaknull-at\nfamily = tents\npoint = 1e400000\n",
        "task = weaknull-at\nfamily = tents\npoint = 0.5e0\n",
        # a point outside the closure of the domain
        "task = weaknull-at\nfamily = dini-null\npoint = -1\n",
        "task = essrange-at\ndomain = (0,1)\nfunction = (0,1) 0 1\npoint = 5\n",
        "task = weaknull-at\nfamily = tents\npoint = " + "7" * 2000 + "/"
        + "3" * 2000 + "\n",
        # a zero denominator in any literal
        "task = restrict\ndomain = (0,1)\natoms = 1 * (1/2 - 1/0/l, 1/2)\n",
        "task = restrict\ndomain = (0,1/0)\natoms = 1 * (0, 1/l)\n",
        "task = restrict\ndomain = (0,1)\natoms = 1/0 * (0, 1/l)\n",
        "task = finite-model\nweights = 1, 1/0\n",
        # a domain end longer than int() converts
        "task = restrict\ndomain = (0," + "1" * 5000 + ")\natoms = 1 * (0, 1/l)\n",
    ], ids=("negative-weight", "sixteen-weights", "nine-weights",
            "vector-length", "masses-length", "negative-atom",
            "negative-density", "zero-alpha", "base-empties-out", "point-abc", "point-1/0",
            "point-huge-exponent", "point-decimal-exponent",
            "point-outside-dini-domain", "point-outside-essrange-domain",
            "point-4000-digits-outside-tents-domain", "zero-denominator-base-end",
            "zero-denominator-domain", "zero-denominator-atom-coef",
            "zero-denominator-weight", "domain-5000-digits"))
    def test_exits_two_before_any_enumeration(self, tmp_path, monkeypatch, text):
        import linfweak.cli as cli
        for name in ("enumerate_zero_one_measures", "extreme_points_unit_ball",
                     "test_weak_null_at", "essential_range_at"):
            monkeypatch.setattr(cli, name, _never)
        task = text.split("\n")[0].split(" = ")[1]
        code, out, err = invoke([task, write(tmp_path, "p.cfg", text)])
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and "Traceback" not in err

    @pytest.mark.parametrize("field, line", [("masses", "masses = 1, x"),
                                             ("vectors", "vectors = 1, 2 ; 1, x")])
    def test_bad_list_entry_names_its_field(self, tmp_path, field, line):
        cfg = write(tmp_path, "p.cfg", f"task = finite-model\nweights = 1, 1\n{line}\n")
        code, out, err = invoke(["finite-model", cfg])
        assert (code, out) == (2, "")
        assert err == f"input error: {field}: expected a number (at column 1)\n"

    def test_unbounded_piece_with_slope_is_input_error(self, tmp_path):
        cfg = write(tmp_path, "p.cfg", "task = essrange\ndomain = (-inf,inf)\n"
                                       "function = (-inf,inf) 1 0\n")
        code, out, err = invoke(["essrange", cfg])
        assert (code, out) == (2, "")
        assert err == "input error: a piece with nonzero slope must be bounded\n"

    def test_result_value_past_the_digit_limit_is_input_error(self, tmp_path):
        # every literal has 3001 digits, but ess_sup_norm = 10^6000 has 6001
        n = "1" + "0" * 3000
        cfg = write(tmp_path, "p.cfg", f"task = essrange\ndomain = (0, {n})\n"
                                       f"function = (0, {n}) {n} 0\n")
        for fmt in ("human", "machine"):
            code, out, err = invoke(["essrange", cfg, "--format", fmt])
            assert code == 2 and out == ""
            assert err.startswith("input error: a result value has more than "
                                  f"{sys.get_int_max_str_digits()} digits")

    def test_largest_finite_model_accepted(self, tmp_path, monkeypatch):
        import linfweak.cli as cli
        from linfweak.cli import MAX_POINTS
        # the bound is inclusive and every weight may be positive; vertex
        # enumeration is tested in tests/test_finitemodel.py
        monkeypatch.setattr(cli, "extreme_points_unit_ball", lambda space: [])
        weights = ["1"] * MAX_POINTS
        cfg = write(tmp_path, "p.cfg",
                    f"task = finite-model\nweights = {', '.join(weights)}\n")
        code, out, _ = invoke(["finite-model", cfg, "--format", "machine"])
        assert code == 0 and f"result.n = {MAX_POINTS}" in out


# -- parser fuzzing: line-structured problem files and token-built literals.
# Whatever the text, the parsers raise only their own input errors.

FIELD_KEYS = ("task", "family", "point", "budget-j", "budget-k", "alpha-grid",
              "subseq", "ell-max", "domain", "function", "weights", "vectors",
              "masses", "atoms", "density", "set", "alpha")
LITERAL_TOKENS = ("[", "(", "]", ")", "{", "}", ",", ";", "=", "*", "/", "+",
                  "-", "#", "u", "l", "L", "x", "inf", "-inf", "+inf", "empty",
                  "shift", "B(l)", "0", "1", "7", "12", "1/2", "-3/4", "0/0",
                  "²", "٣")


@st.composite
def mixed_case(draw, word):
    return "".join(c.upper() if draw(st.booleans()) else c for c in word)


literal_texts = st.lists(st.tuples(st.sampled_from(LITERAL_TOKENS),
                                   st.sampled_from(("", " ")))).map(
    lambda pairs: "".join(token + gap for token, gap in pairs))
problem_lines = st.tuples(
    st.sampled_from(("", " ", "#")),
    st.sampled_from(FIELD_KEYS).flatmap(mixed_case) | st.text("abXY-_ ", max_size=5),
    st.sampled_from(("=", " = ", "", "==", " # ")),
    st.sampled_from(sorted(TASKS)) | literal_texts,
).map("".join)


@st.composite
def problem_texts(draw):
    lines = draw(st.lists(st.just("") | problem_lines, max_size=8))
    if draw(st.booleans()):
        task = draw(st.sampled_from(sorted(TASKS)))
        lines.insert(draw(st.integers(0, len(lines))), f"task = {task}")
    return "\n".join(lines)


class TestParserFuzz:
    @given(problem_texts())
    @example("task = weaknull\nfamily = tents\nBUDGET = 3\n")
    def test_problem_file_parser_raises_only_problem_errors(self, text):
        try:
            parse_problem_text(text)
        except ProblemError:
            pass

    @given(literal_texts)
    @example("(0,1/l) shift ²")
    def test_literal_parsers_raise_only_literal_errors(self, text):
        for parse in (parse_rat, parse_set, parse_base_formula,
                      lambda t: parse_piecewise(t, Domain.real_line()),
                      lambda t: parse_piecewise(t, Domain.open_interval(0, 1))):
            try:
                parse(text)
            except (LiteralError, SetAlgebraError):
                pass


def test_every_policy_field_is_set_by_the_cli():
    """Policy holds only what a problem file can set: each field is assigned
    (`policy.name = ...`) in `cli._policy_from`.  The scan reads source text
    and imports none of it."""
    path = Path(__file__).resolve().parents[1] / "src" / "linfweak" / "cli.py"
    tree = ast.parse(path.read_text(), str(path))
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "_policy_from")
    assigned = {target.attr for node in ast.walk(body) if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Attribute)}
    fields = {f.name for f in dataclasses.fields(Policy)}
    assert "j_max" in fields and "strategies" in fields
    assert not fields - assigned

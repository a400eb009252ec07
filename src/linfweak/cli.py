"""Batch front-end: parse a problem file, dispatch, report.

Exit codes: 0 for any definite result, 3 for an inconclusive verdict,
2 for input errors (bad files, bad literals), 4 for engine, certificate or
oracle errors (which are printed verbatim).
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from . import corpus as corpus_mod
from .engine import (DEFAULT_STRATEGIES, CertificateError, EngineError, Policy,
                     test_weak_null)
from .families import SequenceFamily
from .finitemodel import (FAVector, FiniteSpace, enumerate_zero_one_measures,
                          essential_range_bruteforce, extreme_points_unit_ball,
                          integrate, jordan, rainwater_check,
                          ultrafilter_roundtrip)
from .literals import (LiteralError, parse_base_formula, parse_int,
                       parse_piecewise, parse_rat, parse_set)
from .localize import (essential_range, essential_range_at, in_closure,
                       test_weak_null_at)
from .points import ExtPoint
from .problemfile import TASKS, ProblemError, ProblemFile, parse_problem_text
from .reporting import (Report, render_human, render_machine, verdict_to_dict)
from .restriction import (CompositeFA, FilterBaseMeasure,
                          OracleConsistencyError, UnsupportedOracleError,
                          fa_query, hat, minimax_value, singularity_witness)
from .sets import Domain, SetAlgebraError


# Largest accepted budgets.  Each bounds loops of the engine or of the
# localized schemes, so a larger value could run for hours instead of
# failing fast.
MAX_BUDGET_J = 64
MAX_BUDGET_K = 1024
MAX_ELL = 64
# Largest finite model: the ultrafilter checks enumerate all 2^n subsets, and
# vertex enumeration cuts 2^d halfspaces for d positive weights.
MAX_POINTS = 8


def _budget(problem: ProblemFile, key: str, default: int, cap: int) -> int:
    value = problem.get_int(key, default)
    if not 1 <= value <= cap:
        raise ProblemError(f"{key} must lie in [1, {cap}], got {value}")
    return value


def _rats(key: str, text: str, n: int | None = None) -> list[Fraction]:
    """The comma-separated rationals of field `key`; with `n`, exactly n of
    them, one per point of an n-point model."""
    try:
        values = [parse_rat(x.strip()) for x in text.split(",")]
    except LiteralError as exc:
        raise ProblemError(f"{key}: {exc}") from None
    if n is not None and len(values) != n:
        raise ProblemError(f"{key} need one value per point: {n} points, "
                           f"got {len(values)} values")
    return values


def _policy_from(problem: ProblemFile) -> Policy:
    policy = Policy()
    policy.j_max = _budget(problem, "budget-j", policy.j_max, MAX_BUDGET_J)
    policy.k_max = _budget(problem, "budget-k", policy.k_max, MAX_BUDGET_K)
    grid = problem.get("alpha-grid")
    if grid is not None:
        alphas = _rats("alpha-grid", grid)
        bad = [a for a in alphas if a <= 0]
        if bad:
            raise ProblemError(f"alpha-grid entries must be positive: {bad}")
        policy.alpha_grid = sorted(set(alphas))  # a repeated alpha adds no cell
    subseq = problem.get("subseq")
    if subseq is not None:
        named = {name: fn for name, fn in DEFAULT_STRATEGIES}
        parts = [p.strip() for p in subseq.split(",")]
        if all(p in named for p in parts):
            # the first occurrence of each name: a repeat adds no row
            policy.strategies = [(p, named[p]) for p in dict.fromkeys(parts)]
        else:
            try:
                indices = [parse_int(p) for p in parts]
            except LiteralError:
                raise ProblemError(f"subseq must name strategies {sorted(named)} "
                                   f"or list integers, got {subseq!r}")
            # strictly increasing term indices, none past budget-k
            if (sorted(set(indices)) != indices
                    or not 1 <= indices[0] <= indices[-1] <= policy.k_max):
                raise ProblemError(f"subseq must list strictly increasing indices "
                                   f"in [1, {policy.k_max}] (budget-k), got {subseq!r}")
            policy.extra_subsequences = [indices]
    return policy


def run(problem: ProblemFile) -> Report:
    """Dispatch one problem file; the report embeds the canonical problem."""
    start = time.perf_counter()
    handler = _HANDLERS[problem.task]
    result = handler(problem)
    elapsed = (time.perf_counter() - start) * 1000.0
    return Report(problem.task, problem.canonical_lines(), result, elapsed)


def _family(problem: ProblemFile) -> SequenceFamily:
    """The shared built-in family named by the `family` field."""
    try:
        return corpus_mod.family_by_name(problem.get("family"))
    except KeyError as exc:
        raise ProblemError(exc.args[0]) from None


def _run_weaknull(problem: ProblemFile) -> dict:
    family = _family(problem)
    verdict = test_weak_null(family, _policy_from(problem))
    return verdict_to_dict(verdict)


def _point(problem: ProblemFile, domain: Domain) -> ExtPoint:
    """The localization point, which must lie in the closure of the domain."""
    text = problem.get("point")
    try:
        x0 = ExtPoint.parse(text)
    except (ValueError, ZeroDivisionError):
        raise ProblemError(f"point must be a rational or inf, got {text!r}")
    if not in_closure(domain, x0):
        raise ProblemError(f"point {x0} is not in the closure of the domain "
                           f"{domain.carrier}")
    return x0


def _run_weaknull_at(problem: ProblemFile) -> dict:
    family = _family(problem)
    x0 = _point(problem, family.domain)
    ell_max = _budget(problem, "ell-max", 6, MAX_ELL)
    verdict = test_weak_null_at(family, x0, _policy_from(problem), ell_max)
    return verdict_to_dict(verdict)


def _parse_domain_fn(problem: ProblemFile):
    domain = Domain(parse_set(problem.get("domain")))
    fn = parse_piecewise(problem.get("function"), domain)
    return domain, fn


def _run_essrange(problem: ProblemFile) -> dict:
    _, fn = _parse_domain_fn(problem)
    return {"kind": "essential-range", "range": essential_range(fn),
            "ess_sup_norm": fn.ess_sup_norm()}


def _run_essrange_at(problem: ProblemFile) -> dict:
    domain, fn = _parse_domain_fn(problem)
    x0 = _point(problem, domain)
    return {"kind": "essential-range-at", "point": str(x0),
            "range": essential_range_at(fn, x0)}


def _run_finite_model(problem: ProblemFile) -> dict:
    weights = _rats("weights", problem.get("weights"))
    if len(weights) > MAX_POINTS:
        raise ProblemError(f"weights: at most {MAX_POINTS} points, "
                           f"got {len(weights)}")
    if any(w < 0 for w in weights):
        raise ProblemError("weights must be nonnegative")
    space = FiniteSpace(tuple(weights))
    masses, vectors = problem.get("masses"), problem.get("vectors")
    nu = FAVector(tuple(_rats("masses", masses, space.n))) if masses else None
    vecs = [_rats("vectors", chunk, space.n)
            for chunk in vectors.split(";")] if vectors else []
    omegas = enumerate_zero_one_measures(space)
    out: dict = {
        "kind": "finite-model",
        "n": space.n,
        "zero_one_measures": [w.point for w in omegas],
        "ultrafilter_checks": [ultrafilter_roundtrip(w, space)["checks"]
                               for w in omegas],
        "extreme_points": [list(v.masses) for v in extreme_points_unit_ball(space)],
    }
    if nu is not None:
        dec = jordan(nu, space)
        out["jordan"] = {"positive": list(dec.positive.masses),
                         "negative": list(dec.negative.masses),
                         "total_variation": dec.total_variation}
    if vecs:
        out["essential_ranges"] = [sorted(essential_range_bruteforce(v, space))
                                   for v in vecs]
        out["integrals_at_extremes"] = [
            [integrate(v, w) for w in omegas] for v in vecs]
        if len(vecs) >= 4:
            rw = rainwater_check(space, vecs)
            out["rainwater"] = {"ball": rw.ball_converges,
                                "extreme": rw.extreme_converges,
                                "agree": rw.agree}
    return out


def _run_restrict(problem: ProblemFile) -> dict:
    domain = Domain(parse_set(problem.get("domain")))
    atoms = []
    if problem.get("atoms"):
        for chunk in problem.get("atoms").split(";"):
            text = chunk.strip()
            if "*" not in text:
                raise ProblemError(f"atom {text!r} needs the form 'coef * base'")
            coef_text, _, base_text = text.partition("*")
            coef = parse_rat(coef_text.strip())
            base_text = base_text.strip()
            if base_text.lower().startswith("b(l)"):
                base_text = base_text[4:].lstrip().lstrip("=").lstrip()
            formula = parse_base_formula(base_text)
            atoms.append((coef, FilterBaseMeasure(formula, domain)))
    density = None
    if problem.get("density"):
        density = parse_piecewise(problem.get("density"), domain)
    try:
        nu = CompositeFA(atoms, density, domain)
    except ValueError as exc:  # its checks of the coefficients and the density
        raise ProblemError(str(exc))
    rb = hat(nu)
    out: dict = {
        "kind": "restrict",
        "hat": {"point_masses": [[x, m] for x, m in rb.point_masses],
                "is_zero": rb.is_zero(),
                "total_mass": rb.total_mass()},
        "functional_total_mass": nu.total_mass(),
    }
    if problem.get("set"):
        e = parse_set(problem.get("set"))
        q = fa_query(nu, e)
        lo, hi = minimax_value(nu, e)
        out["query"] = {"set": e, "lower": q.lower, "upper": q.upper,
                        "determined": q.determined,
                        "atom_answers": list(q.atom_answers)}
        out["minimax"] = {"lower": lo, "upper": hi,
                          "hat_value": rb.measure_of(e)}
    if problem.get("alpha"):
        alpha = parse_rat(problem.get("alpha"))
        if alpha <= 0:
            raise ProblemError(f"alpha must be positive, got {alpha}")
        wit = singularity_witness(nu, alpha)
        if wit is None:
            out["singularity"] = {"found": False, "alpha": alpha}
        else:
            out["singularity"] = {
                "found": True, "alpha": alpha,
                "compact_measures": list(wit.measures),
                "lower_bounds": list(wit.lower_bounds),
                "compacts": [str(k) for k in wit.compacts]}
    return out


def _run_corpus(problem: ProblemFile) -> dict:
    policy = Policy()
    rows = []
    failures = 0
    for item in corpus_mod.CORPUS:
        family = corpus_mod.family_by_name(item.family)
        verdict = test_weak_null(family, policy)
        ok = verdict.kind == item.expected_kind and (
            item.expected_scheme is None or verdict.scheme == item.expected_scheme)
        failures += 0 if ok else 1
        row = {"name": item.name, "family": item.family,
               "verdict": verdict.kind, "scheme": verdict.scheme,
               "expected": item.expected_kind, "ok": ok}
        if verdict.scheme == "divisibility-point-witness":
            row["norm_floor"] = verdict.witness.delta
        rows.append(row)
    for fam_name, pt, expected in corpus_mod.LOCAL_CORPUS:
        family = corpus_mod.family_by_name(fam_name)
        verdict = test_weak_null_at(family, ExtPoint.parse(pt), policy)
        ok = verdict.kind == expected
        failures += 0 if ok else 1
        rows.append({"name": f"{fam_name} at {pt}", "family": fam_name,
                     "verdict": verdict.kind, "scheme": verdict.scheme,
                     "expected": expected, "ok": ok})
    for name, nu, expect in _restriction_fixtures():
        rb = hat(nu)
        got = ("zero" if rb.is_zero()
               else "dirac " + ",".join(str(x) for x, _ in rb.point_masses))
        ok = got == expect
        failures += 0 if ok else 1
        rows.append({"name": name, "hat": got, "expected": expect, "ok": ok})
    wit = singularity_witness(
        CompositeFA([(Fraction(1), corpus_mod.closed_dirac_base())]),
        Fraction(1, 2), count=6)
    sing_ok = (wit is not None and
               wit.measures == tuple(Fraction(2, n) for n in range(1, 7)) and
               all(lb >= 1 for lb in wit.lower_bounds))
    failures += 0 if sing_ok else 1
    rows.append({"name": "singularity witness, closed dirac base",
                 "compact_measures": list(wit.measures) if wit else [],
                 "ok": sing_ok})
    if failures:
        raise EngineError(f"{failures} corpus expectations failed")
    return {"kind": "corpus", "items": rows, "total": len(rows),
            "failures": failures}


def _restriction_fixtures():
    return [
        ("hat of the escaping base (0,1/l)",
         CompositeFA([(Fraction(1), corpus_mod.escaping_base())]), "zero"),
        ("hat of the base shrinking to 1/2",
         CompositeFA([(Fraction(1), corpus_mod.dirac_base())]), "dirac 1/2"),
        ("hat of the tent separator base (punctured neighborhoods of 0)",
         CompositeFA([(Fraction(1), corpus_mod.app3_base())]), "dirac 0"),
    ]


_HANDLERS = {
    "weaknull": _run_weaknull,
    "weaknull-at": _run_weaknull_at,
    "essrange": _run_essrange,
    "essrange-at": _run_essrange_at,
    "finite-model": _run_finite_model,
    "restrict": _run_restrict,
    "corpus": _run_corpus,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linfweak",
        description="Exact weak-nullity verdicts, essential ranges, finite "
                    "dual models and C0-restrictions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for task in _HANDLERS:
        p = sub.add_parser(task, help=f"run a {task} problem")
        if task != "corpus":
            p.add_argument("config", help="problem file path")
        p.add_argument("--budget-J", type=int, default=None,
                       help="max subsequence length J")
        p.add_argument("--budget-k", type=int, default=None,
                       help="max term index")
        p.add_argument("--alpha-grid", type=str, default=None,
                       help="comma-separated positive rationals")
        p.add_argument("--subseq", type=str, default=None,
                       help="strategy names or an explicit index list")
        p.add_argument("--format", choices=("human", "machine"),
                       default="human")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "corpus":
            text = "task = corpus\n"
        else:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        problem = parse_problem_text(text)
        if problem.task != args.command:
            raise ProblemError(f"file declares task {problem.task!r} but the "
                               f"subcommand is {args.command!r}")
        for key, flag in (("budget-j", args.budget_J), ("budget-k", args.budget_k),
                          ("alpha-grid", args.alpha_grid), ("subseq", args.subseq)):
            if flag is not None:
                if key not in TASKS[problem.task][1]:  # an optional field
                    raise ProblemError(f"field {key!r} is not valid for task "
                                       f"{problem.task!r}")
                problem.fields[key] = str(flag)
        report = run(problem)
    except (ProblemError, LiteralError, OSError, UnicodeDecodeError,
            SetAlgebraError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (EngineError, CertificateError, UnsupportedOracleError,
            OracleConsistencyError) as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 4
    try:
        text_out = (render_machine if args.format == "machine" else render_human)(report)
    except ValueError:  # an integer longer than str() converts
        print(f"input error: a result value has more than {sys.get_int_max_str_digits()} "
              "digits, the most a report prints and reads back", file=sys.stderr)
        return 2
    sys.stdout.write(text_out)
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())

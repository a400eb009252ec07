"""The three benchmark workloads: seeded ops and their known answers.

An op is one user question.  `run(L)` asks it through the public API of the
package whose modules are the attributes of `L`; `check(result)` compares
the answer with one known by construction and raises `WrongAnswer` when
they differ.  The oracles below are closed forms written from the
definitions of the families, never calls into the code under test (apart
from evaluating the returned object, e.g. `v.eval(x)`).

Every workload is a list of rounds.  Each round has the same op classes in
the same order; the seed only changes the parameters inside an op (indices,
points, widths, weights, alphas).  The runner measures whole rounds, so two
seeds put the same mix of work into a run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

NULL = "null-certified"
NONNULL = "nonnull-certified"
INCONCLUSIVE = "inconclusive"


class WrongAnswer(AssertionError):
    """An op returned an answer that differs from the known one."""


def expect(cond: bool, message: str):
    if not cond:
        raise WrongAnswer(message)


@dataclass(frozen=True)
class Op:
    kind: str                  # op class, the same for every seed
    spec: tuple                # the seeded inputs, printable
    run: Callable              # run(L) -> result, the timed part
    check: Callable            # check(result) -> None, raises WrongAnswer


def _non_dyadic_point(rng, lo: F, hi: F) -> F:
    """A rational in [lo, hi] that is not a dyadic rational, so it is never
    one of the breakpoints of the dyadic step families."""
    den = 3 * 5 * 7 * 11
    x = lo + (hi - lo) * F(rng.randint(1, den - 1), den)
    odd = x.denominator
    while odd % 2 == 0:
        odd //= 2
    return x if odd > 1 else x + F(1, 3 * den)


# ---------------------------------------------------------------------------
# verdict-mix: the path real users take


# expected verdicts of the built-in families, from their definitions
GLOBAL_VERDICTS = {
    "dyadic-indicators": (NULL, "disjoint-supports"),
    "dyadic-indicators-minus": (NULL, "disjoint-supports"),
    "dyadic-indicators-plus": (NONNULL, "superlevel-kernel"),
    "summable-disjoint": (NULL, "summable-disjoint"),
    "tents": (NONNULL, "superlevel-kernel"),
    "escape-translates": (NULL, "escape-bound"),
    "sided-translates": (NONNULL, "monotone-norm-floor"),
    "sin-reciprocal": (NONNULL, "divisibility-point-witness"),
    "ring-indicators": (NULL, "disjoint-supports"),
    "dini-null": (NULL, "norm-limit"),
    "dini-nonnull": (NONNULL, "monotone-norm-floor"),
    "zero-family": (NULL, "eventual-constant"),
}

# localized verdicts at points of the one-point compactification
LOCAL_VERDICTS = [
    ("sided-translates", "0", NULL), ("sided-translates", "-3", NULL),
    ("sided-translates", "inf", NONNULL), ("tents", "0", NONNULL),
    ("tents", "1/2", NULL), ("tents", "inf", NULL),
    ("zero-family", "0", NULL), ("zero-family", "inf", NULL),
    ("dyadic-indicators", "0", NULL), ("ring-indicators", "0", NULL),
]

STRATEGIES = ("identity", "even", "odd", "dyadic")
CLI_ALPHAS = ("1/2", "1/3", "1/4", "2/3", "3/4", "1/8")


def weaknull_text(rng, family: str) -> str:
    """A `task = weaknull` problem with a seeded alpha grid and strategy set;
    neither changes the verdict of a certificate-bearing family."""
    alphas = sorted(rng.sample(CLI_ALPHAS, 2), key=F)
    strategies = [s for s in STRATEGIES if rng.random() < 0.6] or ["identity"]
    return (f"task = weaknull\nfamily = {family}\n"
            f"alpha-grid = {', '.join(alphas)}\nsubseq = {','.join(strategies)}\n")


def machine_fields(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            key, _, value = line.partition(" = ")
            out[key] = value
    return out


def cli_op(rng, family: str) -> Op:
    text = weaknull_text(rng, family)
    kind, scheme = GLOBAL_VERDICTS[family]

    def run(L):
        report = L.cli.run(L.problemfile.parse_problem_text(text))
        return report.exit_code(), L.reporting.render_machine(report)

    def check(result):
        code, out = result
        expect(code == 0, f"exit code {code}")
        expect(out.splitlines()[-1].startswith("# elapsed-ms = "), "no timing comment")
        fields = machine_fields(out)
        expect(fields.get("task") == "weaknull", "task line missing")
        expect(f"family = {family}" in fields.values(), "problem not echoed")
        expect(fields.get("result.kind") == kind, f"kind {fields.get('result.kind')}")
        expect(fields.get("result.scheme") == scheme,
               f"scheme {fields.get('result.scheme')}")
        if family == "tents":
            # the plateau kernel (-1/J, 0) u (0, 1/J) has measure 2/J
            for J in range(1, 13):
                got = fields.get(f"result.witness.table.{J}.kernel_measure")
                expect(got == str(F(2, J)), f"kernel measure at J={J}: {got}")
        if family == "sin-reciprocal":
            # the floor is sin(pi/4) = 1/sqrt(2) rounded down
            delta = F(fields["result.witness.delta"])
            expect(0 < delta and delta * delta <= F(1, 2), f"floor {delta} too high")
            expect(abs(float(delta) - math.sqrt(0.5)) < 1e-9, f"floor {delta} too low")
    return Op("cli-weaknull", (family, text), run, check)


def local_op(family: str, point: str, kind: str) -> Op:
    def run(L):
        return L.localize.test_weak_null_at(L.corpus.family_by_name(family),
                                            L.points.ExtPoint.parse(point))

    def check(verdict):
        expect(verdict.kind == kind, f"{family} at {point}: {verdict.kind}")
    return Op("local-verdict", (family, point), run, check)


def translate_point_op(rng, family: str) -> Op:
    """Translate families are null at every finite point: far translates
    vanish (escape) or equal their right tail 0 (sided) on each ball."""
    if family == "escape-translates" and rng.random() < 0.25:
        point = "inf"
    else:
        point = str(F(rng.randint(-40, 40), rng.randint(1, 4)))
    op = local_op(family, point, NULL)
    return Op("translate-point", op.spec, op.run, op.check)


def disjoint_family(L, scale: F, height: F):
    """u_k = height on [2^-(k+1), (1+scale) 2^-(k+1)): pairwise disjoint."""
    sets, piecewise, families = L.sets, L.piecewise, L.families

    class Blocks(families.SequenceFamily):
        def _term(self, k):
            lo = F(1, 2 ** (k + 1))
            block = sets.IntervalSet.of(sets.ico(lo, lo + scale * lo))
            return piecewise.PiecewiseFn.step(self.domain, [(block, height)])

    return Blocks(sets.Domain.open_interval(-1, 1), f"blocks-{scale}-{height}",
                  abs(height), (families.DisjointSupports("scaled dyadic blocks"),))


def monotone_family(L, width: F, limit: F):
    """u_k = (limit + 1/k) on (0, width): non-increasing, norms -> limit."""
    sets, piecewise, families = L.sets, L.piecewise, L.families
    block = sets.IntervalSet.of(sets.opened(0, width))

    class Steps(families.SequenceFamily):
        def _term(self, k):
            return piecewise.PiecewiseFn.step(self.domain, [(block, limit + F(1, k))])

    return Steps(sets.Domain.open_interval(0, 1), f"steps-{width}-{limit}", limit + 1,
                 (families.MonotoneEnvelope(),
                  families.NormLimit(limit, lambda k: F(1, k))))


def disjoint_op(rng, image: str) -> Op:
    """Disjoint blocks are null, and so are their |u_k| and u_k^2 images."""
    num = rng.randint(1, 3)
    scale = F(num, rng.randint(num, 4))
    height = F(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice((1, -1))

    def run(L):
        fam = disjoint_family(L, scale, height)
        if image == "abs":
            fam = fam.abs_mapped()
        elif image == "square":
            fam = L.families.MappedStepFamily(fam, [F(0), F(0), F(1)])
        return L.engine.test_weak_null(fam)

    def check(verdict):
        expect((verdict.kind, verdict.scheme) == (NULL, "disjoint-supports"),
               f"{verdict.kind} by {verdict.scheme}")
    return Op(f"disjoint-{image}", (scale, height), run, check)


def monotone_op(rng, limit: F, image: str) -> Op:
    """Monotone steps are null iff the norm limit is 0 (the Dini corollary)."""
    width = F(rng.randint(1, 3), 4)
    want = (NULL, "norm-limit") if limit == 0 else (NONNULL, "monotone-norm-floor")

    def run(L):
        fam = monotone_family(L, width, limit)
        if image == "abs":
            fam = fam.abs_mapped()
        return L.engine.test_weak_null(fam)

    def check(verdict):
        expect((verdict.kind, verdict.scheme) == want,
               f"limit {limit}: {verdict.kind} by {verdict.scheme}")
    return Op(f"monotone-{image}", (width, limit), run, check)


def verdict_mix_round(rng) -> list[Op]:
    ops = [cli_op(rng, family) for family in GLOBAL_VERDICTS]
    ops += [local_op(*item) for item in LOCAL_VERDICTS]
    ops += [translate_point_op(rng, fam) for fam in
            ("sided-translates", "sided-translates", "escape-translates",
             "escape-translates")]
    ops += [disjoint_op(rng, image) for image in
            ("plain", "plain", "abs", "abs", "square", "square")]
    ops += [monotone_op(rng, limit, "plain") for limit in (F(0), F(1, 2), F(1))]
    ops.append(monotone_op(rng, rng.choice((F(0), F(1, 2))), "abs"))
    return ops


def verdict_mix_warmup(rng) -> list[Op]:
    return [cli_op(rng, "zero-family"), cli_op(rng, "sin-reciprocal"),
            local_op("zero-family", "0", NULL), disjoint_op(rng, "square"),
            monotone_op(rng, F(1, 2), "abs")]


def replay_check(L, ops: list[Op]) -> list[str]:
    """Re-run the problem embedded in each CLI report; the replayed report
    must be byte-identical once the timing comment is stripped."""
    rep = L.reporting
    problems = []
    seen = set()
    for op in ops:
        if op.kind != "cli-weaknull" or op.spec[0] in seen:
            continue
        seen.add(op.spec[0])
        first = rep.render_machine(L.cli.run(L.problemfile.parse_problem_text(op.spec[1])))
        again = rep.render_machine(L.cli.run(
            L.problemfile.parse_problem_text(rep.embedded_problem(first))))
        if rep.strip_volatile(first) != rep.strip_volatile(again):
            problems.append(f"replay of {op.spec[0]} differs")
    return problems


# ---------------------------------------------------------------------------
# evidence-deep: the exact kernels behind the inconclusive path


EVIDENCE_FAMILIES = ("tents", "sided-translates", "dyadic-indicators-plus",
                     "escape-translates", "summable-disjoint")
SUMMABLE_LAYERS = 6


def bare_family(L, name: str):
    """The named family with its certificates removed, so that the engine
    falls through every scheme to the evidence table."""
    inner = L.corpus.family_by_name(name)

    class Bare(L.families.SequenceFamily):
        def _term(self, k):
            return inner.term(k)

    return Bare(inner.domain, f"bare-{name}", inner.norm_bound, ())


def closed_measure(name: str, alpha: F, ks: list[int]):
    """lambda of the superlevel intersection along ks, from the definitions.

    tents decrease pointwise in k, so the intersection is {u_kJ > alpha};
    escape translates are tents of half-width 1 centred at -k; sided
    translates keep the value 1 on a left ray; summable layers are disjoint
    in k, so two distinct indices already give a null set.
    """
    if alpha >= 1:
        return 0  # every term of these families is bounded by 1
    k1, kJ = ks[0], ks[-1]
    if name == "tents":
        return min(F(2), 2 * (2 - alpha) / kJ)
    if name == "dyadic-indicators-plus":
        return F(1, 2 ** (kJ + 1))
    if name == "sided-translates":
        return math.inf
    if name == "escape-translates":
        return max(F(0), 2 * (1 - alpha) - (kJ - k1))
    if name == "summable-disjoint":
        if len(ks) > 1:
            return 0
        return sum((F(1, 2 ** i) * F(1, 2 ** (k1 + 1))
                    for i in range(1, SUMMABLE_LAYERS + 1) if F(1, 2 ** i) > alpha), F(0))
    raise KeyError(name)


def closed_value(name: str, k: int, x: F) -> F:
    """|u_k(x)| from the definitions."""
    if name == "tents":
        ax = abs(x)
        if x == 0 or ax >= F(2, k):
            return F(0)
        return F(1) if ax <= F(1, k) else 2 - k * ax
    if name == "escape-translates":
        return max(F(0), 1 - abs(x + k))
    if name == "dyadic-indicators-plus":
        return F(1) if 0 <= x < F(1, 2 ** (k + 1)) else F(0)
    if name == "summable-disjoint":
        for i in range(1, SUMMABLE_LAYERS + 1):
            b = F(1, 2 ** i)
            if b * (1 + F(1, 2 ** (k + 1))) <= x < b * (1 + F(1, 2 ** k)):
                return b
        return F(0)
    raise KeyError(name)


def closed_sup(name: str, ks: list[int]) -> F:
    """ess sup of v_J = min_j |u_kj|."""
    if name in ("tents", "dyadic-indicators-plus"):
        return F(1)  # v_J = |u_kJ| for pointwise decreasing families
    if name == "escape-translates":
        return max(F(0), 1 - F(ks[-1] - ks[0], 2))
    if name == "summable-disjoint":
        return F(1, 2) if len(ks) == 1 else F(0)
    raise KeyError(name)


def _strategy_indices(name: str, J: int) -> list[int]:
    index = {"identity": lambda j: j, "even": lambda j: 2 * j,
             "odd": lambda j: 2 * j - 1, "dyadic": lambda j: 2 ** j}[name]
    return [index(j) for j in range(1, J + 1)]


def evidence_op(rng, name: str) -> Op:
    extra = sorted(rng.sample(range(1, 17), 6))

    def run(L):
        policy = L.engine.Policy(extra_subsequences=[extra])
        return L.engine.test_weak_null(bare_family(L, name), policy)

    def check(verdict):
        expect(verdict.kind == INCONCLUSIVE and verdict.scheme is None,
               f"{verdict.kind} by {verdict.scheme}")
        table = verdict.evidence["table"]
        names = {row["subsequence"] for row in table}
        expect(names == set(STRATEGIES) | {str(extra)}, f"subsequences {sorted(names)}")
        for row in table:
            label = row["subsequence"]
            ks = (extra[:row["J"]] if label == str(extra)
                  else _strategy_indices(label, row["J"]))
            want = closed_measure(name, row["alpha"], ks)
            expect(row["measure"] == want,
                   f"alpha {row['alpha']} {label} J={row['J']}: "
                   f"{row['measure']} != {want}")
    return Op("evidence-table", (name, tuple(extra)), run, check)


def _sample_points(rng, name: str, ks: list[int]) -> list[F]:
    if name == "tents":
        pts = [_non_dyadic_point(rng, F(-1), F(1)) for _ in range(4)]
        pts += [F(1, ks[-1]) * F(4, 3), F(0)]
    elif name == "escape-translates":
        pts = [_non_dyadic_point(rng, F(-ks[-1] - 1), F(-ks[0] + 1)) for _ in range(4)]
        pts += [F(-(ks[0] + ks[-1]), 2)]
    elif name == "dyadic-indicators-plus":
        pts = [_non_dyadic_point(rng, F(-1, 2), F(1, 2)) for _ in range(3)]
        pts += [F(1, 2 ** (ks[-1] + 1)) * F(1, 3), F(1, 2 ** (ks[0] + 1)) * F(2, 3)]
    else:
        pts = [_non_dyadic_point(rng, F(0), F(1)) for _ in range(3)]
        pts += [F(1, 2 ** i) * (1 + F(1, 2 ** (ks[-1] + 1)) * F(4, 3)) for i in (1, 3, 6)]
    return pts


def v_inf_op(rng, name: str, J: int, slack: int = 8) -> Op:
    """v_J along J indices drawn from a window of J + slack indices starting
    at a seeded offset; a small slack keeps the cost nearly seed-free."""
    start = rng.randint(1, 4)
    ks = sorted(rng.sample(range(start, start + J + slack), J))
    points = _sample_points(rng, name, ks)

    def run(L):
        return L.engine.v_inf(L.corpus.family_by_name(name), ks, J)

    def check(v):
        for x in points:
            want = min(closed_value(name, k, x) for k in ks)
            expect(v.eval(x) == want, f"v_J({x}) = {v.eval(x)} != {want}")
        expect(v.ess_sup_norm() == closed_sup(name, ks), "ess sup of v_J")
    return Op("v-inf", (name, tuple(ks), tuple(points)), run, check)


EVIDENCE_ALPHAS = (F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1))


def intersection_op(rng, name: str, J: int) -> Op:
    ks = sorted(rng.sample(range(1, J + 4), J))
    alpha = rng.choice(EVIDENCE_ALPHAS)

    def run(L):
        return L.engine.intersection_measure(L.corpus.family_by_name(name), ks, alpha, J)

    def check(m):
        want = closed_measure(name, alpha, ks)
        expect(m == want, f"measure {m} != {want}")
    return Op("intersection-measure", (name, tuple(ks), alpha), run, check)


# One round: 5 evidence tables, 30 v_J and 17 intersection measures.  The
# classes are sized so that the latency quantiles fall on plateaus of one
# class with a stable cost: p50 among the 13 escape v_J at J = 32, p90
# among the 12 tent v_J at J = 40, below the three heavy evidence tables.
# A quantile that falls in a gap between two classes jumps between runs.
TINY = ((("intersection", "tents", 8),) * 5 + (("intersection", "escape-translates", 6),) * 5
        + (("intersection", "dyadic-indicators-plus", 8),) * 4
        + (("intersection", "summable-disjoint", 2),) * 3
        + (("v-inf", "dyadic-indicators-plus", 8),) * 3)
P50_PLATEAU = (("v-inf", "escape-translates", 32),) * 13
P90_PLATEAU = (("v-inf", "tents", 40),) * 12 + (("v-inf", "escape-translates", 48),) * 2
PLATEAU_SLACK = 2


def evidence_deep_round(rng) -> list[Op]:
    light = [intersection_op(rng, name, J) if kind == "intersection"
             else v_inf_op(rng, name, J) for kind, name, J in TINY]
    light += [v_inf_op(rng, name, J, PLATEAU_SLACK)
              for _, name, J in P50_PLATEAU + P90_PLATEAU]
    ops = []
    for i, name in enumerate(EVIDENCE_FAMILIES):
        ops.append(evidence_op(rng, name))
        ops += light[i::len(EVIDENCE_FAMILIES)]
    return ops


def evidence_deep_warmup(rng) -> list[Op]:
    return [evidence_op(rng, "escape-translates"), v_inf_op(rng, "tents", 8),
            intersection_op(rng, "tents", 4)]


# ---------------------------------------------------------------------------
# dual-models: finite dual models, filter bases and sine enclosures


def finite_space(L, weights):
    return L.finitemodel.FiniteSpace(tuple(weights))


FINITE_POINTS = 8
JORDAN_DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 8)


def finite_ops(rng, live_count: int) -> list[Op]:
    """One seeded finite space of FINITE_POINTS points, live_count of them
    with positive weight, through the five finite-model questions (Jordan
    twice).  The costs depend on n and live_count only, not on the seed."""
    n = FINITE_POINTS
    live = sorted(rng.sample(range(n), live_count))
    weights = tuple(F(rng.randint(1, 6), rng.randint(1, 4)) if i in live else F(0)
                    for i in range(n))
    u = tuple(F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(n))
    spec = (weights,)

    def unit(i):
        return tuple(F(int(j == i)) for j in range(n))

    def op_enum():
        def run(L):
            return L.finitemodel.enumerate_zero_one_measures(finite_space(L, weights))

        def check(omegas):
            expect([w.point for w in omegas] == live, "0-1 measures != live points")
        return Op("zero-one-measures", spec, run, check)

    def op_extreme():
        def run(L):
            return L.finitemodel.extreme_points_unit_ball(finite_space(L, weights))

        def check(verts):
            # the extreme points are the +- Dirac masses at live points
            expect(len(verts) == 2 * live_count, f"{len(verts)} extreme points")
            want = {unit(i) for i in live} | {tuple(-m for m in unit(i)) for i in live}
            expect({v.masses for v in verts} == want, "extreme points differ")
        return Op("extreme-points", spec, run, check)

    def op_jordan():
        # the same denominators in a seeded order: the cost of the 3^n
        # subset sums depends on them, and should not depend on the seed
        masses = tuple(F(rng.choice((-1, 1)) * rng.randint(1, 8), den)
                       for den in rng.sample(JORDAN_DENOMINATORS, n))

        def run(L):
            nu = L.finitemodel.FAVector(masses)
            return L.finitemodel.jordan(nu, finite_space(L, weights), verify=True)

        def check(dec):
            expect(dec.positive.masses == tuple(max(m, F(0)) for m in masses), "nu+")
            expect(dec.negative.masses == tuple(max(-m, F(0)) for m in masses), "nu-")
            expect(dec.total_variation == sum(abs(m) for m in masses), "|nu|")
        return Op("jordan", spec + (masses,), run, check)

    def op_essrange():
        def run(L):
            return L.finitemodel.essential_range_bruteforce(list(u), finite_space(L, weights))

        def check(values):
            expect(values == {u[i] for i in live}, f"essential range {sorted(values)}")
        return Op("essential-range", spec + (u,), run, check)

    def op_rainwater():
        # six terms whose second half is constant; a "diverge" sequence
        # moves one coordinate late, which only a live point can see
        dead = [i for i in range(n) if i not in live]
        moved = rng.choice(dead) if rng.random() < 0.5 else rng.choice(live)
        last = [F(rng.randint(-3, 3)) for _ in range(n)]
        vectors = [tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(3)]
        vectors += [tuple(last)] * 3
        bumped = list(last)
        bumped[moved] += 1
        vectors[4] = tuple(bumped)
        converges = moved not in live

        def run(L):
            return L.finitemodel.rainwater_check(finite_space(L, weights),
                                                 [list(v) for v in vectors])

        def check(rw):
            expect((rw.ball_converges, rw.extreme_converges) == (converges, converges),
                   f"rainwater {rw.ball_converges}/{rw.extreme_converges}, "
                   f"want {converges}")
        return Op("rainwater", spec + (tuple(vectors),), run, check)

    return [op_enum(), op_extreme(), op_jordan(), op_essrange(), op_rainwater(),
            op_jordan()]


def filter_base_ops(rng) -> list[Op]:
    """A base shrinking two-sidedly to c in (0,1) and one escaping through 0.
    The first restricts to coef1 * delta_c, the second to zero."""
    c = F(rng.randint(5, 15), 20)
    a, b = F(1, rng.randint(5, 9)), F(1, rng.randint(5, 9))
    e = F(1, rng.randint(1, 4))
    coef1 = F(rng.randint(1, 4), rng.randint(1, 3))
    coef2 = F(rng.randint(1, 4), rng.randint(1, 3))
    spec = (c, a, b, e, coef1, coef2)

    def functional(L, which):
        rs, sets = L.restriction, L.sets
        dom = sets.Domain.open_interval(0, 1)
        dirac = rs.FilterBaseMeasure(rs.BaseFormula((rs.BasePart.affine(c, -a, c, b),)), dom)
        escape = rs.FilterBaseMeasure(rs.BaseFormula((rs.BasePart.affine(0, 0, 0, e),)), dom)
        atoms = {"dirac": [(coef1, dirac)], "escape": [(coef2, escape)],
                 "mixed": [(coef1, dirac), (coef2, escape)]}[which]
        return rs.CompositeFA(atoms)

    def window(L, lo, hi):
        return L.sets.IntervalSet.of(L.sets.opened(lo, hi))

    ops = []

    def add(kind, run, check):
        ops.append(Op(kind, spec, run, check))

    def want_dirac(rb):
        expect(rb.point_masses == ((c, coef1),), f"hat {rb.point_masses}")

    add("hat", lambda L: L.restriction.hat(functional(L, "dirac")), want_dirac)
    add("hat", lambda L: L.restriction.hat(functional(L, "escape")),
        lambda rb: expect(rb.is_zero(), "escaping base restricts to nonzero"))
    add("hat", lambda L: L.restriction.hat(functional(L, "mixed")), want_dirac)

    def forced(q):
        expect((q.lower, q.upper, q.determined) == (coef1, coef1, True),
               f"query {q.lower}..{q.upper}")
    add("fa-query", lambda L: L.restriction.fa_query(
        functional(L, "mixed"), window(L, c - F(1, 8), c + F(1, 8))), forced)

    def split(q):
        # (c, 1) cuts every two-sided B_l: the extension decides, not the base
        expect((q.lower, q.upper, q.determined) == (0, coef1, False),
               f"query {q.lower}..{q.upper}")
        expect(q.atom_answers == ("undetermined", "zero"), f"answers {q.atom_answers}")
    add("fa-query", lambda L: L.restriction.fa_query(functional(L, "mixed"),
                                                     window(L, c, F(1))), split)

    def enclosing(bounds):
        lo, hi = bounds
        expect(0 <= lo <= coef1 <= hi <= coef1 + coef2, f"minimax [{lo}, {hi}]")
    add("minimax", lambda L: L.restriction.minimax_value(
        functional(L, "mixed"), window(L, c - F(1, 8), c + F(1, 8))), enclosing)

    def shrinking(wit):
        # K_n is the closed hull [c - a/n, c + b/n] of B_n
        expect(wit is not None, "no singularity witness")
        expect(wit.measures == tuple((a + b) / n for n in range(1, 9)),
               f"measures {wit.measures}")
        expect(all(lb == coef1 for lb in wit.lower_bounds), "lower bounds")
    add("singularity", lambda L: L.restriction.singularity_witness(
        functional(L, "mixed"), coef1), shrinking)
    add("singularity", lambda L: L.restriction.singularity_witness(
        functional(L, "mixed"), coef1 + coef2 + 1),
        lambda wit: expect(wit is None, "witness above the available mass"))
    return ops


SIN_WIDTHS = tuple(F(1, 10 ** w) for w in (9, 15, 25, 40, 60))


def sin_op(rng, width: F) -> Op:
    """sin((q0 + 2m) pi) = sin(q0 pi) with |q0| <= 1/2, where math.sin is
    accurate to a few units in the last place."""
    q0 = F(rng.randint(-50, 50), 100)
    q = q0 + 2 * rng.randint(-2, 2)
    ref = math.sin(math.pi * float(q0))

    def run(L):
        return L.enclosure.sin_of_pi_multiple(q, width)

    def check(enc):
        expect(enc.width() <= width, f"width {float(enc.width())} > {float(width)}")
        expect(float(enc.lo) - 1e-15 <= ref <= float(enc.hi) + 1e-15,
               f"sin({q} pi) = {ref} outside [{float(enc.lo)}, {float(enc.hi)}]")
    return Op("sin-enclosure", (q, width), run, check)


def dual_models_round(rng) -> list[Op]:
    """30 finite-model ops, 24 filter-base ops and 5 sine enclosures.  The
    ten Jordan ops (3^8 subset pairs each) form a plateau around p90; only
    the extreme-point and Rainwater ops at 4 and 5 live points lie above."""
    groups = [finite_ops(rng, d) for d in range(1, 6)]
    bases = filter_base_ops(rng) + filter_base_ops(rng) + filter_base_ops(rng)
    sines = [sin_op(rng, w) for w in SIN_WIDTHS]
    ops = []
    for i, group in enumerate(groups):
        ops += group + bases[i::len(groups)] + [sines[i]]
    return ops


def dual_models_warmup(rng) -> list[Op]:
    return finite_ops(rng, 2) + filter_base_ops(rng) + [sin_op(rng, w) for w in SIN_WIDTHS]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str                  # why each exists: bench/README.md
    round: Callable            # round(rng) -> list[Op]
    warmup: Callable           # warmup(rng) -> list[Op]
    rounds: int                # rounds generated in set-up (the run cycles them)
    trace_rounds: int          # rounds in one traced pass
    op_limit_s: int            # per-op wall-clock limit


WORKLOADS = {
    "verdict-mix": Workload("verdict-mix", verdict_mix_round, verdict_mix_warmup,
                            rounds=40, trace_rounds=2, op_limit_s=20),
    "evidence-deep": Workload("evidence-deep", evidence_deep_round, evidence_deep_warmup,
                              rounds=6, trace_rounds=1, op_limit_s=30),
    "dual-models": Workload("dual-models", dual_models_round, dual_models_warmup,
                            rounds=30, trace_rounds=1, op_limit_s=20),
}


def generate(workload: Workload, seed: int, rounds: int) -> list[list[Op]]:
    rng = random.Random(f"{workload.name}:{seed}")
    return [workload.round(rng) for _ in range(rounds)]


def warmup_ops(workload: Workload, seed: int) -> list[Op]:
    return workload.warmup(random.Random(f"{workload.name}:warmup:{seed}"))

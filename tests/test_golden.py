"""The behaviour contract: stripped ``--format machine`` reports, byte for byte.

Each golden file under ``tests/golden/`` is the `strip_volatile` report of
one CLI problem: the `corpus` task, `weaknull` for every named family,
`weaknull-at` for every `LOCAL_CORPUS` item and `restrict` for each of
`RESTRICT_PROBLEMS`.  ``local-schemes.txt`` is the scheme sweep: the kind
and scheme of the global verdict and of the verdict at every `SWEEP_POINTS`
point in the closure of the domain, for every named family and its |u_k|
image.  A kernel change that keeps the verdicts must keep these files
unchanged.  After a deliberate change of
report content, regenerate them all from the repository root with

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.regenerate()"
"""

import difflib
import io
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from linfweak.cli import main
from linfweak.corpus import FAMILIES, LOCAL_CORPUS, family_by_name
from linfweak.engine import Policy, test_weak_null
from linfweak.localize import in_closure, test_weak_null_at
from linfweak.points import ExtPoint
from linfweak.reporting import strip_volatile

GOLDEN = Path(__file__).parent / "golden"

# restrict problems: (0,1) throughout; hat, query, minimax and, given alpha,
# the singularity witness
RESTRICT_PROBLEMS = {
    # a base shrinking to 7/20 and one escaping through 0
    "mixed": "atoms = 3/2 * (7/20 - 1/6/l, 7/20 + 1/8/l) ; 2 * (0, 1/3/l)\n"
             "set = (9/40, 19/40)\nalpha = 3/2\n",
    # the set's end crosses a base end only near l = 250000
    "late": "atoms = 1 * (1/2-1/4/l, 1/2+1/4/l)\nset = (499999/1000000, 1)\n",
    # one atom at infinity: the hat is zero, the query still answers one
    "escape": "atoms = 2 * (0, 1/3/l)\nset = (0, 1/2)\nalpha = 1\n",
    # B_l read at l + 2, so that B_1 = (1/6, 5/6) fits in (0,1)
    "shift": "atoms = 3/2 * (1/2 - 1/l, 1/2 + 1/l) shift 2\n"
             "set = (1/4, 3/4)\nalpha = 1\n",
    # the set misses the base's limit point only: B_l lies in it up to a null set
    "point-gap": "atoms = 1 * (1/2 - 1/4/l, 1/2 + 1/4/l)\n"
                 "set = (0, 1/2) u (1/2, 1)\n",
    # the "mixed" atoms on the Dirac point alone: compact and not open, so
    # the minimax enclosure is b itself inside and a fattening outside
    "dirac-point": "atoms = 3/2 * (7/20 - 1/6/l, 7/20 + 1/8/l) ; 2 * (0, 1/3/l)\n"
                   "set = [7/20, 7/20]\n",
    # a half-open set, neither compact nor open: a core inside, a fattening
    # outside
    "half-open": "atoms = 3/2 * (7/20 - 1/6/l, 7/20 + 1/8/l) ; 2 * (0, 1/3/l)\n"
                 "set = [1/4, 7/20)\n",
}


def _problems() -> dict[str, tuple[str, str]]:
    """golden file name -> (task, problem text)."""
    out = {"corpus.txt": ("corpus", "")}
    for family in FAMILIES:
        out[f"weaknull-{family}.txt"] = (
            "weaknull", f"task = weaknull\nfamily = {family}\n")
    for family, pt, _ in LOCAL_CORPUS:
        out[f"weaknull-at-{family}-{pt.replace('/', '_')}.txt"] = (
            "weaknull-at", f"task = weaknull-at\nfamily = {family}\npoint = {pt}\n")
    for name, text in RESTRICT_PROBLEMS.items():
        out[f"restrict-{name}.txt"] = (
            "restrict", f"task = restrict\ndomain = (0,1)\n{text}")
    return out


def _report(task: str, text: str, tmp_dir: Path) -> str:
    argv = [task, "--format", "machine"]
    if text:
        cfg = tmp_dir / "problem.cfg"
        cfg.write_text(text)
        argv.insert(1, str(cfg))
    out = io.StringIO()
    with redirect_stdout(out):
        main(argv)
    return strip_volatile(out.getvalue())


# points of the scheme sweep: both sides of 0 at several scales, the ends
# of the corpus domains and a point beyond them
SWEEP_POINTS = ["inf", "0", *(f"{sign}{x}" for x in ("1/100", "1/30", "1/20",
                                                      "1/8", "1/2", "1", "3")
                              for sign in ("", "-")), "44/7"]


def _scheme_sweep() -> str:
    """One line per verdict: family, point ('global' for the global
    verdict), kind and scheme, under the default policy."""
    families = []
    for name in FAMILIES:
        family = family_by_name(name)
        families.append(family)
        if family.has_piecewise_terms():
            families.append(family.abs_mapped())
    lines = []
    for family in families:
        verdict = test_weak_null(family, Policy())
        lines.append(f"{family.name} global {verdict.kind} {verdict.scheme}")
        for pt in SWEEP_POINTS:
            x0 = ExtPoint.parse(pt)
            if in_closure(family.domain, x0):
                verdict = test_weak_null_at(family, x0, Policy())
                lines.append(f"{family.name} {pt} {verdict.kind} {verdict.scheme}")
    return "\n".join(lines) + "\n"


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (task, text) in _problems().items():
            (GOLDEN / name).write_text(_report(task, text, Path(tmp)))
    (GOLDEN / "local-schemes.txt").write_text(_scheme_sweep())


@pytest.mark.parametrize("name", sorted(_problems()))
def test_report_matches_golden(name, tmp_path):
    task, text = _problems()[name]
    want = (GOLDEN / name).read_text()
    got = _report(task, text, tmp_path)
    if got != want:
        diff = "".join(difflib.unified_diff(
            want.splitlines(keepends=True), got.splitlines(keepends=True),
            f"golden/{name}", "current report"))
        pytest.fail(f"report differs from golden/{name}:\n{diff}")


def test_one_process_forward_then_reverse_matches_golden(tmp_path):
    """All problems in one process, twice: the shared families carry their
    term caches from question to question, and no report may change."""
    problems = sorted(_problems().items())
    for name, (task, text) in problems + problems[::-1]:
        got = _report(task, text, tmp_path)
        assert got == (GOLDEN / name).read_text(), name


def test_scheme_sweep_matches_golden():
    want = (GOLDEN / "local-schemes.txt").read_text()
    got = _scheme_sweep()
    if got != want:
        diff = "".join(difflib.unified_diff(
            want.splitlines(keepends=True), got.splitlines(keepends=True),
            "golden/local-schemes.txt", "current sweep"))
        pytest.fail(f"scheme sweep differs from golden/local-schemes.txt:\n{diff}")

"""The behaviour contract: stripped ``--format machine`` reports, byte for byte.

Each golden file under ``tests/golden/`` is the `strip_volatile` report of
one CLI problem: the `corpus` task, `weaknull` for every named family and
`weaknull-at` for every `LOCAL_CORPUS` item.  A kernel change that keeps the
verdicts must keep these files unchanged.  After a deliberate change of
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
from linfweak.corpus import FAMILIES, LOCAL_CORPUS
from linfweak.reporting import strip_volatile

GOLDEN = Path(__file__).parent / "golden"


def _problems() -> dict[str, tuple[str, str]]:
    """golden file name -> (task, problem text)."""
    out = {"corpus.txt": ("corpus", "")}
    for family in FAMILIES:
        out[f"weaknull-{family}.txt"] = (
            "weaknull", f"task = weaknull\nfamily = {family}\n")
    for family, pt, _ in LOCAL_CORPUS:
        out[f"weaknull-at-{family}-{pt.replace('/', '_')}.txt"] = (
            "weaknull-at", f"task = weaknull-at\nfamily = {family}\npoint = {pt}\n")
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


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (task, text) in _problems().items():
            (GOLDEN / name).write_text(_report(task, text, Path(tmp)))


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

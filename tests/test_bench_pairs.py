"""`tools/bench_pairs.py` refuses run counts it cannot summarize before it
runs anything: the quartiles need two pairs, and a run needs a positive,
finite length."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("flag,value,message", [
    ("--pairs", "1", "--pairs must be at least 2"),
    ("--pairs", "0", "--pairs must be at least 2"),
    ("--seconds", "0", "--seconds must be positive and finite"),
    ("--seconds", "-2", "--seconds must be positive and finite"),
    ("--seconds", "nan", "--seconds must be positive and finite"),
    ("--seconds", "inf", "--seconds must be positive and finite"),
])
def test_bad_run_counts_exit_2_at_parse_time(flag, value, message, tmp_path, capsys):
    # the checkouts do not exist: the arguments are refused before any is read
    missing = tmp_path / "missing"
    argv = ["--parent", str(missing), "--change", str(missing), "--seed", "1",
            "--out", str(tmp_path / "out.json"), flag, value]
    with pytest.raises(SystemExit) as exc:
        _bench_pairs().main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()

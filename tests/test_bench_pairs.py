"""`tools/bench_pairs.py` refuses run counts it cannot summarize before it
runs anything: the quartiles need two pairs, and a run needs a positive,
finite length.  It traces every workload of BENCHMARK.json once per side."""

import importlib.util
import json
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


def test_every_workload_is_traced_once_per_side(tmp_path, monkeypatch):
    # two checkouts that declare three workloads and one metric; the runs
    # are faked, so nothing is started
    spec = {"workloads": [{"name": n} for n in ("w1", "w2", "w3")],
            "end_to_end": [{"name": "ops_per_s", "better": "higher"}]}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    module = _bench_pairs()
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, workload, seed, seconds, trace))
        return {"metrics": {"ops_per_s": {"value": 1.0}}, "correct": True}

    monkeypatch.setattr(module, "run_bench", fake_run)
    out = tmp_path / "out.json"
    assert module.main(["--parent", str(tmp_path / "parent"), "--change",
                        str(tmp_path / "change"), "--seed", "1", "--pairs", "2",
                        "--seconds", "1", "--out", str(out)]) == 0
    traced = json.loads(out.read_text())["traced"]
    assert sorted(traced) == ["w1", "w2", "w3"]
    for workload, entry in traced.items():
        assert (entry["seed"], entry["seconds"]) == (module.TRACE_SEED, module.TRACE_SECONDS)
        assert entry["parent"] == entry["change"] == {"ops_per_s": {"value": 1.0}}
    assert sorted(c for c in calls if c[4] == 1) == sorted(
        (side, w, module.TRACE_SEED, module.TRACE_SECONDS, 1)
        for side in ("parent", "change") for w in ("w1", "w2", "w3"))
    assert len(calls) == 3 * (2 * 2 + 2)

"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

The traced-count test runs bench/run.py twice per workload and takes
about a minute.
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _counts(metrics: dict) -> dict:
    return {k: m["value"] for k, m in metrics.items()
            if k.endswith(".calls") or k in tracing.DETERMINISTIC
            or m["unit"] in ("count", "bits")}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    results = []
    for _ in range(2):
        proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                      "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["correct"] and out["failed"] == 0
        results.append(_counts(out["metrics"]))
    assert set(tracing.DETERMINISTIC) <= set(results[0])
    assert results[0] == results[1]


def test_same_seed_same_inputs_and_every_seed_same_mix():
    for name, workload in workloads.WORKLOADS.items():
        a = workloads.generate(workload, 3, 2)
        b = workloads.generate(workload, 3, 2)
        c = workloads.generate(workload, 4, 2)
        assert run.fingerprint(a) == run.fingerprint(b)
        assert run.fingerprint(a) != run.fingerprint(c), name
        assert [[op.kind for op in r] for r in a] == [[op.kind for op in r] for r in c]
        assert run.mix_problems(workload, 3, a) == []


def test_op_limit_fails_a_hanging_op_and_the_run_goes_on():
    # budget-j = 10^8 makes the kernel-witness table loop for minutes
    text = "task = weaknull\nfamily = tents\nbudget-j = 100000000\n"
    hang = workloads.Op("hang", (text,), lambda L: L.cli.run(
        L.problemfile.parse_problem_text(text)), lambda result: None)
    L = run.Package()
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        t0 = time.perf_counter()
        start, end, error = run.run_op(hang, L, 1)
        assert error == "hit the 1 s limit"
        assert time.perf_counter() - t0 < 10
        ok = workloads.local_op("zero-family", "0", workloads.NULL)
        assert run.run_op(ok, L, 5)[2] is None
    finally:
        signal.signal(signal.SIGALRM, old)


def test_oracles_reject_wrong_answers():
    L = run.Package()
    rng = random.Random(1)
    op = workloads.cli_op(rng, "tents")
    code, text = op.run(L)
    op.check((code, text))
    with pytest.raises(workloads.WrongAnswer):
        op.check((code, text.replace("nonnull-certified", "null-certified")))

    v_op = workloads.v_inf_op(rng, "tents", 8)
    other = workloads.v_inf_op(rng, "escape-translates", 8)
    v_op.check(v_op.run(L))
    with pytest.raises(workloads.WrongAnswer):
        v_op.check(other.run(L))

    assert workloads.closed_measure("tents", F(1, 2), [3, 5]) == F(3, 5)
    assert workloads.closed_measure("escape-translates", F(1, 4), [2, 3]) == F(1, 2)
    m_op = workloads.intersection_op(rng, "tents", 4)
    with pytest.raises(workloads.WrongAnswer):
        m_op.check(F(-1))


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "verdict-mix", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

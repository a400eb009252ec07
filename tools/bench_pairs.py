"""Alternating benchmark pairs of two checkouts, summarized as one JSON file.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --pairs 10 --seconds 25 --seed 22001 --out BENCH_22.json

Each pair runs `bench/run.py` once in each checkout, on one fresh seed per
pair, with the side that runs first alternating from pair to pair.  For
every workload and each end-to-end metric of BENCHMARK.json the output holds
the per-pair values, the medians and quartiles of each side and the number
of pairs the change won (by the metric's `better` direction).  It also holds
one traced pass per side (`--trace 1`) of every workload, on seed 7 for 8 s,
with the per-layer counts and times of each.
Runs go one at a time, so the two sides never share the host.  Standard library
only; the raw result line of every run is kept in the output too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
TRACE_SEED = 7
TRACE_SECONDS = 8


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last stdout line of one bench/run.py run, as parsed JSON."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(pairs: list[dict], metric: str, better: str) -> dict:
    parent = [p["parent"]["metrics"][metric]["value"] for p in pairs]
    change = [p["change"]["metrics"][metric]["value"] for p in pairs]
    won = sum((c > b) if better == "higher" else (c < b) for b, c in zip(parent, change))
    out = {"parent": parent, "change": change, "better": better,
           "parent_summary": summary(parent), "change_summary": summary(change),
           "change_wins": won, "pairs": len(pairs)}
    diff = out["change_summary"]["median"] - out["parent_summary"]["median"]
    out["median_diff"] = diff
    out["median_diff_exceeds_parent_iqr"] = abs(diff) > out["parent_summary"]["iqr"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the first pair; pair i of workload w uses "
                             "seed + 100 w + i")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error(f"--pairs must be at least 2 (quartiles need two runs a side), "
                     f"got {args.pairs}")
    if not 0 < args.seconds < float("inf"):
        parser.error(f"--seconds must be positive and finite, got {args.seconds}")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())

    result = {"command": " ".join(["python3", "tools/bench_pairs.py"] + (argv or sys.argv[1:])),
              "pairs": args.pairs, "seconds": args.seconds, "workloads": {}, "traced": {}}
    workloads = [entry["name"] for entry in spec["workloads"]]
    for w, workload in enumerate(workloads):
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + 100 * w + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(checkouts[side], workload, seed, args.seconds, 0)
            pairs.append(pair)
            ops = [pair[s]["metrics"]["ops_per_s"]["value"] for s in SIDES]
            print(f"{workload} seed {seed}: ops_per_s {ops[0]:.1f} -> {ops[1]:.1f}",
                  file=sys.stderr, flush=True)
        result["workloads"][workload] = {
            "metrics": {m["name"]: compare(pairs, m["name"], m["better"])
                        for m in spec["end_to_end"]},
            "correct": {s: all(p[s]["correct"] for p in pairs) for s in SIDES},
            "runs": pairs}
    for workload in workloads:
        result["traced"][workload] = {
            "seed": TRACE_SEED, "seconds": TRACE_SECONDS,
            **{side: run_bench(checkouts[side], workload, TRACE_SEED, TRACE_SECONDS, 1)["metrics"]
               for side in SIDES}}
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

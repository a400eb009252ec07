"""linfweak benchmark: one closed-loop client, one process, standard library.

    python3 bench/run.py --workload verdict-mix --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from ./src.
Set-up (import, input generation, warm-up) is repeated SETUP_REPS times and
its median is `setup_s`.  The timed phase then runs whole rounds of the
workload until --seconds have passed (and at least MIN_OPS ops), timing each
op and checking its answer against the known one.  With --trace 1 it
instead alternates untraced and traced passes over a fixed op list and
reports the per-layer metrics of bench/README.md.

Every reported time is rescaled to the reference host speed (hostspeed.py);
the raw wall-clock values are printed on the human-readable lines.  Those
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Exit code 0 means the run
finished, even when answers were wrong (then "correct" is false); 2 means
the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

import hostspeed  # noqa: E402  (bench/ is on sys.path as the script directory)
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("sets", "piecewise", "families", "engine", "localize", "enclosure",
           "finitemodel", "polytope", "restriction", "literals", "problemfile",
           "reporting", "cli", "corpus", "points", "numtheory")
SETUP_REPS = 9
MIN_OPS = 100       # so that at least ten latency samples lie beyond p90
HARD_STOP_S = 150   # the timed phase never starts a round after this
MIX_CHECK_ROUNDS = 3

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_ms.p50": "ms",
                    "latency_ms.p90": "ms", "peak_rss_mb": "MB",
                    "success_rate": "ratio"}


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that exceeds its wall-clock limit.
    A BaseException, so that no `except Exception` in the package can
    swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class Package:
    """The freshly imported linfweak modules, as attributes."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "linfweak" or m.startswith("linfweak.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        pkg = importlib.import_module("linfweak")
        if Path(pkg.__file__).resolve().parent != SRC / "linfweak":
            raise ImportError(f"linfweak imported from {pkg.__file__}, not {SRC}")
        self.modules = {"linfweak": pkg}
        for name in MODULES:
            mod = importlib.import_module(f"linfweak.{name}")
            self.modules[name] = mod
            setattr(self, name, mod)


def run_op(op, L, limit_s, tracer=None, op_id=0):
    """(start, end, error text or None), times from perf_counter.  The
    per-op limit uses SIGALRM, so no extra thread is started."""
    signal.alarm(limit_s)
    start = time.perf_counter()
    try:
        result = tracer.run_op(op_id, op.run, L) if tracer else op.run(L)
    except OpTimeout:
        return start, time.perf_counter(), f"hit the {limit_s} s limit"
    except Exception as exc:  # an op that raises counts as failed; the run goes on
        return start, time.perf_counter(), f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.alarm(0)
    end = time.perf_counter()
    try:
        op.check(result)
    except workloads.WrongAnswer as exc:
        return start, end, f"wrong answer: {exc}"
    except Exception as exc:
        return start, end, f"check raised {type(exc).__name__}: {exc}"
    return start, end, None


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reported = 0

    def record(self, op, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if self.reported < 5:
                self.reported += 1
                print(f"FAILED {op.kind} {op.spec!r}: {error}", file=sys.stderr)


def run_ops(ops, L, workload, tally, speed, tracer=None):
    """Run ops in order, sampling the host speed between them; returns the
    (raw, rescaled) duration in seconds of each op."""
    spans = []
    speed.sample()
    for i, op in enumerate(ops):
        speed.maybe_sample()
        start, end, error = run_op(op, L, workload.op_limit_s, tracer, i)
        tally.record(op, error)
        spans.append((start, end))
    speed.sample()
    return [(end - start, (end - start) * speed.scale(start, end)) for start, end in spans]


def setup(workload, seed, tally):
    """Import, generate the seeded inputs and warm up; returns the package
    and the rounds.  Warm-up fills the lru_cache of the pi enclosures."""
    L = Package()
    rounds = workloads.generate(workload, seed, workload.rounds)
    for op in workloads.warmup_ops(workload, seed):
        tally.record(op, run_op(op, L, workload.op_limit_s)[2])
    return L, rounds


def fingerprint(rounds) -> str:
    h = hashlib.sha256()
    for ops in rounds:
        for op in ops:
            h.update(repr((op.kind, op.spec)).encode())
    return h.hexdigest()[:16]


def mix_problems(workload, seed, rounds) -> list[str]:
    """A second seed must give the same op classes in the same order."""
    other = workloads.generate(workload, seed + 1, MIX_CHECK_ROUNDS)
    problems = []
    for i, (a, b) in enumerate(zip(rounds, other)):
        if [op.kind for op in a] != [op.kind for op in b]:
            problems.append(f"round {i}: seeds {seed} and {seed + 1} differ in op classes")
    return problems


def timed_phase(workload, L, rounds, seconds, tally, speed):
    """Whole rounds until `seconds` of wall time and MIN_OPS ops."""
    durations = []
    start = time.perf_counter()
    r = 0
    while True:
        durations += run_ops(rounds[r % len(rounds)], L, workload, tally, speed)
        r += 1
        wall = time.perf_counter() - start
        if (wall >= seconds and len(durations) >= MIN_OPS) or wall >= HARD_STOP_S:
            return durations, wall, r


def traced_phase(workload, L, rounds, seconds, tally, speed, seed):
    """Alternate untraced and traced passes over the first trace_rounds
    rounds until `seconds` have passed (at least one pair).  Counts come
    from the first traced pass; self times are medians over traced passes."""
    ops = [op for ops in rounds[:workload.trace_rounds] for op in ops]
    plain_rates, traced_rates, passes = [], [], []
    start = time.perf_counter()
    while True:
        plain = run_ops(ops, L, workload, tally, speed)
        plain_rates.append(len(ops) / sum(s for _, s in plain))
        tracer = tracing.Tracer(L.modules)
        tracer.install()
        try:
            traced = run_ops(ops, L, workload, tally, speed, tracer)
        finally:
            tracer.uninstall()
        traced_rates.append(len(ops) / sum(s for _, s in traced))
        pass_scale = sum(s for _, s in traced) / sum(r for r, _ in traced)
        metrics = tracer.metrics(len(ops))
        for key in metrics:
            if key.endswith(".self_ms"):
                metrics[key] *= pass_scale
        passes.append(metrics)
        if len(passes) == 1:
            RESULTS.mkdir(exist_ok=True)
            path = RESULTS / f"spans-{workload.name}-seed{seed}.tsv"
            tracer.write_spans(path)
            print(f"spans: {len(tracer.spans)} of at least "
                  f"{tracing.KEEP_NS / 1e6:g} ms written to {path.relative_to(ROOT)}")
        if time.perf_counter() - start >= seconds:
            break
    metrics = dict(passes[0])
    for key in metrics:
        if key.endswith(".self_ms"):
            metrics[key] = statistics.median(p[key] for p in passes)
    metrics["trace.overhead"] = (statistics.median(traced_rates)
                                 / statistics.median(plain_rates))
    print(f"traced passes: {len(passes)} of {len(ops)} ops; untraced "
          f"{statistics.median(plain_rates):.3f} ops/s, traced "
          f"{statistics.median(traced_rates):.3f} ops/s (rescaled)")
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("ratio", "overhead", "per_cell")):
        return "ratio"
    if name.endswith("bits.max"):
        return "bits"
    return "count"


def end_to_end(durations, setup_times, attempted, failed):
    """The six end-to-end metrics, rescaled, plus their raw counterparts.
    ops_per_s divides by the summed op time, not by the wall time of the
    phase: that leaves out the answer checks and host-speed samples, which
    are the benchmark's own work.  With one closed-loop client it is the
    rate a user asking questions back to back would see."""
    ok = attempted - failed
    raw_ms = [r * 1e3 for r, _ in durations]
    scaled_ms = [s * 1e3 for _, s in durations]
    values = {
        "setup_s": statistics.median(s for _, s in setup_times),
        "ops_per_s": ok / sum(s for _, s in durations),
        "latency_ms.p50": statistics.median(scaled_ms),
        "latency_ms.p90": statistics.quantiles(scaled_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": ok / attempted,
    }
    raw = {
        "setup_s": statistics.median(r for r, _ in setup_times),
        "ops_per_s": ok / sum(r for r, _ in durations),
        "latency_ms.p50": statistics.median(raw_ms),
        "latency_ms.p90": statistics.quantiles(raw_ms, n=10, method="inclusive")[8],
    }
    return values, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "linfweak" / "__init__.py").is_file():
        print(f"error: no linfweak package under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    workload = workloads.WORKLOADS[args.workload]
    tally = Tally()
    speed = hostspeed.HostSpeed()

    setup_times = []
    for _ in range(SETUP_REPS):
        speed.sample()
        t0 = time.perf_counter()
        L, rounds = setup(workload, args.seed, tally)
        t1 = time.perf_counter()
        speed.sample()
        setup_times.append((t1 - t0, (t1 - t0) * speed.scale(t0, t1)))
    problems = mix_problems(workload, args.seed, rounds)
    if workload.name == "verdict-mix":
        problems += workloads.replay_check(L, rounds[0])
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    kinds = collections.Counter(op.kind for op in rounds[0])
    print(f"workload {workload.name} seed {args.seed}: fingerprint "
          f"{fingerprint(rounds)}, {len(rounds[0])} ops per round "
          f"({', '.join(f'{k} {n}' for k, n in sorted(kinds.items()))})")

    if args.trace:
        metrics = traced_phase(workload, L, rounds, args.seconds, tally, speed, args.seed)
        out = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())}
        raw = {}
    else:
        before = tally.attempted, tally.failed
        durations, wall, done = timed_phase(workload, L, rounds, args.seconds, tally, speed)
        attempted = tally.attempted - before[0]
        failed = tally.failed - before[1]
        values, raw = end_to_end(durations, setup_times, attempted, failed)
        print(f"timed phase: {done} rounds, {attempted} ops in {wall:.2f} s, "
              f"latency samples {len(durations)}, error_rate {failed / attempted:.4f}, "
              f"host speed samples {len(speed.durations)}")
        out = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for name, m in out.items():
        extra = f"   (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}{extra}")
    print(json.dumps({"correct": tally.failed == 0 and not problems,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

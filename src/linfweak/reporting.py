"""Reports: one structured result per task, in human or machine form.

The machine form is line-delimited `path = value` text: flattened key paths
on the left, literal-syntax values on the right, in a stable order, with the
full problem statement echoed under `problem.*` so a report can be replayed
byte-for-byte (timing lives in a comment line and is excluded from
comparisons).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .engine import NormFloorWitness, Verdict, Witness


@dataclass
class Report:
    task: str
    problem_lines: list[str]
    result: dict
    elapsed_ms: Optional[float] = None

    def exit_code(self) -> int:
        if self.result["kind"] == "inconclusive":
            return 3
        return 0


def render_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if v is None:
        return "none"
    return str(v)


def flatten(prefix: str, obj) -> list[tuple[str, str]]:
    out = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            key = str(k).replace(" ", "-")
            out.extend(flatten(f"{prefix}.{key}" if prefix else key, v))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj, start=1):
            out.extend(flatten(f"{prefix}.{i}", v))
    else:
        out.append((prefix, render_value(obj)))
    return out


def verdict_to_dict(v: Verdict) -> dict:
    out: dict = {
        "family": v.family,
        "kind": v.kind,
        "scheme": v.scheme,
        "trust": v.trust,
    }
    if v.witness is not None:
        if isinstance(v.witness, Witness):
            out["witness"] = {"type": "kernel", "alpha": v.witness.alpha,
                              "subsequence": v.witness.subsequence,
                              "table": v.witness.table,
                              "kernel_sets": {f"k{k}": str(v.witness.kernel(k))
                                              for k in (1, 2, 3, 4)}}
        elif isinstance(v.witness, NormFloorWitness):
            out["witness"] = {"type": "norm-floor", "delta": v.witness.delta,
                              "subsequence": v.witness.subsequence,
                              "rows": v.witness.rows}
    if v.evidence:
        out["evidence"] = v.evidence
    if v.cert_reports:
        out["certificates"] = [
            {"name": r.certificate, "passed": r.passed,
             "checked_upto": r.checked_upto} for r in v.cert_reports]
    return out


def render_machine(report: Report) -> str:
    lines = [f"task = {report.task}"]
    for i, ln in enumerate(report.problem_lines, start=1):
        lines.append(f"problem.{i} = {ln}")
    for path, value in flatten("result", report.result):
        lines.append(f"{path} = {value}")
    if report.elapsed_ms is not None:
        lines.append(f"# elapsed-ms = {report.elapsed_ms:.1f}")
    return "\n".join(lines) + "\n"


def render_human(report: Report) -> str:
    lines = [f"== {report.task} =="]
    for path, value in flatten("", report.result):
        lines.append(f"  {path}: {value}")
    if report.elapsed_ms is not None:
        lines.append(f"  (elapsed {report.elapsed_ms:.1f} ms)")
    return "\n".join(lines) + "\n"


def strip_volatile(machine_text: str) -> str:
    """Drop comment lines (timing) for replay comparisons."""
    return "\n".join(ln for ln in machine_text.splitlines()
                     if not ln.startswith("#")) + "\n"


def embedded_problem(machine_text: str) -> str:
    """Recover the problem statement echoed inside a machine report."""
    out = []
    for ln in machine_text.splitlines():
        if ln.startswith("problem."):
            out.append(ln.split(" = ", 1)[1])
    return "\n".join(out) + "\n"

"""Declarative problem files: `key = value` lines, one task per file.

Keys are case-insensitive.  One pass reads the lines; then the first field
that the task does not allow is reported with its line and column, and after
that any required field that is missing.  Parse errors carry line and column
numbers, and parsing is deterministic: the canonical text (task first, other
keys in sorted order) is what reports echo and replay.
"""

from __future__ import annotations

from dataclasses import dataclass

from .literals import LiteralError, parse_int


class ProblemError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        where = f" (line {line}, column {col})" if line else ""
        super().__init__(message + where)
        self.line = line
        self.col = col


# Each task's (required fields, optional fields).
TASKS = {
    "weaknull": ({"family"}, {"budget-j", "budget-k", "alpha-grid", "subseq"}),
    "weaknull-at": ({"family", "point"}, {"budget-j", "budget-k", "alpha-grid",
                                          "subseq", "ell-max"}),
    "essrange": ({"domain", "function"}, set()),
    "essrange-at": ({"domain", "function", "point"}, set()),
    "finite-model": ({"weights"}, {"vectors", "masses"}),
    "restrict": ({"domain"}, {"atoms", "density", "set", "alpha"}),
    "corpus": (set(), set()),
}


@dataclass
class ProblemFile:
    task: str
    fields: dict[str, str]

    def canonical_lines(self) -> list[str]:
        lines = [f"task = {self.task}"]
        for key in sorted(self.fields):
            lines.append(f"{key} = {self.fields[key]}")
        return lines

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.fields.get(key, default)

    def get_int(self, key: str, default: int) -> int:
        raw = self.fields.get(key)
        if raw is None:
            return default
        try:
            return parse_int(raw)
        except LiteralError:
            raise ProblemError(f"{key} must be an integer, got {raw!r}") from None


def parse_problem_text(text: str) -> ProblemFile:
    task = None
    fields: dict[str, str] = {}
    where: dict[str, tuple[int, int]] = {}  # each field key's line and column
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ProblemError("expected 'key = value'", lineno, 1)
        head, _, rest = raw.partition("=")
        key, value = head.strip().lower(), rest.strip()
        if not key:
            raise ProblemError("empty key", lineno, 1)
        col = len(head) + 2  # the column just after '='
        if not value:
            raise ProblemError(f"empty value for {key!r}", lineno, col)
        if key == "task":
            if task is not None:
                raise ProblemError("duplicate task line", lineno, 1)
            if value not in TASKS:
                raise ProblemError(f"unknown task {value!r}; known: "
                                   f"{sorted(TASKS)}", lineno,
                                   col + len(rest) - len(rest.lstrip()))
            task = value
            continue
        if key in fields:
            raise ProblemError(f"duplicate key {key!r}", lineno, 1)
        fields[key] = value
        where[key] = (lineno, len(head) - len(head.lstrip()) + 1)
    if task is None:
        raise ProblemError("missing 'task = ...' line")
    required, optional = TASKS[task]
    allowed = required | optional
    for key in fields:
        if key not in allowed:
            raise ProblemError(f"field {key!r} is not valid for task {task!r}; "
                               f"allowed: {sorted(allowed) or 'none'}",
                               *where[key])
    missing = required - set(fields)
    if missing:
        raise ProblemError(f"task {task!r} is missing required fields "
                           f"{sorted(missing)}")
    return ProblemFile(task, fields)

"""Points of the one-point compactification, the exact test of a set
accumulating at one, the limit values of a piecewise function at one, and
symbolic witness points."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .sets import IntervalSet, is_finite, rat


@dataclass(frozen=True)
class ExtPoint:
    """A point of X_infinity: either a finite rational or the point at
    infinity (x = None)."""

    x: Optional[Fraction]

    @staticmethod
    def at(x) -> "ExtPoint":
        return ExtPoint(rat(x))

    @staticmethod
    def infinity() -> "ExtPoint":
        return ExtPoint(None)

    @property
    def is_infinite(self) -> bool:
        return self.x is None

    def __str__(self) -> str:
        return "inf" if self.x is None else str(self.x)

    @staticmethod
    def parse(text: str) -> "ExtPoint":
        """'inf' (or '+inf', 'infinity'), else a rational in the literal
        grammar: ['+' | '-'] digits ['/' digits]."""
        # imported here: literals imports restriction, which imports points
        from .literals import parse_rat
        text = text.strip()
        if text in ("inf", "+inf", "infinity"):
            return ExtPoint.infinity()
        return ExtPoint.at(parse_rat(text))


def escape_points(carrier: IntervalSet) -> tuple[list[Fraction], bool, bool]:
    """Finite boundary points not in the carrier, plus flags for escapes to
    -inf / +inf.  These are the routes a set can take toward the point at
    infinity."""
    finite = []
    to_neg = to_pos = False
    for p in carrier.parts:
        if is_finite(p.lo):
            if not p.lo_closed:
                finite.append(p.lo)
        else:
            to_neg = True
        if is_finite(p.hi):
            if not p.hi_closed:
                finite.append(p.hi)
        else:
            to_pos = True
    return sorted(set(finite)), to_neg, to_pos


def accumulates_at(s: IntervalSet, x0: ExtPoint, carrier: IntervalSet) -> bool:
    """Exact test: does s have positive measure in every neighborhood of x0?
    A part of positive length does when its closure reaches x0; the point at
    infinity is reached by an unbounded part or through an escape point of
    the carrier."""
    if not x0.is_infinite:
        return any(not p.is_point() and p.lo <= x0.x <= p.hi for p in s.parts)
    escapes = escape_points(carrier)[0]
    return any(not p.is_point() and
               (not p.is_bounded() or any(p.lo <= q <= p.hi for q in escapes))
               for p in s.parts)


def _limit_values(u, x0: ExtPoint):
    """The limit value at x0 of each non-null piece of the piecewise
    function u whose closure reaches it."""
    pts = escape_points(u.domain.carrier)[0] if x0.is_infinite else [x0.x]
    for p in u.pieces:
        if p.is_null():
            continue
        iv = p.interval
        if x0.is_infinite and not iv.is_bounded():
            yield p.intercept  # unbounded pieces have slope 0
        yield from (p.value(q) for q in pts if iv.lo <= q <= iv.hi)


@dataclass(frozen=True)
class WitnessPoint:
    """A point where sequence terms are evaluated with certified enclosures.

    Either a plain rational x, or the symbolic form x = 1/(q*pi) with
    rational q > 0 (the shape of the nondivisor and nested-midpoint witness
    abscissae, where sin(1/(k*x)) = sin((q/k)*pi) reduces exactly).
    """

    kind: str  # "rational" | "inv-pi-multiple"
    value: Fraction

    @staticmethod
    def rational(x) -> "WitnessPoint":
        x = rat(x)
        return WitnessPoint("rational", x)

    @staticmethod
    def inv_pi_multiple(q) -> "WitnessPoint":
        q = rat(q)
        if q <= 0:
            raise ValueError("need q > 0 so that 1/(q*pi) is a positive point")
        return WitnessPoint("inv-pi-multiple", q)

    def __str__(self) -> str:
        if self.kind == "rational":
            return str(self.value)
        return f"1/({self.value}*pi)"

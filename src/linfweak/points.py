"""Points of the one-point compactification, and symbolic witness points."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .sets import rat


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
        grammar: ['-'] digits ['/' digits]."""
        # imported here: literals imports restriction, which imports points
        from .literals import parse_rat
        text = text.strip()
        if text in ("inf", "+inf", "infinity"):
            return ExtPoint.infinity()
        return ExtPoint.at(parse_rat(text))


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

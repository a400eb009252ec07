"""Textual literals for sets, piecewise functions and filter bases.

Grammar (whitespace is free everywhere):

    set       := 'empty' | item ('u' item)*
    item      := interval | '{' rat '}'
    interval  := ('[' | '(') bound ',' bound (']' | ')')
    bound     := inf | rat
    inf       := '-inf' | 'inf' | '+inf'
    rat       := int ['/' digits]              # a zero denominator is an error
    int       := ['+' | '-'] digits            # also the integer fields of a
                                               # problem file (`parse_int`)

    piecewise := piece (';' piece)*            # u(x) = a*x + b on each part
    piece     := interval rat rat              # interval, slope a, intercept b

    base      := bpart ('u' bpart)* ['shift' digits]
                                               # B(l), endpoints affine in l;
                                               # 'shift s' reads it at l + s
    bpart     := ('[' | '(') bexpr ',' bexpr (']' | ')')
    bexpr     := inf | bterm (('+' | '-') bterm)*   # e.g. 1/2 - 1/l,  3*l
    bterm     := rat | rat '/' 'l' | rat '*' 'l' | 'l'

    atoms     := atom (';' atom)*              # the `atoms` of a problem file,
    atom      := rat '*' ['B(l) ='] base       # read by the CLI: coef * base

Rendering uses the same syntax, so every value in a report parses back.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .piecewise import PiecewiseFn
from .restriction import BaseFormula, BasePart, EndFn
from .sets import Domain, Interval, IntervalSet, NEG_INF, POS_INF, ivl


MAX_SHIFT_DIGITS = 6


class LiteralError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at column {pos + 1})")
        self.pos = pos


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def take(self, ch: str):
        self.skip_ws()
        if not self.text.startswith(ch, self.i):
            raise LiteralError(f"expected {ch!r}", self.i)
        self.i += len(ch)

    def try_take(self, ch: str) -> bool:
        self.skip_ws()
        if self.text.startswith(ch, self.i):
            self.i += len(ch)
            return True
        return False

    def try_word(self, word: str) -> bool:
        self.skip_ws()
        end = self.i + len(word)
        if self.text[self.i:end].lower() == word and \
                (end >= len(self.text) or not self.text[end].isalnum()):
            self.i = end
            return True
        return False

    def either(self, yes: str, no: str, message: str) -> bool:
        """True after `yes`, False after `no`; else an error with `message`."""
        if self.try_take(yes):
            return True
        if self.try_take(no):
            return False
        raise LiteralError(message, self.i)

    def digits(self) -> str:
        """The run of decimal digits at the cursor, possibly empty.  Only the
        digits that int() reads: '²' is a digit to isdigit(), not to int()."""
        start = self.i
        while self.i < len(self.text) and self.text[self.i].isdecimal():
            self.i += 1
        return self.text[start:self.i]

    def integer(self) -> int:
        self.skip_ws()
        start = self.i
        if self.text.startswith(("+", "-"), self.i):
            self.i += 1
        if not self.digits():
            raise LiteralError("expected a number", start)
        return self._int(start)

    def rat(self) -> Fraction:
        num = self.integer()
        if self.text.startswith("/", self.i) and \
                self.text[self.i + 1:self.i + 2].isdecimal():
            self.i += 1
            d0 = self.i
            self.digits()
            den = self._int(d0)
            if den == 0:
                raise LiteralError("zero denominator", d0)
            return Fraction(num, den)
        return Fraction(num)

    def _int(self, start: int) -> int:
        try:
            return int(self.text[start:self.i])
        except ValueError:  # more digits than int() converts
            limit = sys.get_int_max_str_digits()
            raise LiteralError(f"a number has at most {limit} digits", start) from None

    def done(self):
        self.skip_ws()
        if self.i < len(self.text):
            raise LiteralError(f"unexpected trailing input {self.text[self.i:]!r}",
                               self.i)


def parse_rat(text: str) -> Fraction:
    sc = _Scanner(text)
    out = sc.rat()
    sc.done()
    return out


def parse_int(text: str) -> int:
    sc = _Scanner(text)
    out = sc.integer()
    sc.done()
    return out


def _end(sc: _Scanner, finite):
    """'-inf' | 'inf' | '+inf', else what `finite` reads."""
    if sc.try_word("-inf"):
        return NEG_INF
    if sc.try_word("inf") or sc.try_word("+inf"):
        return POS_INF
    return finite(sc)


def _bracketed(sc: _Scanner, finite, expected: str):
    """('[' | '(') end ',' end (']' | ')') as (lo, hi, lo_closed, hi_closed);
    `expected` names what may open it."""
    lo_closed = sc.either("[", "(", expected)
    lo = _end(sc, finite)
    sc.take(",")
    hi = _end(sc, finite)
    hi_closed = sc.either("]", ")", "expected ']' or ')'")
    return lo, hi, lo_closed, hi_closed


def _parse_item(sc: _Scanner) -> Interval:
    start = sc.i
    if sc.try_take("{"):
        x = sc.rat()
        sc.take("}")
        return ivl(x, x, True, True)
    out = ivl(*_bracketed(sc, _Scanner.rat, "expected '[', '(' or '{'"))
    if out is None:
        raise LiteralError("interval literal denotes the empty set", start)
    return out


def parse_set(text: str) -> IntervalSet:
    sc = _Scanner(text)
    if sc.try_word("empty"):
        sc.done()
        return IntervalSet.empty()
    parts = [_parse_item(sc)]
    while sc.try_word("u"):
        parts.append(_parse_item(sc))
    sc.done()
    return IntervalSet.of(*parts)


def format_set(s: IntervalSet) -> str:
    return str(s)


def parse_piecewise(text: str, domain: Domain) -> PiecewiseFn:
    sc = _Scanner(text)
    triples = []
    while True:
        iv = _parse_item(sc)
        a = sc.rat()
        b = sc.rat()
        triples.append((iv, a, b))
        if not sc.try_take(";"):
            break
    sc.done()
    return PiecewiseFn.from_pieces(domain, triples)


def format_piecewise(u: PiecewiseFn) -> str:
    return " ; ".join(f"{p.interval} {p.slope} {p.intercept}" for p in u.pieces)


def _affine_end(sc: _Scanner) -> EndFn:
    """A finite endpoint, affine in l."""
    const = Fraction(0)
    inv = Fraction(0)
    lin = Fraction(0)
    sign = Fraction(1)
    first = True
    while True:
        sc.skip_ws()
        if not first:
            if sc.try_take("+"):
                sign = Fraction(1)
            elif sc.try_take("-"):
                sign = Fraction(-1)
            else:
                break
        first = False
        if sc.try_word("l"):
            lin += sign
            continue
        coef = sc.rat()
        if sc.try_take("/l"):
            inv += sign * coef
        elif sc.try_take("*l"):
            lin += sign * coef
        elif sc.try_take("/"):
            sc.take("l")
            inv += sign * coef
        else:
            const += sign * coef
    return EndFn(const, inv, lin)


def _parse_base_part(sc: _Scanner) -> BasePart:
    lo, hi, lo_closed, hi_closed = _bracketed(sc, _affine_end,
                                              "expected '[' or '('")
    if lo == POS_INF or hi == NEG_INF:
        raise LiteralError("endpoint infinities are the wrong way around", sc.i)
    lo_fn = None if lo == NEG_INF else lo
    hi_fn = None if hi == POS_INF else hi
    return BasePart(lo_fn, hi_fn, lo_closed and lo_fn is not None,
                    hi_closed and hi_fn is not None)


def parse_base_formula(text: str) -> BaseFormula:
    sc = _Scanner(text)
    parts = [_parse_base_part(sc)]
    while sc.try_word("u"):
        parts.append(_parse_base_part(sc))
    index_shift = 0
    if sc.try_word("shift"):
        sc.skip_ws()
        start = sc.i
        run = sc.digits()
        if not run:
            raise LiteralError("expected a non-negative integer shift", start)
        if len(run) > MAX_SHIFT_DIGITS:
            raise LiteralError(f"a shift has at most {MAX_SHIFT_DIGITS} digits", start)
        index_shift = int(run)
    sc.done()
    return BaseFormula(tuple(parts), index_shift)


def format_end_fn(f) -> str:
    if f is None:
        return "?"
    bits = []
    if f.const != 0 or (f.inv == 0 and f.lin == 0):
        bits.append(str(f.const))
    if f.inv != 0:
        bits.append(("+" if f.inv > 0 and bits else "") + f"{f.inv}/l")
    if f.lin != 0:
        bits.append(("+" if f.lin > 0 and bits else "") + f"{f.lin}*l")
    return "".join(bits)


def format_base_formula(bf: BaseFormula) -> str:
    out = []
    for p in bf.parts:
        lo = "-inf" if p.lo is None else format_end_fn(p.lo)
        hi = "inf" if p.hi is None else format_end_fn(p.hi)
        out.append("%s%s,%s%s" % ("[" if p.lo_closed else "(", lo, hi,
                                  "]" if p.hi_closed else ")"))
    shift = f" shift {bf.index_shift}" if bf.index_shift else ""
    return " u ".join(out) + shift

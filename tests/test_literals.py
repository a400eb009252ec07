from fractions import Fraction as F

import pytest
from hypothesis import given

from conftest import interval_sets, ref_ae_equal
from linfweak.literals import (LiteralError, format_base_formula,
                               format_piecewise, format_set, parse_base_formula,
                               parse_piecewise, parse_rat, parse_set)
from linfweak.sets import Domain, IntervalSet, closed, ico, opened


def test_parse_rat():
    assert parse_rat("3/4") == F(3, 4)
    assert parse_rat("-7") == -7
    assert parse_rat(" 5 ") == 5
    with pytest.raises(LiteralError):
        parse_rat("x")


def test_parse_set_basic():
    assert parse_set("[0,1/2)") == IntervalSet.of(ico(0, F(1, 2)))
    got = parse_set("[0,1/2) u (3/4,1]")
    assert len(got.parts) == 2
    assert got.contains(1) and not got.contains(F(3, 4))


def test_parse_set_infinite_and_points():
    s = parse_set("(-inf,0) u {1/2} u (1,inf)")
    assert s.contains(-100) and s.contains(F(1, 2)) and s.contains(7)
    assert not s.contains(F(1, 4))
    assert parse_set("empty").is_empty()


def test_parse_errors_have_positions():
    with pytest.raises(LiteralError) as exc:
        parse_set("[0,1/2) u 3")
    assert "column" in str(exc.value)
    with pytest.raises(LiteralError):
        parse_set("[0,1/2")


@pytest.mark.parametrize("parse, text, column", [
    (parse_rat, "1/0", 3),
    (parse_rat, "-7/000", 4),
    (parse_set, "(0,1/0)", 6),
    (lambda t: parse_piecewise(t, Domain.open_interval(0, 1)), "(0,1) 1/0 0", 9),
    (parse_base_formula, "(1/2 - 1/0/l, 1/2)", 10),
], ids=("rat", "rat-zeros", "set", "piecewise", "base"))
def test_zero_denominator_is_a_literal_error(parse, text, column):
    with pytest.raises(LiteralError, match=f"zero denominator \\(at column {column}\\)"):
        parse(text)


@pytest.mark.parametrize("text, column", [
    ("1" * 5000, 1), ("-" + "1" * 5000, 1), ("1/" + "7" * 5000, 3)],
    ids=("numerator", "signed", "denominator"))
def test_number_past_the_int_digit_limit_is_a_literal_error(text, column):
    with pytest.raises(LiteralError, match=f"digits \\(at column {column}\\)$"):
        parse_rat(text)


def test_empty_interval_literal_rejected():
    with pytest.raises(LiteralError):
        parse_set("[1/2,0)")


@given(interval_sets())
def test_set_roundtrip(s):
    assert parse_set(format_set(s)) == s


def test_piecewise_roundtrip():
    dom = Domain(parse_set("[0,1)"))
    u = parse_piecewise("[0,1/2) 0 1 ; [1/2,1) 0 0", dom)
    assert u.eval(F(1, 4)) == 1 and u.eval(F(3, 4)) == 0
    again = parse_piecewise(format_piecewise(u), dom)
    assert ref_ae_equal(again, u)


def test_piecewise_with_slopes():
    dom = Domain(parse_set("(-1,1)"))
    u = parse_piecewise("(-1,0] -1 0 ; (0,1) 1 0", dom)
    assert u.eval(F(-1, 2)) == F(1, 2) == u.eval(F(1, 2))


def test_base_formula_roundtrip():
    bf = parse_base_formula("(0,1/l)")
    assert str(bf.at(4)) == "(0,1/4)"
    bf2 = parse_base_formula("[1/2-1/l,1/2+1/l]")
    assert bf2.at(8) == IntervalSet.of(closed(F(3, 8), F(5, 8)))
    text = format_base_formula(bf2)
    assert parse_base_formula(text).at(8) == bf2.at(8)


def test_base_formula_multi_part_and_linear():
    bf = parse_base_formula("(-1/2/l,0) u (0,1/2/l)")
    assert bf.at(2) == IntervalSet.of(opened(F(-1, 4), 0), opened(0, F(1, 4)))
    ray = parse_base_formula("(l,inf)")
    assert ray.at(3) == IntervalSet.of(parse_set("(3,inf)").parts[0])
    scaled = parse_base_formula("(0,3*l)")
    assert scaled.at(2) == IntervalSet.of(opened(0, 6))


def test_base_formula_shift():
    bf = parse_base_formula("(1/2-1/l,1/2+1/l) shift 2")
    assert bf.index_shift == 2
    assert bf.at(1) == IntervalSet.of(opened(F(1, 6), F(5, 6)))
    text = format_base_formula(bf)
    assert text.endswith(" shift 2")
    assert parse_base_formula(text) == bf
    assert format_base_formula(parse_base_formula("(0,1/l) shift 0")) == "(0,1/l)"


@pytest.mark.parametrize("text, message", [
    ("(0,1/l) shift", "expected a non-negative integer shift"),
    ("(0,1/l) shift -1", "expected a non-negative integer shift"),
    ("(0,1/l) shift 1234567", "a shift has at most 6 digits"),
    # a superscript digit is a digit to str.isdigit(), not to int()
    ("(0,1/l) shift ²", "expected a non-negative integer shift"),
    ("(0,1/l) shift 2 u (1,2)", "unexpected trailing input"),
])
def test_base_formula_bad_shift(text, message):
    with pytest.raises(LiteralError, match=message):
        parse_base_formula(text)

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from conftest import grid_points, interval_sets, within_seconds
from linfweak.sets import (Domain, Interval, IntervalSet, SetAlgebraError,
                           closed, complement, first_overlap, ico, intersect,
                           is_compact_subset, is_finite, ivl, measure, opened,
                           point, union, NEG_INF, POS_INF)


def S(*parts):
    return IntervalSet.of(*parts)


# up to five bounded parts, sometimes a left and/or a right ray
WITH_RAYS = interval_sets(max_parts=5, bounded=False)


class TestUnion:
    def test_adjacent_merge(self):
        assert union(S(ico(0, 1)), S(ico(1, 2))) == S(ico(0, 2))

    def test_empty_identity(self):
        assert union(IntervalSet.empty(), S(closed(0, 1))) == S(closed(0, 1))

    def test_endpoint_sweep(self):
        # oracle: membership over the refined endpoint grid
        a = S(ico(0, F(1, 4)), ico(F(1, 2), F(3, 4)))
        b = S(ico(F(1, 8), F(5, 8)))
        got = union(a, b)
        assert got == S(ico(0, F(3, 4)))
        for x in grid_points(a, b):
            assert got.contains(x) == (a.contains(x) or b.contains(x))

    def test_open_endpoints_do_not_merge(self):
        assert union(S(opened(0, 1)), S(opened(1, 2))).parts != \
            S(opened(0, 2)).parts


class TestIntersect:
    def test_basic(self):
        assert intersect(S(ico(0, F(1, 2))), S(ico(F(1, 4), F(3, 4)))) == \
            S(ico(F(1, 4), F(1, 2)))

    def test_absorbing_empty(self):
        assert intersect(S(ico(0, 1)), IntervalSet.empty()).is_empty()

    def test_punctured_membership_oracle(self):
        a = S(opened(-1, 0), opened(0, 1))
        b = S(opened(F(-1, 4), F(1, 4)))
        got = intersect(a, b)
        assert got == S(opened(F(-1, 4), 0), opened(0, F(1, 4)))
        for x in grid_points(a, b):
            assert got.contains(x) == (a.contains(x) and b.contains(x))

    def test_idempotent(self):
        a = S(ico(0, 1), point(2))
        assert intersect(a, a) == a


class TestComplement:
    def test_half_open(self):
        dom = Domain(S(ico(0, 1)))
        assert complement(S(ico(0, F(1, 2))), dom) == S(ico(F(1, 2), 1))

    def test_empty(self):
        dom = Domain(S(opened(0, 1)))
        assert complement(IntervalSet.empty(), dom) == dom.carrier

    def test_membership_oracle(self):
        dom = Domain(S(opened(0, 1)))
        a = S(opened(0, F(1, 3)), opened(F(2, 3), 1))
        got = complement(a, dom)
        assert got == S(closed(F(1, 3), F(2, 3)))
        for x in grid_points(dom.carrier, a):
            assert got.contains(x) == (dom.carrier.contains(x) and not a.contains(x))

    def test_rejects_external_sets(self):
        dom = Domain(S(opened(0, 1)))
        with pytest.raises(SetAlgebraError):
            complement(S(opened(-1, F(1, 2))), dom)


class TestMeasure:
    def test_two_blocks(self):
        assert measure(S(ico(0, F(1, 4)), ico(F(1, 2), F(3, 4)))) == F(1, 2)

    def test_point_is_null(self):
        assert measure(S(point(F(1, 2)))) == 0

    def test_punctured_neighborhood(self):
        # E_l = (-1/(2l), 0) u (0, 1/(2l)) scaled: measure 2/k
        for k in (2, 5, 12):
            s = S(opened(F(-1, k), 0), opened(0, F(1, k)))
            assert measure(s) == F(2, k)

    def test_unbounded(self):
        assert measure(S(ivl(0, POS_INF, True, False))) == POS_INF


class TestCompactSubset:
    def test_closed_in_open(self):
        assert is_compact_subset(S(closed(F(1, 4), F(1, 2))), S(opened(0, 1)))

    def test_boundary_point_not_interior(self):
        assert not is_compact_subset(S(closed(0, F(1, 2))), S(ico(0, 1)))

    def test_two_blocks(self):
        k = S(closed(F(1, 8), F(1, 4)), closed(F(3, 8), F(1, 2)))
        assert is_compact_subset(k, S(opened(0, F(3, 4))))

    def test_open_set_is_not_compact(self):
        assert not is_compact_subset(S(opened(0, 1)), S(opened(-1, 2)))


class TestProperties:
    @given(interval_sets(bounded=False), interval_sets(bounded=False))
    def test_de_morgan(self, a, b):
        box = Domain(S(closed(-20, 20)))
        a = a.intersect(box.carrier)
        b = b.intersect(box.carrier)
        lhs = complement(a.union(b), box)
        rhs = complement(a, box).intersect(complement(b, box))
        assert lhs == rhs
        lhs2 = complement(a.intersect(b), box)
        rhs2 = complement(a, box).union(complement(b, box))
        assert lhs2 == rhs2

    @given(interval_sets(), interval_sets())
    def test_finite_additivity_on_disjoint(self, a, b):
        b = b.difference(a)
        assert a.intersect(b).is_empty()
        assert measure(a.union(b)) == measure(a) + measure(b)

    @given(interval_sets(bounded=False))
    def test_normalize_idempotent(self, s):
        assert IntervalSet.of(*s.parts) == s

    @given(interval_sets(bounded=False))
    def test_complement_measure(self, a):
        box = Domain(S(closed(-20, 20)))
        a = a.intersect(box.carrier)
        assert measure(a) + measure(complement(a, box)) == measure(box.carrier)

    @given(interval_sets(), interval_sets())
    def test_union_measure_subadditive(self, a, b):
        assert measure(a.union(b)) <= measure(a) + measure(b)

    @given(interval_sets(bounded=False))
    def test_interior_closure_sandwich(self, s):
        assert s.interior().is_subset(s)
        assert s.is_subset(s.closure())


class TestSweepOracles:
    """intersect and difference against membership at every probe point;
    both build their parts in order, so the result must already be in
    normal form."""

    @given(WITH_RAYS, WITH_RAYS)
    def test_intersect_membership(self, a, b):
        got = a.intersect(b)
        assert IntervalSet.of(*got.parts) == got
        for x in grid_points(a, b):
            assert got.contains(x) == (a.contains(x) and b.contains(x))

    @given(WITH_RAYS, WITH_RAYS)
    def test_difference_membership(self, a, b):
        got = a.difference(b)
        assert IntervalSet.of(*got.parts) == got
        for x in grid_points(a, b):
            assert got.contains(x) == (a.contains(x) and not b.contains(x))

    def test_difference_one_part_cuts_many(self):
        a = S(closed(0, 1), closed(2, 3), point(4))
        got = a.difference(S(opened(F(1, 2), 4)))
        assert got == S(closed(0, F(1, 2)), point(4))


# -- the overlap sweep against the pairwise loop --------------------------------
#
# The reference is the i-major double loop over pairs that measures each
# intersection with Fraction operators; `first_overlap` must report the same
# pair and the same intersection.


def _ref_measure(s):
    total = F(0)
    for p in s.parts:
        if not p.is_bounded():
            return POS_INF
        total += p.hi - p.lo
    return total


def ref_first_overlap(sets):
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            overlap = sets[i].intersect(sets[j])
            if _ref_measure(overlap) != 0:
                return i, j, overlap
    return None


@st.composite
def grid_sets(draw):
    """Sets on the integer grid 0..6, so that parts of different sets often
    touch at a closed end, share a single point or coincide; some parts are
    points and some are rays."""
    parts = []
    for _ in range(draw(st.integers(0, 2))):
        lo = draw(st.integers(0, 6))
        hi = lo + draw(st.integers(0, 2))
        if lo == hi:
            parts.append(point(lo))
        else:
            parts.append(ivl(lo, hi, draw(st.booleans()), draw(st.booleans())))
    if draw(st.integers(0, 5)) == 0:
        parts.append(ivl(draw(st.integers(5, 7)), POS_INF, draw(st.booleans()), False))
    return S(*parts)


def _minus_block(k, lo_closed=True, hi_closed=False):
    """Set k of `dyadic-indicators-minus`: [2^-k, 3 2^-(k+1))."""
    return ivl(F(1, 2 ** k), F(3, 2 ** (k + 1)), lo_closed, hi_closed)


@st.composite
def budget_sets(draw):
    """Up to 24 sets of the shape the certificate budget checks: set k holds
    the block of `dyadic-indicators-minus`, so the sets come in descending
    order, one part each, with drawn flags.  Some sets also hold a point (at
    a block end or inside a block) or a ray, or hold only a point; when
    clashes are drawn, some sets start at an earlier block's lo with other
    flags, or widen their block over earlier ones."""
    kinds = ["block"] * 8 + ["point", "only-point", "ray"]
    if draw(st.booleans()):
        kinds += ["same-lo", "wide"]
    sets = []
    for k in range(1, draw(st.integers(0, 24)) + 1):
        kind = draw(st.sampled_from(kinds))
        flags = draw(st.booleans()), draw(st.booleans())
        parts = [] if kind == "only-point" else [_minus_block(k, *flags)]
        if kind in ("point", "only-point"):
            j = draw(st.integers(1, k))
            parts.append(point(draw(st.sampled_from(
                (F(1, 2 ** j), F(3, 2 ** (j + 1)), F(5, 2 ** (j + 2)))))))
        elif kind == "ray":
            end = draw(st.integers(-2, 2))
            parts.append(ivl(NEG_INF, end, False, flags[0]) if draw(st.booleans())
                         else ivl(end, POS_INF, flags[1], False))
        elif kind == "same-lo":
            j = draw(st.integers(1, k))
            parts = [ivl(F(1, 2 ** j), F(1, 2 ** j) + F(draw(st.integers(1, 3)), 2 ** (j + 2)),
                         *flags)]
        elif kind == "wide":
            parts = [ivl(F(1, 2 ** k), F(1, 2 ** (k - draw(st.integers(1, min(k, 3))))),
                         *flags)]
        sets.append(S(*parts))
    return sets


class TestFirstOverlap:
    @given(budget_sets())
    def test_against_pairwise_loop_at_budget_size(self, sets):
        assert first_overlap(sets) == ref_first_overlap(sets)

    def test_many_disjoint_sets_in_bounded_time(self):
        # 4000 blocks of dyadic-indicators-minus, none joining another in a
        # union; a sweep over a running union of the later sets took about
        # 23 s on a 2-core host
        sets = [S(_minus_block(k)) for k in range(1, 4001)]
        with within_seconds(2):
            assert first_overlap(sets) is None
            # a last set reaching over the block before it: the pair is the
            # last two, named without a loop over the pairs before them
            last = S(ico(F(1, 2 ** 4001), F(1, 2 ** 3999)))
            assert first_overlap(sets + [last]) == (3999, 4000, S(_minus_block(4000)))

    def test_ends_closer_than_a_float(self):
        # 1/3 and 1/3 + 10^-30 round to one float: the sweep orders them
        # exactly, so the later block does not reach into the earlier one
        eps = F(1, 10 ** 30)
        third = F(1, 3)
        sets = [S(ico(third + eps, 1)), S(ico(third, third + eps / 2))]
        assert first_overlap(sets) is None
        sets[1] = S(ico(third, third + 2 * eps))
        assert first_overlap(sets) == (0, 1, S(ico(third + eps, third + 2 * eps)))

    def test_ends_past_the_float_range(self):
        big = 10 ** 400
        sets = [S(ico(big + 1, 10 * big)), S(ico(-10 * big, -big)), S(ico(big, big + 1)),
                S(ivl(NEG_INF, -10 * big, False, True))]
        assert first_overlap(sets) is None
        sets.append(S(ico(-big - 1, -big + 1)))
        assert first_overlap(sets) == (1, 4, S(ico(-big - 1, -big)))

    @given(st.lists(grid_sets(), max_size=7))
    def test_against_pairwise_loop(self, sets):
        assert first_overlap(sets) == ref_first_overlap(sets)

    @given(st.lists(interval_sets(bounded=False), max_size=5))
    def test_against_pairwise_loop_on_fractions(self, sets):
        assert first_overlap(sets) == ref_first_overlap(sets)

    def test_null_overlaps_only(self):
        # closed ends that touch and single shared points meet in null sets
        sets = [S(closed(0, 1)), S(closed(1, 2), point(5)), S(point(2), closed(5, 6)),
                S(ico(6, 7)), S(point(F(13, 2)))]
        assert first_overlap(sets) is None

    def test_smallest_i_then_smallest_j(self):
        # overlaps at (1, 3) and (0, 4): the i-major order reports (0, 4)
        sets = [S(closed(0, 1)), S(closed(2, 3)), S(closed(4, 5)),
                S(opened(F(5, 2), 4)), S(opened(F(1, 2), 2))]
        assert first_overlap(sets) == (0, 4, S(ivl(F(1, 2), 1, False, True)))

    def test_fewer_than_two_sets(self):
        assert first_overlap([]) is None
        assert first_overlap([S(closed(0, 1))]) is None


# -- the cover walks against the set algebra ------------------------------------
#
# `subset_up_to_null`, `meets` and `is_subset` walk the two part lists and
# build no set; the references are the difference and intersection sets they
# replaced.


@st.composite
def walk_sets(draw):
    """Grid sets with rays on either side, the real line or the empty set;
    open parts on the grid often meet at one missing point."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return IntervalSet.real_line()
    if kind == 1:
        return IntervalSet.empty()
    s = draw(grid_sets()) if kind < 7 else draw(WITH_RAYS)
    if draw(st.integers(0, 4)) == 0:
        s = s.union(S(ivl(NEG_INF, draw(st.integers(-1, 1)), False, draw(st.booleans()))))
    return s


class TestCoverWalks:
    @given(walk_sets(), walk_sets())
    def test_against_difference_and_intersection(self, a, b):
        assert a.subset_up_to_null(b) == a.difference(b).is_null()
        assert a.meets(b) == (not a.intersect(b).is_null())
        assert a.is_subset(b) == a.difference(b).is_empty()

    @given(interval_sets(bounded=False), interval_sets(bounded=False))
    def test_against_difference_and_intersection_on_fractions(self, a, b):
        assert a.subset_up_to_null(b) == a.difference(b).is_null()
        assert a.meets(b) == b.meets(a) == (not a.intersect(b).is_null())
        assert a.is_subset(b) == a.difference(b).is_empty()

    def test_one_missing_point_is_covered_up_to_null(self):
        gap = S(opened(0, F(1, 2)), opened(F(1, 2), 1))
        assert S(opened(F(1, 4), F(3, 4))).subset_up_to_null(gap)
        assert not S(opened(F(1, 4), F(3, 4))).is_subset(gap)
        assert S(closed(0, 1)).subset_up_to_null(gap)
        assert not S(closed(0, F(11, 10))).subset_up_to_null(gap)
        # a gap of positive length between the parts is not covered
        assert not S(opened(0, 1)).subset_up_to_null(
            S(opened(0, F(1, 2)), opened(F(3, 5), 1)))

    def test_points_rays_and_the_line(self):
        line, empty = IntervalSet.real_line(), IntervalSet.empty()
        ray = S(ivl(0, POS_INF, False, False))
        assert S(point(5), point(7)).subset_up_to_null(empty)
        assert not S(point(5)).meets(line)
        assert ray.subset_up_to_null(line) and ray.meets(line)
        assert not line.subset_up_to_null(ray)
        assert empty.subset_up_to_null(empty) and not empty.meets(line)
        assert S(ivl(NEG_INF, 0, False, True)).subset_up_to_null(
            S(ivl(NEG_INF, 0, False, False)))
        assert not S(closed(-1, 0)).meets(S(closed(0, 1)))


class TestUnionAndNullity:
    @given(WITH_RAYS, WITH_RAYS)
    def test_union_against_sorting_all_parts(self, a, b):
        # union merges the two sorted part lists instead of sorting them all
        got = a.union(b)
        assert got == IntervalSet.of(*a.parts, *b.parts)
        assert IntervalSet.of(*got.parts) == got

    @given(st.lists(grid_sets(), min_size=2, max_size=2))
    def test_is_null_against_measure(self, pair):
        # is_null reads the parts: a set is null iff every part is a point
        a, b = pair
        for s in (a, b, a.intersect(b), a.difference(b)):
            assert s.is_null() == (_ref_measure(s) == 0)


class TestCompactCore:
    @given(WITH_RAYS, st.integers(1, 12).map(lambda n: F(n, 6)),
           st.integers(1, 20).map(lambda n: F(n, 2)))
    def test_compact_subset_keeping_the_inner_probes(self, s, eps, bound):
        core = s.compact_core(eps, bound)
        assert core.is_compact() and core.is_subset(s)
        open_ends = [e for p in s.parts
                     for e, shut in ((p.lo, p.lo_closed), (p.hi, p.hi_closed))
                     if is_finite(e) and not shut]
        for x in grid_points(s, core, S(closed(-bound, bound))):
            if (s.contains(x) and -bound <= x <= bound
                    and all(abs(x - e) >= eps for e in open_ends)):
                assert core.contains(x)

    def test_closed_ends_stay_open_ends_move_rays_are_cut(self):
        s = S(ivl(NEG_INF, -2, False, True), ico(0, 1), ivl(3, POS_INF, False, False))
        assert s.compact_core(F(1, 4), 5) == S(closed(-5, -2), closed(0, F(3, 4)),
                                                closed(F(13, 4), 5))
        with pytest.raises(SetAlgebraError):
            s.compact_core(0, 5)


class TestIntervalValidation:
    """Every Interval checks its ends on construction; an end is finite
    exactly when its type is Fraction or int (never bool)."""

    @pytest.mark.parametrize("lo, hi, lo_closed, hi_closed, message", [
        (0.5, F(1), True, True, "bad lower endpoint"),
        (F(0), 0.5, True, True, "bad upper endpoint"),
        ("0", F(1), True, True, "bad lower endpoint"),
        (F(0), "1", True, True, "bad upper endpoint"),
        (True, F(2), True, True, "bad lower endpoint"),
        (POS_INF, NEG_INF, False, False, "bad lower endpoint"),
        (NEG_INF, F(0), True, False, "-inf endpoint cannot be closed"),
        (F(0), POS_INF, False, True, r"\+inf endpoint cannot be closed"),
        (F(1), F(0), True, True, "empty interval"),
        (F(1), F(1), False, True, "degenerate interval must be closed"),
        (F(1), F(1), True, False, "degenerate interval must be closed"),
    ], ids=("float-lo", "float-hi", "string-lo", "string-hi", "bool-lo",
            "inverted-infinities", "closed-neg-inf", "closed-pos-inf", "lo-above-hi",
            "open-degenerate", "half-open-degenerate"))
    def test_rejects(self, lo, hi, lo_closed, hi_closed, message):
        with pytest.raises(SetAlgebraError, match=message):
            Interval(lo, hi, lo_closed, hi_closed)

    def test_accepts(self):
        Interval(NEG_INF, POS_INF, False, False)
        Interval(NEG_INF, F(0), False, True)
        Interval(F(0), POS_INF, True, False)
        Interval(0, F(1, 2), True, False)
        Interval(F(1), F(1), True, True)

    def test_is_finite_by_type(self):
        assert is_finite(F(1, 2)) and is_finite(3)
        assert not any(is_finite(e) for e in (True, POS_INF, NEG_INF, 0.5, "1"))


class TestComparisonKernel:
    """`int` ends go through the kernel's plain-operator fallback."""

    def test_int_ends_take_the_fallback(self):
        # is_finite accepts int ends; the kernel compares them with the operators
        a, b = Interval(0, 2, True, False), Interval(1, 3, True, True)
        assert IntervalSet.of(a, b) == S(Interval(0, 3, True, True))
        assert S(a).intersect(S(b)) == S(Interval(1, 2, True, False))
        assert S(b).difference(S(a)) == S(Interval(2, 3, True, True))
        assert S(Interval(0, 1, True, False), Interval(1, POS_INF, True, False)) == \
            S(Interval(0, POS_INF, True, False))
        Interval(1, 1, True, True)
        with pytest.raises(SetAlgebraError, match="empty interval"):
            Interval(2, 1, True, True)
        with pytest.raises(SetAlgebraError, match="degenerate interval"):
            Interval(1, 1, True, False)

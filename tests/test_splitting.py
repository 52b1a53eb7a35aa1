"""Tests for greedy splitting and its guarantees."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitpack import (
    CircleSet,
    InvalidParameterError,
    split,
    weighted_split,
)
from reference_geometry import (
    ConjugatedPair,
    check_conjugated,
    greedy_split,
    left_to_right_sum,
    min_guarantee,
)

area_lists = st.lists(
    st.floats(min_value=1e-6, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=60,
)
keys = st.tuples(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
)


class TestCircleSet:
    def test_sorted_descending_with_stable_indices(self):
        cs = CircleSet.from_areas([0.2, 0.5, 0.2, 0.9])
        assert cs.areas == (0.9, 0.5, 0.2, 0.2)
        assert cs.indices == (3, 1, 0, 2)  # equal areas keep input order

    def test_empty(self):
        cs = CircleSet.from_areas([])
        assert len(cs) == 0
        assert cs.areas == () and cs.indices == ()

    def test_rejects_non_positive(self):
        with pytest.raises(InvalidParameterError):
            CircleSet.from_areas([1.0, 0.0])
        with pytest.raises(InvalidParameterError):
            CircleSet.from_areas([-2.0])
        with pytest.raises(InvalidParameterError):
            CircleSet.from_areas([math.inf])


def halves(circles: CircleSet, key=None) -> tuple:
    """The two buckets of a split of ``circles`` (by :func:`split` without a
    key), each as (areas, indices, sum) with tuples."""
    if key is None:
        a1, i1, s1, a2, i2, s2 = split(circles.areas, circles.indices)
    else:
        a1, i1, s1, a2, i2, s2 = weighted_split(circles.areas, circles.indices, *key)
    return (tuple(a1), tuple(i1), s1), (tuple(a2), tuple(i2), s2)


class TestSplit:
    def test_worked_example(self):
        (a1, _, s1), (a2, _, s2) = halves(CircleSet.from_areas([0.3, 0.25, 0.2, 0.15, 0.1]))
        assert a1 == (0.25, 0.2)
        assert a2 == (0.3, 0.15, 0.1)
        assert s1 <= s2
        # the guarantee is tight here: min(C2) equals the sum difference
        assert a2[-1] == pytest.approx(s2 - s1, rel=1e-12)

    def test_single_element_goes_to_second(self):
        (a1, _, _), (a2, _, _) = halves(CircleSet.from_areas([5.0]))
        assert a1 == ()
        assert a2 == (5.0,)

    def test_two_equal_elements(self):
        (a1, i1, _), (a2, i2, _) = halves(CircleSet.from_areas([3.0, 3.0]))
        assert a1 == (3.0,)
        assert a2 == (3.0,)
        assert i1 == (0,)
        assert i2 == (1,)

    def test_empty(self):
        (a1, _, s1), (a2, _, s2) = halves(CircleSet.from_areas([]))
        assert len(a1) == len(a2) == 0
        assert s1 == s2 == 0.0

    @given(area_lists)
    @settings(max_examples=200, deadline=None)
    def test_partition_and_order(self, areas):
        cs = CircleSet.from_areas(areas)
        (a1, i1, s1), (a2, i2, s2) = halves(cs)
        assert sorted(a1 + a2, reverse=True) == list(cs.areas)
        assert sorted(i1 + i2) == sorted(cs.indices)
        assert s1 <= s2
        if len(cs) >= 2:
            assert len(a1) >= 1 and len(a2) >= 1
        if len(a2):
            bound = s2 - s1
            assert a2[-1] >= bound - 1e-12 * max(left_to_right_sum(cs.areas), 1.0)


class TestWeightedSplit:
    def test_worked_example(self):
        (a1, _, s1), (a2, _, s2) = halves(CircleSet.from_areas([4.0, 2.0, 2.0]), (1.0, 3.0))
        assert a1 == (4.0,)
        assert a2 == (2.0, 2.0)
        assert min_guarantee(s1, s2, 1.0, 3.0) == pytest.approx(4.0 - 4.0 / 3.0, rel=1e-12)

    def test_single_circle_lands_in_first_bucket(self):
        for key in ((1.0, 1.0), (1.0, 3.0), (5.0, 0.1)):
            (a1, _, _), (a2, _, _) = halves(CircleSet.from_areas([2.5]), key)
            assert a1 == (2.5,)
            assert a2 == ()

    def test_takes_and_returns_plain_lists(self):
        areas1, indices1, sum1, areas2, indices2, sum2 = weighted_split(
            [4.0, 2.0, 2.0], [2, 0, 1], 1.0, 3.0)
        assert (areas1, indices1, sum1) == ([4.0], [2], 4.0)
        assert (areas2, indices2, sum2) == ([2.0, 2.0], [0, 1], 4.0)
        assert all(type(group) is list for group in (areas1, indices1, areas2, indices2))

    def test_unit_key_matches_split_up_to_swap(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            areas = list(rng.random(int(rng.integers(1, 40))) + 0.01)
            cs = CircleSet.from_areas(areas)
            w1, w2 = halves(cs, (1.0, 1.0))
            s1, s2 = halves(cs)
            if w1[2] <= w2[2]:
                assert (w1, w2) == (s1, s2)
            else:
                assert (w2, w1) == (s1, s2)

    def test_key_scaling_invariant(self):
        cs = CircleSet.from_areas([5.0, 3.0, 2.0, 2.0, 1.0])
        a = halves(cs, (1.0, 2.0))
        b = halves(cs, (0.5, 1.0))
        assert a[0][0] == b[0][0] and a[1][0] == b[1][0]

    def test_rejects_bad_key(self):
        with pytest.raises(InvalidParameterError):
            weighted_split([1.0], [0], 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            weighted_split([1.0], [0], 1.0, -2.0)

    @given(area_lists, keys)
    @settings(max_examples=300, deadline=None)
    def test_partition_guarantee_and_determinism(self, areas, key):
        cs = CircleSet.from_areas(areas)
        c1, c2 = halves(cs, key)
        assert (c1, c2) == halves(cs, key)
        assert sorted(c1[0] + c2[0], reverse=True) == list(cs.areas)
        if len(cs) >= 2:
            assert len(c1[0]) >= 1 and len(c2[0]) >= 1
        slack = 1e-12 * max(left_to_right_sum(cs.areas), 1.0)
        f1, f2 = key
        for (mine, _, mine_sum), (_, _, other_sum), f_mine, f_other in (
            (c1, c2, f1, f2),
            (c2, c1, f2, f1),
        ):
            if len(mine):
                bound = mine_sum - f_mine * other_sum / f_other
                assert mine[-1] >= bound - slack

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_plain_greedy_loop_bit_for_bit(self, data):
        # uniform, geometric (ratio q in (0, 1)) and equal-area groups, with
        # random keys: the same buckets, indices and sums as the reference
        family = data.draw(st.sampled_from(["uniform", "geometric", "equal"]))
        n = data.draw(st.integers(min_value=0, max_value=80))
        if family == "uniform":
            areas = data.draw(st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=n,
                                       max_size=n))
        elif family == "geometric":
            q = data.draw(st.floats(min_value=1e-3, max_value=1.0, exclude_max=True))
            first = data.draw(st.floats(min_value=1e-3, max_value=1e3))
            areas = [first * q**k for k in range(n)]
            areas = [a for a in areas if a > 0.0]
        else:
            areas = [data.draw(st.floats(min_value=1e-6, max_value=1e3))] * n
        f1, f2 = data.draw(keys)
        cs = CircleSet.from_areas(areas)
        got = weighted_split(list(cs.areas), list(cs.indices), f1, f2)
        want = greedy_split(cs.areas, cs.indices, f1, f2)
        assert [_bits(part) for part in got] == [_bits(part) for part in want]


def _bits(part):
    """A split output (a list, or a sum) with each double as its bit pattern."""
    if isinstance(part, float):
        return struct.pack("<d", part)
    return [struct.pack("<d", v) if isinstance(v, float) else v for v in part]


class TestMinGuarantee:
    def test_direct_formula(self):
        assert min_guarantee(0.55, 0.45, 1.0, 1.0, 0.0) == pytest.approx(0.10, rel=1e-12)
        assert min_guarantee(4.0, 4.0, 1.0, 3.0, 0.0) == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_clamped_to_inherited_minimum(self):
        assert min_guarantee(0.3, 0.7, 1.0, 1.0, 0.05) == 0.05

    def test_clamped_to_zero(self):
        assert min_guarantee(0.3, 0.7, 1.0, 1.0, 0.0) == 0.0

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            min_guarantee(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            min_guarantee(-1.0, 1.0, 1.0, 1.0)


class TestConjugated:
    def test_balanced_pair(self):
        a = 2.0
        pair = ConjugatedPair((a / 2.0, 0.0), (a / 2.0, 0.0))
        assert check_conjugated(pair, a, 0.0, (1.0, 1.0))

    def test_unbalanced_pair_without_rounding_fails(self):
        a = 2.0
        pair = ConjugatedPair((0.7 * a, 0.0), (0.3 * a, 0.0))
        # first bucket overshoots by 0.4*a but declares no rounding
        assert not check_conjugated(pair, a, 0.0, (1.0, 1.0))

    def test_area_sum_must_match(self):
        pair = ConjugatedPair((1.0, 1.0), (0.5, 0.5))
        assert not check_conjugated(pair, 2.0, 0.0, (1.0, 1.0))

    def test_split_outputs_always_conjugated(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            areas = list(rng.random(n) + 1e-3)
            f1, f2 = key = (float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.1, 10.0)))
            b = 0.0
            cs = CircleSet.from_areas(areas)
            (_, _, s1), (_, _, s2) = halves(cs, key)
            b1 = min_guarantee(s1, s2, f1, f2, b)
            b2 = min_guarantee(s2, s1, f2, f1, b)
            pair = ConjugatedPair((s1, b1), (s2, b2))
            assert check_conjugated(pair, left_to_right_sum(cs.areas), b, key)

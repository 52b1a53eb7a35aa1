"""Tests for greedy splitting and its guarantees."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitpack import (
    CircleSet,
    InvalidParameterError,
    min_guarantee,
    split,
    weighted_split,
)
from reference_geometry import ConjugatedPair, check_conjugated

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
        assert cs.combined == pytest.approx(1.8, rel=1e-12)
        assert cs.minimum == 0.2

    def test_combined_is_the_left_to_right_sum(self):
        # a compensated sum (builtin sum() from Python 3.12) gives 1 + 2**-52
        cs = CircleSet.from_areas([1.0, 2.0**-53, 2.0**-53])
        assert cs.combined == 1.0

    def test_empty(self):
        cs = CircleSet.from_areas([])
        assert len(cs) == 0
        assert cs.combined == 0.0
        assert cs.minimum == math.inf

    def test_rejects_non_positive(self):
        with pytest.raises(InvalidParameterError):
            CircleSet.from_areas([1.0, 0.0])
        with pytest.raises(InvalidParameterError):
            CircleSet.from_areas([-2.0])
        with pytest.raises(InvalidParameterError):
            CircleSet.from_areas([math.inf])


class TestSplit:
    def test_worked_example(self):
        c1, c2 = split(CircleSet.from_areas([0.3, 0.25, 0.2, 0.15, 0.1]))
        assert c1.areas == (0.25, 0.2)
        assert c2.areas == (0.3, 0.15, 0.1)
        assert c1.combined <= c2.combined
        # the guarantee is tight here: min(C2) equals the sum difference
        assert c2.minimum == pytest.approx(c2.combined - c1.combined, rel=1e-12)

    def test_single_element_goes_to_second(self):
        c1, c2 = split(CircleSet.from_areas([5.0]))
        assert c1.areas == ()
        assert c2.areas == (5.0,)

    def test_two_equal_elements(self):
        c1, c2 = split(CircleSet.from_areas([3.0, 3.0]))
        assert c1.areas == (3.0,)
        assert c2.areas == (3.0,)
        assert c1.indices == (0,)
        assert c2.indices == (1,)

    def test_empty(self):
        c1, c2 = split(CircleSet.from_areas([]))
        assert len(c1) == len(c2) == 0

    @given(area_lists)
    @settings(max_examples=200, deadline=None)
    def test_partition_and_order(self, areas):
        cs = CircleSet.from_areas(areas)
        c1, c2 = split(cs)
        assert sorted(c1.areas + c2.areas, reverse=True) == list(cs.areas)
        assert sorted(c1.indices + c2.indices) == sorted(cs.indices)
        assert c1.combined <= c2.combined
        if len(cs) >= 2:
            assert len(c1) >= 1 and len(c2) >= 1
        if len(c2):
            bound = c2.combined - c1.combined
            assert c2.minimum >= bound - 1e-12 * max(cs.combined, 1.0)


class TestWeightedSplit:
    def test_worked_example(self):
        c1, c2 = weighted_split(CircleSet.from_areas([4.0, 2.0, 2.0]), (1.0, 3.0))
        assert c1.areas == (4.0,)
        assert c2.areas == (2.0, 2.0)
        assert min_guarantee(c1.combined, c2.combined, 1.0, 3.0) == pytest.approx(
            4.0 - 4.0 / 3.0, rel=1e-12
        )

    def test_single_circle_lands_in_first_bucket(self):
        for key in ((1.0, 1.0), (1.0, 3.0), (5.0, 0.1)):
            c1, c2 = weighted_split(CircleSet.from_areas([2.5]), key)
            assert c1.areas == (2.5,)
            assert c2.areas == ()

    def test_unit_key_matches_split_up_to_swap(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            areas = list(rng.random(int(rng.integers(1, 40))) + 0.01)
            cs = CircleSet.from_areas(areas)
            w1, w2 = weighted_split(cs, (1.0, 1.0))
            s1, s2 = split(cs)
            if w1.combined <= w2.combined:
                assert (w1.areas, w2.areas) == (s1.areas, s2.areas)
            else:
                assert (w2.areas, w1.areas) == (s1.areas, s2.areas)

    def test_key_scaling_invariant(self):
        cs = CircleSet.from_areas([5.0, 3.0, 2.0, 2.0, 1.0])
        a = weighted_split(cs, (1.0, 2.0))
        b = weighted_split(cs, (0.5, 1.0))
        assert a[0].areas == b[0].areas and a[1].areas == b[1].areas

    def test_rejects_bad_key(self):
        cs = CircleSet.from_areas([1.0])
        with pytest.raises(InvalidParameterError):
            weighted_split(cs, (0.0, 1.0))
        with pytest.raises(InvalidParameterError):
            weighted_split(cs, (1.0, -2.0))

    @given(area_lists, keys)
    @settings(max_examples=300, deadline=None)
    def test_partition_guarantee_and_determinism(self, areas, key):
        cs = CircleSet.from_areas(areas)
        c1, c2 = weighted_split(cs, key)
        again = weighted_split(cs, key)
        assert (c1.areas, c2.areas) == (again[0].areas, again[1].areas)
        assert sorted(c1.areas + c2.areas, reverse=True) == list(cs.areas)
        if len(cs) >= 2:
            assert len(c1) >= 1 and len(c2) >= 1
        slack = 1e-12 * max(cs.combined, 1.0)
        f1, f2 = key
        for mine, other, f_mine, f_other in (
            (c1, c2, f1, f2),
            (c2, c1, f2, f1),
        ):
            if len(mine):
                bound = mine.combined - f_mine * other.combined / f_other
                assert mine.minimum >= bound - slack


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
            c1, c2 = weighted_split(cs, key)
            b1 = min_guarantee(c1.combined, c2.combined, f1, f2, b)
            b2 = min_guarantee(c2.combined, c1.combined, f2, f1, b)
            pair = ConjugatedPair((c1.combined, b1), (c2.combined, b2))
            assert check_conjugated(pair, cs.combined, b, key)

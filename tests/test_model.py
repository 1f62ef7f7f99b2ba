"""Hypergraph predicates, cover search, and the satisfaction indicator."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdcensus import (
    Condition,
    ConditionSet,
    condition_set,
    delta,
    enumerate_independent_subsets,
    find_cover,
    is_cover,
    is_independent,
    isolated_indices,
    neighbors,
)

from gcdcensus.model import canonical_witness

from helpers import condition_sets, subsets_of


class TestConstruction:
    def test_canonical_order_and_equality(self):
        a = condition_set(3, [((2, 3), 10), ((1, 2), 6)])
        b = condition_set(3, [((1, 2), 6), ((2, 3), 10)])
        assert a == b
        assert hash(a) == hash(b)
        assert [sorted(c.indices) for c in a.conditions] == [[1, 2], [2, 3]]

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            ConditionSet(1)
        with pytest.raises(ValueError):
            ConditionSet(65)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            condition_set(3, {(1, 4): 1})

    def test_index_below_one_rejected(self):
        with pytest.raises(ValueError, match="indices must be >= 1"):
            Condition(frozenset({0, 1}), 1)

    def test_non_condition_rejected(self):
        with pytest.raises(TypeError, match="expected Condition, got tuple"):
            ConditionSet(2, (((1, 2), 1),))

    def test_singleton_condition_rejected(self):
        with pytest.raises(ValueError):
            Condition(frozenset({2}), 1)

    def test_duplicate_index_sets_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ConditionSet(3, (Condition(frozenset({1, 2}), 1), Condition(frozenset({2, 1}), 2)))

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ValueError):
            Condition(frozenset({1, 2}), 0)

    def test_empty_system_allowed(self):
        cs = ConditionSet(2)
        assert cs.conditions == ()


class TestIsCover:
    def test_examples(self):
        cs = condition_set(3, {(1, 2, 3): 1})
        assert is_cover(cs, {1, 2})
        assert not is_cover(cs, {1})
        assert not is_cover(condition_set(2, {(1, 2): 1}), set())

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            is_cover(condition_set(2, {(1, 2): 1}), {3})

    def test_full_index_set_always_covers(self):
        cs = condition_set(4, {(1, 2): 1, (2, 3, 4): 5})
        assert is_cover(cs, {1, 2, 3, 4})

    @given(condition_sets(), st.data())
    def test_monotone_under_superset(self, cs, data):
        w = data.draw(subsets_of(cs.k))
        extra = data.draw(subsets_of(cs.k))
        if is_cover(cs, w):
            assert is_cover(cs, w | extra)


class TestNeighbors:
    def test_examples(self):
        assert neighbors(condition_set(3, {(1, 2): 1, (2, 3): 1}), {2}) == {1, 3}
        assert neighbors(condition_set(3, {(1, 2, 3): 1}), {1}) == frozenset()
        assert neighbors(condition_set(3, {(1, 2, 3): 1}), {1, 2}) == {3}

    @given(condition_sets())
    def test_empty_subset_has_no_neighbors(self, cs):
        assert neighbors(cs, frozenset()) == frozenset()

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            neighbors(condition_set(2, {(1, 2): 1}), {0})


class TestIndependence:
    def test_examples(self):
        cs = condition_set(2, {(1, 2): 1})
        assert is_independent(cs, {1})
        assert not is_independent(cs, {1, 2})
        assert is_independent(cs, set())

    @given(condition_sets())
    def test_empty_set_always_independent(self, cs):
        assert is_independent(cs, frozenset())


class TestIsolated:
    def test_examples(self):
        assert isolated_indices(condition_set(3, {(1, 2): 1})) == {3}
        assert isolated_indices(condition_set(3, {(1, 2): 1, (2, 3): 1})) == frozenset()
        assert isolated_indices(ConditionSet(2)) == {1, 2}


class TestEnumerateIndependent:
    def test_examples(self):
        cs = condition_set(2, {(1, 2): 1})
        assert set(enumerate_independent_subsets(cs, {1, 2})) == {
            frozenset(),
            frozenset({1}),
            frozenset({2}),
        }
        assert len(list(enumerate_independent_subsets(ConditionSet(2), {1, 2}))) == 4
        cs2 = condition_set(3, {(1, 2): 1, (2, 3): 1})
        assert set(enumerate_independent_subsets(cs2, {1, 2, 3})) == {
            frozenset(),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
            frozenset({1, 3}),
        }

    def test_deterministic_order(self):
        cs = condition_set(3, {(1, 2): 1})
        first = list(enumerate_independent_subsets(cs, {1, 2, 3}))
        second = list(enumerate_independent_subsets(cs, {1, 2, 3}))
        assert first == second

    def test_twelve_index_window(self):
        cs = condition_set(12, {(i, i + 1): 1 for i in range(1, 12)})
        w = frozenset(range(1, 13))
        got = set(enumerate_independent_subsets(cs, w))
        expected = sum(
            1
            for r in range(13)
            for sub in itertools.combinations(range(1, 13), r)
            if is_independent(cs, sub)
        )
        assert len(got) == expected

    @given(condition_sets(max_k=4), st.data())
    @settings(max_examples=60)
    def test_matches_brute_force_filter(self, cs, data):
        w = data.draw(subsets_of(cs.k))
        got = list(enumerate_independent_subsets(cs, w))
        assert len(got) == len(set(got)), "duplicates in the stream"
        expected = {
            frozenset(sub)
            for r in range(len(w) + 1)
            for sub in itertools.combinations(sorted(w), r)
            if is_independent(cs, sub)
        }
        assert set(got) == expected


class TestFindCover:
    def test_examples(self):
        assert find_cover(condition_set(3, {(1, 2): 1, (2, 3): 1})) == {2}
        w = find_cover(condition_set(3, {(1, 2, 3): 1}))
        assert len(w) == 2 and is_cover(condition_set(3, {(1, 2, 3): 1}), w)
        assert find_cover(ConditionSet(2)) == frozenset()

    def test_deterministic(self):
        cs = condition_set(4, {(1, 2): 1, (2, 3): 1, (3, 4): 1, (1, 4): 1})
        assert find_cover(cs) == find_cover(cs)

    @given(condition_sets(max_k=4))
    @settings(max_examples=60)
    def test_valid_minimal_and_avoids_isolated(self, cs):
        w = find_cover(cs)
        assert is_cover(cs, w)
        assert not (w & isolated_indices(cs))
        smaller_exists = any(
            is_cover(cs, set(sub))
            for r in range(len(w))
            for sub in itertools.combinations(range(1, cs.k + 1), r)
        )
        assert not smaller_exists, f"{sorted(w)} is not minimal"

    def test_greedy_path_for_large_k(self):
        cs = condition_set(30, {(i, i + 1): 1 for i in range(1, 30)})
        w = find_cover(cs)
        assert is_cover(cs, w)
        assert not (w & isolated_indices(cs))


class TestCanonicalWitness:
    def test_lcm_of_the_targets_on_each_index(self):
        cs = condition_set(4, {(1, 2): 6, (2, 3): 10, (1, 3): 4})
        assert canonical_witness(cs) == (12, 30, 20, 1)
        assert canonical_witness(ConditionSet(3)) == (1, 1, 1)


class TestDelta:
    def test_examples(self):
        cs = condition_set(2, {(1, 2): 2})
        assert delta(cs, (4, 6)) == 1
        assert delta(cs, (4, 8)) == 0
        assert delta(condition_set(3, {(1, 2): 6, (2, 3): 10}), (6, 30, 10)) == 1

    def test_domain_errors(self):
        cs = condition_set(2, {(1, 2): 1})
        with pytest.raises(ValueError):
            delta(cs, (1, 2, 3))
        with pytest.raises(ValueError):
            delta(cs, (0, 1))

    def test_empty_system_accepts_everything(self):
        assert delta(ConditionSet(2), (7, 9)) == 1

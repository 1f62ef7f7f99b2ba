"""Hypergraph predicates, cover search, and the satisfaction indicator."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdcensus import (
    Condition,
    ConditionSet,
    DensityResult,
    condition_set,
    delta,
    enumerate_independent_subsets,
    find_cover,
    is_cover,
    is_independent,
    isolated_indices,
    local_view,
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


class TestRecords:
    """The value types are frozen records: field-wise equality and hash,
    a `Name(field=value, ...)` repr, and no assignment or deletion."""

    README = {(1, 2): 6, (2, 3): 10}

    def test_repr_is_pinned(self):
        assert repr(condition_set(3, self.README)) == (
            "ConditionSet(k=3, conditions=(Condition(indices=frozenset({1, 2}), value=6), "
            "Condition(indices=frozenset({2, 3}), value=10)))"
        )
        result = DensityResult(0.5, 0.25, 1.0, 97, ((2, Fraction(5, 64)),), 3)
        assert repr(result) == (
            "DensityResult(value=0.5, lower=0.25, upper=1.0, prime_cutoff=97, "
            "factor_trace=((2, Fraction(5, 64)),), tail_constant=3)"
        )
        assert result == DensityResult(
            value=0.5, lower=0.25, upper=1.0, prime_cutoff=97, factor_trace=((2, Fraction(5, 64)),), tail_constant=3
        )

    def test_equal_systems_compare_and_hash_equal_in_any_order(self):
        items = [((1, 2), 6), ((2, 3), 10), ((1, 3, 4), 1)]
        systems = [condition_set(4, list(order)) for order in itertools.permutations(items)]
        assert all(cs == systems[0] and hash(cs) == hash(systems[0]) for cs in systems)
        assert len({*systems, condition_set(4, items[:2])}) == 2
        assert ConditionSet(4, systems[0].conditions) == ConditionSet(k=4, conditions=systems[0].conditions[::-1])
        assert condition_set(4, items) != condition_set(4, items[:2])

    def test_equality_across_classes_is_not_implemented(self):
        cs = condition_set(2, {(1, 2): 1})
        assert cs.__eq__(cs.conditions[0]) is NotImplemented
        assert cs != (2, cs.conditions) and cs != cs.conditions[0]

    def test_assignment_and_deletion_raise(self):
        cs = condition_set(3, self.README)
        for obj, name in ((cs, "k"), (cs, "index_mask"), (cs, "other"), (cs.conditions[0], "value")):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(obj, name, 1)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(obj, name)
        assert cs.k == 3 and cs.conditions[0].value == 6

    def test_cached_properties_survive_freezing(self):
        cs = condition_set(3, self.README)
        assert (cs.index_mask, cs.edge_masks, cs.member_mask) == (0b111, (0b011, 0b110), 0b111)
        assert cs == condition_set(3, self.README)  # cached values are not fields

    def test_validation_messages_are_unchanged(self):
        cases = [
            (lambda: Condition(frozenset({2}), 1), ValueError, "a condition needs at least two indices, got [2]"),
            (lambda: Condition(frozenset({0, 1}), 1), ValueError, "indices must be >= 1, got [0, 1]"),
            (lambda: Condition(frozenset({1, 2}), 0), ValueError, "gcd target must be a positive integer, got 0"),
            (lambda: ConditionSet(1), ValueError, "k must be between 2 and 64, got 1"),
            (lambda: condition_set(3, {(1, 4): 1}), ValueError, "index 4 outside 1..3 in [1, 4]"),
            (lambda: condition_set(3, [((1, 2), 1), ((2, 1), 2)]), ValueError, "duplicate condition on indices [1, 2]"),
            (lambda: ConditionSet(2, (((1, 2), 1),)), TypeError, "expected Condition, got tuple"),
        ]
        for build, error, message in cases:
            with pytest.raises(error) as info:
                build()
            assert str(info.value) == message

    def test_wrong_arguments_raise_type_error(self):
        cases = [
            (lambda: Condition(frozenset({1, 2}), 1, 2), "Condition takes the fields indices, value"),
            (lambda: Condition(frozenset({1, 2}), gcd=1), "Condition takes the fields indices, value"),
            (lambda: Condition(frozenset({1, 2}), 1, indices=frozenset({1, 3})), "Condition takes the fields indices, value"),
            (lambda: Condition(frozenset({1, 2})), "Condition is missing the field 'value'"),
            (lambda: DensityResult(0.5, upper=1.0), "DensityResult is missing the field 'lower'"),
        ]
        for build, message in cases:
            with pytest.raises(TypeError) as info:
                build()
            assert str(info.value) == message

    def test_local_view_hashes_by_value(self):
        cs = condition_set(3, self.README)
        view = local_view(cs, 2, find_cover(cs))
        again = local_view(cs, 2, find_cover(cs))
        assert view == again and view is not again
        assert hash(view) == hash(again)
        assert {view: "p = 2"}[again] == "p = 2"
        assert len({view, again, local_view(cs, 3, find_cover(cs))}) == 2


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

    @given(condition_sets(max_k=7))
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

    @pytest.mark.parametrize(
        "k, pairs, size",
        [
            # six Petersen graphs, vertex i as index 7i mod 60 + 1: each packs 4
            # of its 10 vertices, where a greedy cover takes 41 indices
            (60, [(7 * (10 * c + u) % 60 + 1, 7 * (10 * c + v) % 60 + 1)
                  for c in range(6)
                  for i in range(5)
                  for u, v in ((i, (i + 1) % 5), (i, 5 + i), (5 + i, 5 + (i + 2) % 5))], 36),
            (30, [(i, i + 1) for i in range(1, 30)], 15),  # path: every other index
            (50, [(2 * i + 1, 2 * i + 2) for i in range(25)], 25),  # disjoint pairs: one of each
            (48, [(i, j) for i in range(1, 25) for j in range(25, 49)], 24),  # K_{24,24}: one side
            (64, list(itertools.combinations(range(1, 65), 2)), 63),  # complete pairwise: all but one
        ],
        ids=["six-petersen", "path-30", "pairs-25", "bipartite-24-24", "pairwise-64"],
    )
    def test_known_smallest_above_k_24(self, k, pairs, size):
        cs = condition_set(k, {pair: 1 for pair in pairs})
        w = find_cover(cs)
        assert is_cover(cs, w) and not (w & isolated_indices(cs))
        assert len(w) == size


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

"""Exact counters against independent enumeration and Mobius oracles."""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdcensus import (
    ConditionSet,
    ResourceLimitError,
    condition_set,
    convergence_table,
    count,
    empirical_report,
    nymann_count,
)

from helpers import condition_sets, naive_count, trial_mobius


def mobius_count_oracle(k: int, x: int) -> int:
    return sum(trial_mobius(d) * (x // d) ** k for d in range(1, x + 1))


class TestCount:
    def test_pairwise_ten(self):
        cs = condition_set(2, {(1, 2): 1})
        expected = naive_count(cs, 10)
        assert expected == 63
        assert count(cs, 10) == expected

    def test_full_gcd_three(self):
        cs = condition_set(3, {(1, 2, 3): 1})
        assert naive_count(cs, 4) == 55
        assert mobius_count_oracle(3, 4) == 55
        assert count(cs, 4) == 55

    def test_even_pair(self):
        cs = condition_set(2, {(1, 2): 2})
        assert naive_count(cs, 4) == 3
        assert count(cs, 4) == 3

    def test_empty_system_is_full_box(self):
        assert count(ConditionSet(2), 7) == 49
        assert count(ConditionSet(3), 5) == 125

    def test_oversized_target_counts_zero(self):
        assert count(condition_set(2, {(1, 2): 11}), 10) == 0

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            count(condition_set(2, {(1, 2): 1}), 10**6)

    def test_bound_below_one_rejected(self):
        with pytest.raises(ValueError, match="x must be >= 1"):
            count(condition_set(2, {(1, 2): 1}), 0)

    def test_isolated_coordinates_multiply(self):
        cs = condition_set(4, {(1, 3): 2})
        assert count(cs, 6) == naive_count(condition_set(2, {(1, 2): 2}), 6) * 36

    @given(condition_sets(max_k=3, max_value=4), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_enumeration(self, cs, x):
        assert count(cs, x) == naive_count(cs, x)

    @given(condition_sets(max_k=2, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_x(self, cs):
        values = [count(cs, x) for x in range(1, 8)]
        assert values == sorted(values)

    def test_scaling_by_target(self):
        base = condition_set(3, {(1, 2, 3): 1})
        for m in (2, 3):
            scaled = condition_set(3, {(1, 2, 3): m})
            for x in (5, 10, 17):
                assert count(scaled, x) == count(base, x // m)

    def test_full_gcd_equals_nymann_everywhere(self):
        cs = condition_set(2, {(1, 2): 1})
        for x in (1, 2, 9, 24, 100):
            assert count(cs, x) == nymann_count(2, x)

    # the slots of the count-sparse benchmark workload, whose jobs have no oracle
    @pytest.mark.parametrize(
        "name, k, edges",
        [
            ("path3-a", 3, [(1, 2), (2, 3)]),
            ("path3-b", 3, [(1, 2), (2, 3)]),
            ("path3-c", 3, [(1, 2), (2, 3)]),
            ("vee3", 3, [(1, 2), (1, 3)]),
            ("tri3", 3, [(1, 2), (2, 3), (1, 2, 3)]),
            ("path4", 4, [(1, 2), (2, 3), (3, 4)]),
            ("star4", 4, [(1, 2), (1, 3), (1, 4)]),
            ("split4", 4, [(1, 2), (3, 4)]),
            ("tail4", 4, [(1, 2, 3), (3, 4)]),
        ],
    )
    def test_composite_targets_match_naive_enumeration(self, name, k, edges):
        rng = random.Random(name)
        for x in (40, 30) if k == 3 else (16, 12):
            # gcds of a tuple of composites inside the box, so the count is
            # positive; redrawn until every target is composite
            while True:
                base = [rng.choice((6, 10, 12, 14, 15, 18, 20, 21)) * rng.choice((1, 2, 3, 5)) for _ in range(k)]
                targets = {e: gcd(*(base[i - 1] for i in e)) for e in edges}
                if max(base) <= x and all(any(t % d == 0 for d in range(2, t)) for t in targets.values()):
                    break
            cs = condition_set(k, targets)
            assert count(cs, x) == naive_count(cs, x) > 0


class TestNymann:
    def test_values(self):
        assert nymann_count(3, 4) == 55
        assert nymann_count(2, 1) == 1
        assert nymann_count(2, 10) == 63

    def test_matches_trial_mobius_oracle(self):
        for k in (2, 3):
            for x in (1, 7, 30, 101):
                assert nymann_count(k, x) == mobius_count_oracle(k, x)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            nymann_count(1, 10)
        with pytest.raises(ValueError):
            nymann_count(2, 0)


class TestEmpiricalReport:
    def test_pairwise_thousand(self):
        cs = condition_set(2, {(1, 2): 1})
        report = empirical_report(cs, 1000, 0.6079271018540267)
        assert report.count == 608383
        assert abs(report.density - report.constant) <= 0.01
        assert report.normalized_error > 0

    def test_empty_system(self):
        report = empirical_report(ConditionSet(2), 7, 1.0)
        assert report.count == 49
        assert report.density == 1.0
        assert report.normalized_error == 0.0

    def test_x_equal_one(self):
        report = empirical_report(ConditionSet(2), 1, 1.0)
        assert report.density == 1.0
        assert report.normalized_error == 0.0


class TestConvergenceTable:
    def test_requires_ascending(self):
        with pytest.raises(ValueError):
            convergence_table(ConditionSet(2), [10, 10], 1.0)

    def test_empty_system_all_zero(self):
        table = convergence_table(ConditionSet(2), [3, 9], 1.0)
        assert all(r.normalized_error == 0 for r in table)
        assert all(r.sharper_normalized_error == 0 for r in table)

    def test_full_gcd_counts_match_nymann(self):
        cs = condition_set(2, {(1, 2): 1})
        table = convergence_table(cs, [10, 100], 0.6079271018540267)
        assert [r.count for r in table] == [nymann_count(2, 10), nymann_count(2, 100)]

    def test_sharper_exponent_values(self):
        pairwise = condition_set(2, {(1, 2): 1})
        single = condition_set(3, {(1, 2, 3): 1})
        assert convergence_table(pairwise, [10], 0.6)[0].sharper_log_exponent == 1
        assert convergence_table(single, [10], 0.8)[0].sharper_log_exponent == 0

    def test_normalized_error_bounded_small_cases(self):
        cs = condition_set(2, {(1, 2): 1})
        table = convergence_table(cs, [100, 1000], 0.6079271018540267)
        assert all(r.normalized_error <= 5 for r in table)

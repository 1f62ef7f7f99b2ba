"""Decision procedure vs. exhaustive search, and witness construction."""

import pytest
from hypothesis import given, settings

from gcdcensus import (
    InadmissibleError,
    ResourceLimitError,
    brute_force_find,
    condition_set,
    delta,
    is_admissible,
    witness,
)
from gcdcensus.padic import padic_order

from helpers import (
    admissible_condition_sets,
    composite_targets,
    condition_sets,
    naive_admissibility,
    naive_first,
    naive_valuations,
    naive_witness,
    trial_primes,
)


class TestIsAdmissible:
    def test_violating_system_with_diagnostic(self):
        report = is_admissible(condition_set(3, {(1, 2): 2, (1, 3): 2, (2, 3): 1}))
        assert not report
        assert report.violation == (2, frozenset({2, 3}))

    def test_satisfiable_system(self):
        assert is_admissible(condition_set(3, {(1, 2): 2, (1, 3): 1, (2, 3): 1}))

    def test_empty_system(self):
        assert is_admissible(condition_set(2, {}))

    @given(condition_sets(max_k=4))
    @settings(max_examples=60)
    def test_all_ones_always_admissible(self, cs):
        ones = condition_set(cs.k, {tuple(sorted(c.indices)): 1 for c in cs.conditions})
        assert is_admissible(ones)


    def test_smallest_prime_wins_over_condition_order(self):
        # q_{1,2} = 3 comes first in condition order, but p = 2 divides q_{1,3}
        cs = condition_set(4, {(1, 2): 1, (1, 3): 3, (2, 3): 3, (1, 4): 2, (3, 4): 2})
        assert is_admissible(cs).violation == (2, frozenset({1, 3}))


class TestAgainstPerPrimeCriterion:
    @given(
        condition_sets(max_k=5, allow_empty=False, values=composite_targets)
        | admissible_condition_sets(max_k=5, max_base=420)
    )
    @settings(max_examples=300, deadline=None)
    def test_report_and_witness(self, cs):
        report = is_admissible(cs)
        assert report == naive_admissibility(cs)
        if report:
            assert witness(cs) == naive_witness(cs)


class TestWitness:
    def test_examples(self):
        assert witness(condition_set(3, {(1, 2): 6, (2, 3): 10})) == (6, 30, 10)
        assert witness(condition_set(4, {(1, 2): 1, (3, 4): 1})) == (1, 1, 1, 1)
        assert witness(condition_set(3, {(1, 2): 2, (1, 3): 1, (2, 3): 1})) == (2, 2, 1)

    def test_inadmissible_raises_with_diagnostic(self):
        with pytest.raises(InadmissibleError) as exc:
            witness(condition_set(3, {(1, 2): 2, (1, 3): 2, (2, 3): 1}))
        assert exc.value.p == 2
        assert exc.value.indices == frozenset({2, 3})

    def test_witness_satisfies(self):
        cs = condition_set(4, {(1, 2): 12, (2, 3): 18, (3, 4): 5})
        assert delta(cs, witness(cs)) == 1


class TestBruteForceFind:
    def test_first_hit(self):
        assert brute_force_find(condition_set(3, {(1, 2): 2, (1, 3): 1, (2, 3): 1}), 4) == (2, 2, 1)

    def test_inadmissible_finds_nothing(self):
        assert brute_force_find(condition_set(3, {(1, 2): 2, (1, 3): 2, (2, 3): 1}), 30) is None

    def test_empty_system(self):
        assert brute_force_find(condition_set(2, {}), 1) == (1, 1)

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            brute_force_find(condition_set(2, {(1, 2): 1}), 10**5)

    def test_bound_below_one_rejected(self):
        with pytest.raises(ValueError, match="bound must be >= 1"):
            brute_force_find(condition_set(2, {(1, 2): 1}), 0)

    def test_target_above_bound_finds_nothing(self):
        cs = condition_set(2, {(1, 2): 7})
        assert brute_force_find(cs, 6) is None
        assert brute_force_find(cs, 7) == (7, 7)

    def test_lexicographic_order_matches_naive_scan(self):
        for k, conds in [
            (3, {(1, 2): 2, (2, 3): 4}),
            (3, {(1, 2): 3}),
            (3, {(1, 3): 2, (2, 3): 2}),
            (4, {(1, 3): 2, (3, 4): 3}),  # isolated index in the middle
            (4, {(1, 2): 2}),  # isolated indices at the end
        ]:
            cs = condition_set(k, conds)
            assert brute_force_find(cs, 8) == naive_first(cs, 8)


class TestDecisionAgainstSearch:
    @given(condition_sets(max_k=3, max_value=6, allow_empty=False))
    @settings(max_examples=60, deadline=None)
    def test_agreement_on_small_systems(self, cs):
        report = is_admissible(cs)
        if report:
            w = witness(cs)
            assert delta(cs, w) == 1
            bound = 2 * max(w)
            found = brute_force_find(cs, bound)
            assert found is not None
            # every solution is divisible by the forced prime powers
            for p in trial_primes(cs):
                _, v = naive_valuations(cs, p)
                for i in range(1, cs.k + 1):
                    assert padic_order(found[i - 1], p) >= v[i]
                    assert padic_order(w[i - 1], p) == v[i]
        else:
            assert brute_force_find(cs, 12) is None

"""Per-prime valuations, pinned indices, and the residual system."""

import random

import pytest
from hypothesis import given, settings

from gcdcensus import (
    InadmissibleError,
    condition_set,
    find_cover,
    is_admissible,
    is_cover,
    local_view,
    relevant_primes,
    valuations,
    z_set,
)
from gcdcensus.padic import padic_order

from helpers import (
    admissible_condition_sets,
    composite_targets,
    condition_sets,
    naive_valuations,
    random_admissible,
)


class TestRelevantPrimes:
    def test_examples(self):
        assert relevant_primes(condition_set(3, {(1, 2): 1, (2, 3): 1, (1, 3): 1})) == ()
        assert relevant_primes(condition_set(3, {(1, 2): 6, (2, 3): 10})) == (2, 3, 5)
        assert relevant_primes(condition_set(2, {(1, 2): 4})) == (2,)

    def test_large_prime_target(self):
        p = 2**61 - 1  # Mersenne prime
        assert relevant_primes(condition_set(2, {(1, 2): 2 * p})) == (2, p)

    def test_two_large_factors(self):
        a, b = 1000003, 1000033
        assert relevant_primes(condition_set(2, {(1, 2): a * b})) == (a, b)


class TestValuations:
    def test_examples(self):
        cs = condition_set(3, {(1, 2): 6, (2, 3): 10})
        g, v = valuations(cs, 2)
        assert g == {frozenset({1, 2}): 1, frozenset({2, 3}): 1}
        assert v == {1: 1, 2: 1, 3: 1}
        g, v = valuations(cs, 3)
        assert g == {frozenset({1, 2}): 1, frozenset({2, 3}): 0}
        assert v == {1: 1, 2: 1, 3: 0}
        g, v = valuations(cs, 7)
        assert set(g.values()) == {0}
        assert set(v.values()) == {0}

    def test_isolated_index_gets_zero(self):
        _, v = valuations(condition_set(3, {(1, 2): 4}), 2)
        assert v[3] == 0

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            valuations(condition_set(2, {(1, 2): 2}), 6)

    @given(condition_sets(max_k=5, values=composite_targets))
    @settings(max_examples=100)
    def test_v_is_the_largest_g_on_each_index(self, cs):
        for p in (2, 3, 5, 7, 11):
            assert valuations(cs, p) == naive_valuations(cs, p)

    @given(admissible_condition_sets())
    @settings(max_examples=50)
    def test_v_dominates_g(self, cs):
        for p in relevant_primes(cs):
            g, v = valuations(cs, p)
            for c in cs.conditions:
                assert all(v[i] >= g[c.indices] for i in c.indices)

    @given(admissible_condition_sets())
    @settings(max_examples=50)
    def test_target_reconstruction(self, cs):
        products = {c.indices: 1 for c in cs.conditions}
        for p in relevant_primes(cs):
            g, _ = valuations(cs, p)
            for t in products:
                products[t] *= p ** g[t]
        for c in cs.conditions:
            assert products[c.indices] == c.value


class TestZSet:
    def test_examples(self):
        assert z_set(condition_set(3, {(1, 2): 1, (2, 3): 2}), 2) == {1}
        assert z_set(condition_set(3, {(1, 2): 1, (2, 3): 1}), 2) == frozenset()
        assert z_set(condition_set(2, {(1, 2): 2}), 2) == frozenset()

    def test_off_support_prime_is_empty(self):
        cs = condition_set(3, {(1, 2): 6, (2, 3): 10})
        assert z_set(cs, 7) == frozenset()


class TestReduce:
    def test_worked_example(self):
        cs = condition_set(3, {(1, 2): 1, (2, 3): 2})
        view = local_view(cs, 2, find_cover(cs))
        assert view.s_p == {2, 3}
        assert [sorted(c.indices) for c in view.reduced.conditions] == [[2, 3]]
        assert all(c.value == 1 for c in view.reduced.conditions)
        assert view.i_set == frozenset()

    def test_off_support_prime_keeps_everything(self):
        cs = condition_set(3, {(1, 2): 1, (2, 3): 2})
        view = local_view(cs, 7, find_cover(cs))
        assert view.z_set == frozenset()
        assert {c.indices for c in view.reduced.conditions} == {c.indices for c in cs.conditions}

    def test_both_attaining(self):
        cs = condition_set(2, {(1, 2): 2})
        view = local_view(cs, 2, find_cover(cs))
        assert view.s_p == {1, 2}
        assert [sorted(c.indices) for c in view.reduced.conditions] == [[1, 2]]
        assert view.i_set == frozenset()

    def test_pinned_index_inside_larger_condition(self):
        # index 3 is pinned by (3,4); the (1,2,3) condition still forces
        # min over {1,2}, so its residual edge must survive
        cs = condition_set(5, {(1, 2, 3): 1, (3, 4): 2, (4, 5): 4})
        view = local_view(cs, 2, find_cover(cs))
        assert view.z_set == {3}
        assert {tuple(sorted(c.indices)) for c in view.reduced.conditions} == {(1, 2), (4, 5)}

    def test_degenerate_residual_edge_signals_inadmissible(self):
        # gcd(n1,n2)=2 and gcd(n1,n3)=2 force both of (2,3) even, so
        # gcd(n2,n3)=1 is unsatisfiable; the residual edge of (2,3) at 2
        # collapses
        cs = condition_set(3, {(1, 2): 2, (1, 3): 2, (2, 3): 1})
        with pytest.raises(InadmissibleError):
            local_view(cs, 2, find_cover(cs))

    @given(admissible_condition_sets())
    @settings(max_examples=50)
    def test_residual_edges_have_two_members(self, cs):
        for p in relevant_primes(cs):
            view = local_view(cs, p, find_cover(cs))
            assert all(len(c.indices) >= 2 for c in view.reduced.conditions)
            assert all(c.value == 1 for c in view.reduced.conditions)

    @given(admissible_condition_sets())
    @settings(max_examples=50)
    def test_reduce_is_idempotent(self, cs):
        for p in relevant_primes(cs) + (7,):
            once = local_view(cs, p, find_cover(cs)).reduced
            twice = local_view(once, p, find_cover(once)).reduced
            assert {c.indices for c in once.conditions} == {c.indices for c in twice.conditions}


class TestLocalView:
    def test_examples(self):
        assert local_view(condition_set(3, {(1, 2): 1, (2, 3): 2}), 2, {2}).w_p == {2}
        assert local_view(condition_set(3, {(1, 2): 1, (2, 3): 1}), 5, {2}).w_p == {2}
        assert local_view(condition_set(2, {(1, 2): 2}), 3, {1}).w_p == {1}

    def test_rejects_non_cover(self):
        with pytest.raises(ValueError):
            local_view(condition_set(3, {(1, 2): 1, (2, 3): 1}), 2, {1})

    def test_rejects_isolated_in_cover(self):
        with pytest.raises(ValueError, match="isolated"):
            local_view(condition_set(3, {(1, 2): 1}), 2, {1, 3})

    def test_w_p_covers_residual(self):
        rng = random.Random(7)
        for _ in range(40):
            cs = random_admissible(rng)
            w = find_cover(cs)
            for p in relevant_primes(cs):
                view = local_view(cs, p, w)
                assert is_cover(view.reduced, view.w_p)

    def test_admissibility_context(self):
        cs = condition_set(3, {(1, 2): 6, (2, 3): 10})
        assert is_admissible(cs)


class TestPadicOrder:
    def test_values(self):
        assert padic_order(6, 2) == 1
        assert padic_order(40, 2) == 3
        assert padic_order(7, 2) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            padic_order(0, 2)

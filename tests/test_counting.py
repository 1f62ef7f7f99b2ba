"""Exact counters against independent enumeration and Mobius oracles."""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gcdcensus import (
    Condition,
    ConditionSet,
    ResourceLimitError,
    condition_set,
    convergence_table,
    count,
    empirical_report,
    is_admissible,
    nymann_count,
)
from gcdcensus import FactorPolynomial, counting, find_cover, generic_factor_polynomial, padic, primes
from gcdcensus import local_factor, local_view, relevant_primes
from gcdcensus.padic import core_masks, valuations

from helpers import (
    condition_sets,
    coprime_count,
    dense_local_patterns,
    exponent_cap,
    naive_count,
    naive_local_patterns,
    naive_twins,
    readme_count,
    totients_up_to,
    trial_mobius,
    trial_order,
)


def mobius_count_oracle(k: int, x: int) -> int:
    return sum(trial_mobius(d) * (x // d) ** k for d in range(1, x + 1))


def pairwise(k: int, target: int = 1) -> ConditionSet:
    return condition_set(k, dict.fromkeys(combinations(range(1, k + 1), 2), target))


def path(k: int, target: int = 1) -> ConditionSet:
    return condition_set(k, {(i, i + 1): target for i in range(1, k)})


def star(k: int, target: int = 1) -> ConditionSet:
    return condition_set(k, {(1, i): target for i in range(2, k + 1)})


README = condition_set(3, {(1, 2): 6, (2, 3): 10})


def unfactorable(monkeypatch) -> None:
    """Make every call to factorize fail, wherever it was imported."""

    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(primes, "factorize", refuse)
    monkeypatch.setattr(padic, "factorize", refuse)


@st.composite
def prime_power_systems(draw, max_k: int = 4):
    """Up to 3 conditions on k <= max_k indices, some of them isolated, with
    targets from 1, 2, 3, 4, 6, 8, 9 and 12: the gcds of a base tuple on
    their index sets, or drawn freely (and then often unsolvable)."""
    k = draw(st.integers(2, max_k))
    used = draw(st.lists(st.integers(1, k), min_size=2, max_size=k, unique=True))
    edges = [e for size in range(2, len(used) + 1) for e in combinations(sorted(used), size)]
    chosen = draw(st.lists(st.sampled_from(edges), min_size=1, max_size=3, unique=True))
    values = st.sampled_from((1, 2, 3, 4, 6, 8, 9, 12))
    base = draw(st.lists(values, min_size=k, max_size=k))
    free = draw(st.booleans())
    return condition_set(k, {e: draw(values) if free else gcd(*(base[i - 1] for i in e)) for e in chosen})


@st.composite
def target_systems(draw):
    """Admissible systems on k <= 5 indices: targets are the gcds of a base
    tuple from 1, 2, 3, 4, 5, 6, 8, 9, 12 and 18 (a set closed under gcd)."""
    k = draw(st.integers(2, 5))
    edges = [e for size in range(2, k + 1) for e in combinations(range(1, k + 1), size)]
    chosen = draw(st.lists(st.sampled_from(edges), min_size=1, max_size=4, unique=True))
    base = draw(st.lists(st.sampled_from((1, 2, 3, 4, 5, 6, 8, 9, 12, 18)), min_size=k, max_size=k))
    return condition_set(k, {e: gcd(*(base[i - 1] for i in e)) for e in chosen})


# twin-closed systems on positions 0..k-1, as the orbits of their conditions
# under the twin swaps; one target per orbit keeps every swap an automorphism
TWIN_TEMPLATES = [
    *([[(0, i) for i in range(1, k)]] for k in (3, 4, 5)),  # stars
    *([list(combinations(range(k), 2))] for k in (3, 4, 5)),  # complete pairwise
    [[(a, b) for a in (0, 1) for b in (2, 3)]],  # complete bipartite K_{2,2}
    [[(a, b) for a in (0, 1) for b in (2, 3, 4)]],  # K_{2,3}
    [[(0, 1, 2)], [(2, 3)]],  # cascades with twin leaves 0 and 1
    [[(0, 2), (1, 2)], [(2, 3)]],
    [[(0, 1, 2)], [(2, 3)], [(3, 4)]],
    [[(0, 2), (1, 2)], [(2, 3)], [(3, 4)]],
    [[(0, 1, 2)], [(2, 3), (2, 4)]],  # twin leaves at both ends
]


@st.composite
def twin_closed_systems(draw):
    """(cs, x): a template relabelled by a random permutation, so that twin
    classes interleave, with targets from 1, 2, 3, 4, 6 and 12, one per orbit
    of conditions, and x small enough for full-box enumeration."""
    orbits = draw(st.sampled_from(TWIN_TEMPLATES))
    k = 1 + max(i for orbit in orbits for e in orbit for i in e)
    label = draw(st.permutations(range(1, k + 1)))
    targets = {}
    for orbit in orbits:
        t = draw(st.sampled_from((1, 2, 3, 4, 6, 12)))
        targets.update({tuple(label[i] for i in e): t for e in orbit})
    return condition_set(k, targets), draw(st.integers(1, {3: 40, 4: 12, 5: 6}[k]))


@st.composite
def retargeted(draw, systems):
    """A system from systems, half the time with one target raised by 1,
    which makes or breaks the twins whose swap moves that condition onto
    another."""
    cs = draw(systems)
    if not cs.conditions or draw(st.booleans()):
        return cs
    moved = draw(st.sampled_from(cs.conditions))
    others = [c for c in cs.conditions if c != moved]
    return ConditionSet(cs.k, (*others, Condition(moved.indices, moved.value + 1)))


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
        with pytest.raises(ResourceLimitError, match="walk"):
            count(condition_set(2, {(1, 2): 1}), 10**12)

    def test_huge_bound_is_refused_before_sieving(self, monkeypatch):
        def no_sieve(x):
            raise AssertionError(f"sieved to {x}")

        monkeypatch.setattr(counting, "primes_up_to", no_sieve)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=r"walk needs over \d+ steps, past its budget of 3000000"):
            count(README, 10**12)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("x", [2155, 10**4, 10**5])
    def test_readme_system_past_the_full_box(self, x):
        assert count(README, x) == readme_count(x)

    def test_readme_oracle_values(self):
        assert all(
            coprime_count(b, m) == sum(gcd(a, m) == 1 for a in range(1, b + 1)) for b in range(40) for m in range(1, 70)
        )
        assert readme_count(2154) == 1441689
        assert readme_count(10**5) == 143214196177

    def test_coprime_pairs_at_a_million(self):
        assert count(condition_set(2, {(1, 2): 1}), 10**6) == nymann_count(2, 10**6) == 607927104783

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


class TestWalk:
    """The prime-pattern walk on its own, bypassing the dispatch in `count`."""

    @given(prime_power_systems(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_enumeration(self, cs, data):
        # x = 1, targets above x and isolated indices included
        x = data.draw(st.integers(1, 12 if cs.k <= 3 else 8))
        assert counting._walk(cs, x) == naive_count(cs, x)

    @pytest.mark.parametrize(
        "targets, x",
        [
            ({(1, 2): 4, (2, 3): 8}, 17),
            ({(1, 2, 3): 9}, 20),
            ({(1, 2): 12, (1, 3): 9}, 30),
            ({(1, 2): 7}, 6),
            ({(1, 2): 7, (2, 3): 1}, 6),  # the quotient box (0, 0, 6): no solution
            # inadmissible at 2, a prime above every quotient (1, 1, 1): only the
            # witness check, not the sieve, sees it
            ({(1, 2): 1, (1, 3): 2, (2, 3): 2}, 2),
        ],
    )
    def test_prime_powers_and_targets_above_x(self, targets, x):
        cs = condition_set(3, targets)
        assert counting._walk(cs, x) == naive_count(cs, x)

    def test_sieves_to_the_largest_quotient(self, monkeypatch):
        # README's witness is (6, 30, 10): the walk's primes stop at 6000 // 6
        bounds = []

        def sieve(n):
            bounds.append(n)
            return primes.primes_up_to(n)

        monkeypatch.setattr(counting, "primes_up_to", sieve)
        assert counting._walk(README, 6000) == readme_count(6000)
        assert bounds == [1000]

    @given(condition_sets(max_k=8, allow_empty=False))
    @settings(max_examples=60, deadline=None)
    def test_generic_weights_sum_to_factor_polynomial(self, cs):
        # sum of g(S) over |S| = j is c_j: both are the local factor at a
        # prime dividing no target, as a polynomial in 1/p
        sets, weights = counting._local_patterns(cs.edge_masks)
        assert sets[0] == 0 and sets == sorted(set(sets))  # the walk relies on the order
        by_size = [0] * (cs.k + 1)
        for s, g in zip(sets, weights):
            by_size[s.bit_count()] += g
        assert FactorPolynomial(tuple(by_size)) == generic_factor_polynomial(cs)

    @pytest.mark.parametrize("cs", [path(16), pairwise(8), star(12)], ids=["path16", "pairwise8", "star12"])
    def test_patterns_match_dense_transform(self, cs):
        assert counting._local_patterns(cs.edge_masks) == dense_local_patterns(cs.edge_masks, cs.k)

    @given(condition_sets(max_k=8, allow_empty=False), target_systems())
    @settings(max_examples=80, deadline=None)
    def test_patterns_match_dense_transform_on_random_cores(self, generic, targets):
        # generic cores are the condition sets; target-prime cores hold
        # pinned indices as singletons and may nest
        masks = generic.edge_masks
        assert counting._local_patterns(masks) == dense_local_patterns(masks, generic.k)
        for p in relevant_primes(targets):
            cores = core_masks(*valuations(targets, p))[1]
            assert counting._local_patterns(cores) == dense_local_patterns(cores, targets.k)

    @given(st.integers(1, 10).flatmap(lambda m: st.tuples(st.just(m), st.lists(st.integers(0, 2**m - 1)))))
    @settings(max_examples=80, deadline=None)
    def test_patterns_match_dense_transform_on_any_masks(self, case):
        # repeated, nested, singleton and empty cores included
        m, cores = case
        assert counting._local_patterns(cores) == dense_local_patterns(cores, m)

    @pytest.mark.parametrize("k, x", [(2, 10**5), (3, 2000)])
    def test_long_prime_runs_match_nymann(self, k, x):
        # a node sums its primes above about sqrt(y) over runs of equal quotients
        cs = condition_set(k, {tuple(range(1, k + 1)): 1})
        assert counting._walk(cs, x) == nymann_count(k, x)

    @pytest.mark.parametrize(
        "cs, x",
        [
            (condition_set(3, {(1, 2): 6, (2, 3): 10}), 1000),  # runs over quotients of unequal y_i
            (condition_set(4, {(1, 2): 2, (3, 4): 3}), 60),  # a disjoint pair still fits after every prime
        ],
    )
    def test_uneven_prime_runs_match_scan(self, cs, x):
        assert counting._walk(cs, x) == counting._scan(cs, x)

    @given(target_systems())
    @settings(max_examples=80, deadline=None)
    def test_target_tables_sum_to_local_factor(self, cs):
        # the table at p holds every nonzero g_p, at the patterns v + S, and
        # the sum of g_p(a) p^(-sum a) is the probability that geometric
        # p-adic orders meet every condition: the exact local factor at p
        for p in relevant_primes(cs):
            total_v, cores = core_masks(*valuations(cs, p))
            sets, weights = counting._local_patterns(cores)
            series = sum(Fraction(g, p ** (total_v + s.bit_count())) for s, g in zip(sets, weights))
            assert series == local_factor(local_view(cs, p, find_cover(cs)))

    @given(target_systems())
    @settings(max_examples=80, deadline=None)
    def test_core_tables_match_dense_grid(self, cs):
        # the walk's table at p, shifted by v and cut to divisors <= x, is the
        # finite difference of the local indicator on the grid {0..cap}^k
        for p in relevant_primes(cs):
            orders = [trial_order(c.value, p) for c in cs.conditions]
            top = max(orders)
            g, v = valuations(cs, p)
            sets, weights = counting._local_patterns(core_masks(g, v)[1])
            shifted = {tuple(v[i + 1] + (s >> i & 1) for i in range(cs.k)): w for s, w in zip(sets, weights)}
            for x in (1, p, p**top - 1, p**top, p ** (top + 1), p ** (top + 2)):
                cap = exponent_cap(p, top, x)
                exponents, grid_weights = naive_local_patterns(list(cs.edge_masks), orders, cap, cs.k)
                expected = dict(zip(map(tuple, exponents.tolist()), grid_weights))
                assert {a: w for a, w in shifted.items() if p ** max(a) <= x} == expected

    @pytest.mark.parametrize(
        "cs, x, walk",
        [
            (pairwise(4), 20, True),  # m <= 4
            (condition_set(4, {(1, 2): 12, (2, 3): 18, (3, 4): 6}), 40, True),
            (path(6), 8, True),  # few dependent sets carry a weight
            (condition_set(5, {(1, 2, 3): 1, (3, 4): 1, (4, 5): 1}), 12, True),
            (pairwise(5), 10, False),  # most index sets carry a weight
            (pairwise(6, 2), 8, False),
            (path(17), 2, False),  # more than 16 active coordinates
            # every index holds 2 or 4 (2^2 or 2^3 at x = 8): tables of up to 2^m rows at
            # p = 2, walked well within the step budget
            (path(13, 2), 4, True),
            (path(10, 4), 8, True),  # count 144
            (path(11, 4), 8, True),  # count 233
            # dense but not complete pairwise: the generic table stops at 3/4 of
            # the 2^6 index sets, and all triples stop on 43 weighted sets of 64
            (condition_set(6, dict.fromkeys(set(combinations(range(1, 7), 2)) - {(1, 2)}, 1)), 6, False),
            (condition_set(6, dict.fromkeys(combinations(range(1, 7), 3), 1)), 6, False),
        ],
    )
    def test_dispatch_sides_agree_with_scan(self, cs, x, walk):
        hits = counting._walk(cs, x)  # None where the walk declines
        assert (hits is not None) is walk
        expected = counting._scan(cs, x)
        assert count(cs, x) == expected
        assert hits in (None, expected)

    @pytest.mark.parametrize(
        "cs, x, walk",
        [
            (condition_set(4, {(1, 2): 12, (2, 3): 18, (3, 4): 6}), 40, True),
            (pairwise(6, 6), 8, False),  # complete pairwise: declined before the target primes
        ],
    )
    def test_count_factors_targets_once(self, cs, x, walk, monkeypatch):
        # the walk reads its target primes off its own sieve, and the scan
        # needs none: count answers both kernels' systems without factorize
        expected = counting._scan(cs, x)
        unfactorable(monkeypatch)
        assert count(cs, x) == expected
        assert (counting._walk(cs, x) is not None) is walk

    def test_semiprime_target_is_counted_without_factoring(self, monkeypatch):
        # S = (2^64 - 59)(2^64 - 83) is past what factorize splits in bounded
        # time; the witness (S, S) leaves the quotients (x // S, x // S), and a
        # pair of multiples of S meets the condition when its quotients are coprime
        s = (2**64 - 59) * (2**64 - 83)
        cs = condition_set(2, {(1, 2): s})
        unfactorable(monkeypatch)
        start = time.perf_counter()
        assert count(cs, 3 * s) == 7
        assert count(cs, 1000 * s) == nymann_count(2, 1000) == 608383
        assert time.perf_counter() - start < 1

    @given(twin_closed_systems())
    @example((condition_set(5, {(a, b): 1 for a in (1, 3) for b in (2, 4, 5)}), 6))  # K_{2,3}, parts interleaved
    @example((condition_set(4, {(a, b): 1 for a in (1, 3) for b in (2, 4)}), 12))  # K_{2,2}: the 4-cycle
    @example((condition_set(3, {(1, 2): 2, (2, 3): 2}), 30))  # K_{1,2} centred at 2
    @example((pairwise(4), 12))  # one class: memo hits at unequal starts
    @settings(max_examples=100, deadline=None)
    def test_twin_closed_systems_match_naive_enumeration(self, case):
        # the walk sums one vector per orbit of the twin swaps, each class's
        # values sorted at its own positions, and memoizes a node's sum on its
        # orbit and next prime
        cs, x = case
        expected = naive_count(cs, x)
        assert counting._walk(cs, x) in (None, expected)  # None: declined, K_{2,3} and complete pairwise k=5
        assert count(cs, x) == expected

    @given(retargeted(st.one_of(condition_sets(max_k=6), twin_closed_systems().map(lambda case: case[0]))))
    @example(condition_set(3, {(1, 2): 1, (1, 3): 2}))  # 2 and 3 differ only in one target
    @settings(max_examples=200, deadline=None)
    def test_twin_classes_match_naive_swaps(self, cs):
        classes = counting._twin_classes(cs)
        assert sorted(i for c in classes for i in c) == list(range(cs.k))
        assert all(c == sorted(c) for c in classes)
        pairs = {frozenset((i + 1, j + 1)) for c in classes for i, j in combinations(c, 2)}
        assert pairs == naive_twins(cs)

    def test_star_at_ten_thousand_matches_coprime_sums(self):
        # the three leaves are twins; a centre n has coprime_count(x, n) choices
        # at each leaf.  Refused past the step budget before the walk had twins.
        x = 10**4
        assert count(star(4), x) == sum(coprime_count(x, n) ** 3 for n in range(1, x + 1)) == 3372065065651273

    # the count-dense benchmark systems without an oracle in the benchmark
    @pytest.mark.parametrize(
        "cs, x, expected",
        [
            (pairwise(4), 57, 1162053),
            (pairwise(4), 58, 1207429),
            (condition_set(5, {(1, 2, 3): 1, (3, 4): 1, (4, 5): 1}), 26, 4587934),
        ],
    )
    def test_count_dense_systems_match_scan(self, cs, x, expected):
        assert counting._walk(cs, x) == count(cs, x) == counting._scan(cs, x) == expected


class TestBudget:
    """Both kernels charge their work, in steps of about 1 us, to one budget."""

    def test_small_budget_refuses_the_walk(self):
        with pytest.raises(ResourceLimitError, match="count's walk needs over .* budget of 50000"):
            counting._walk(README, 10**5, 50_000)
        assert counting._walk(README, 10**5) == readme_count(10**5)

    def test_small_budget_refuses_the_scan(self):
        assert counting._walk(path(20), 3) is None  # more than 16 active coordinates
        with pytest.raises(ResourceLimitError, match="count's scan needs over .* budget of 100000"):
            counting._scan(path(20), 3, 100_000)

    @pytest.mark.parametrize(
        "kernel, cs, x",
        [
            ("_walk", README, 2000),
            ("_walk", path(10, 4), 8),
            ("_walk", pairwise(4), 30),
            ("_scan", pairwise(5), 10),
            ("_scan", path(17), 2),
            ("_scan", README, 300),
            ("_walk", star(4), 1000),  # twin leaves: memo lookups are charged too
        ],
    )
    def test_a_finished_kernel_stays_within_its_budget(self, kernel, cs, x, monkeypatch):
        charges = []
        meter = counting._meter

        def recorded(name, budget):
            charge = meter(name, budget)

            def record(steps):
                charges.append(steps)
                charge(steps)

            return record

        monkeypatch.setattr(counting, "_meter", recorded)
        expected = getattr(counting, kernel)(cs, x)
        spent = sum(charges)
        assert 0 < spent <= counting._COUNT_STEPS
        # a budget one step short refuses at the very charge that passes it
        charges.clear()
        with pytest.raises(ResourceLimitError):
            getattr(counting, kernel)(cs, x, spent - 1)
        assert sum(charges[:-1]) <= spent - 1 < sum(charges)
        assert getattr(counting, kernel)(cs, x, spent) == expected


class TestScan:
    """The pruned box scan on its own, bypassing the dispatch in `count`."""

    @given(prime_power_systems(max_k=5), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_enumeration(self, cs, data):
        # x = 1, targets above x and isolated indices included
        x = data.draw(st.integers(1, {2: 12, 3: 12, 4: 8, 5: 5}[cs.k]))
        assert counting._scan(cs, x) == naive_count(cs, x)

    @given(prime_power_systems(), st.integers(1, 60))
    @example(condition_set(4, {(1, 2): 2, (1, 2, 3): 1}), 60)  # index 2 ends one, continues one; 4 isolated
    @example(condition_set(4, {(1, 3): 3, (1, 2, 3): 1, (3, 4): 1}), 45)  # index 3 ends two, continues one
    @settings(max_examples=80, deadline=None)
    def test_matches_walk(self, cs, x):
        # a second oracle, at x beyond full-box enumeration: the walk answers every m <= 4
        assume(is_admissible(cs))
        assert counting._scan(cs, x) == counting._walk(cs, x)


class TestNymann:
    def test_values(self):
        assert nymann_count(3, 4) == 55
        assert nymann_count(2, 1) == 1
        assert nymann_count(2, 10) == 63

    def test_matches_trial_mobius_oracle(self):
        # every x <= 300 crosses many of the boundaries x^(2/3) between the
        # Mobius table and the Mertens recursion
        for k in (2, 3, 5):
            for x in range(1, 301):
                assert nymann_count(k, x) == mobius_count_oracle(k, x)

    def test_pairs_match_the_totient_sum(self):
        # a second oracle, sharing no code with the Mertens function: the
        # coprime pairs in [1, x]^2 are 2 * (phi(1) + ... + phi(x)) - 1
        x = 10**5
        assert nymann_count(2, x) == 2 * sum(totients_up_to(x)) - 1

    def test_mobius_matches_trial_division(self):
        # every bound up to 170 crosses the squares 4, 9, ..., 169 that
        # zero the multiples of p^2
        expected = [0] + [trial_mobius(m) for m in range(1, 171)]
        for n in range(171):
            assert primes.mobius_up_to(n) == expected[: n + 1]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            nymann_count(1, 10)
        with pytest.raises(ValueError):
            nymann_count(2, 0)

    def test_guard_refuses_before_sieving(self, monkeypatch):
        def no_sieve(x):
            raise AssertionError(f"sieved to {x}")

        monkeypatch.setattr(counting, "_mertens", no_sieve)
        with pytest.raises(ResourceLimitError, match=r"x = 1000000001 exceeds the 1000000000 limit"):
            nymann_count(2, 10**9 + 1)
        with pytest.raises(AssertionError, match="sieved to 1000000000"):
            nymann_count(2, 10**9)  # the largest accepted bound


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

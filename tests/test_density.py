"""Local factors, the shared polynomial, and the truncated Euler product."""

import itertools
import os
import random
import threading
import time
import warnings
from fractions import Fraction
from math import comb, exp, fsum, log, log1p, pi

import numpy as np
import pytest
from hypothesis import given, settings

from gcdcensus import (
    ConditionSet,
    CutoffTooSmallError,
    InadmissibleError,
    ResourceLimitError,
    condition_set,
    constant,
    count,
    find_cover,
    generic_factor_polynomial,
    isolated_indices,
    local_factor,
    local_view,
    relevant_primes,
    rwise_constant,
    toth_pairwise_constant,
)
from gcdcensus import density, primes
from gcdcensus.density import MAX_PRIME_CUTOFF, FactorPolynomial
from gcdcensus.primes import primes_up_to

from helpers import (
    admissible_condition_sets,
    naive_euler_product,
    naive_factor_polynomial,
    naive_local_factor,
    random_admissible,
    valuation_probability,
)

ZETA2 = pi**2 / 6
INV_ZETA3 = 0.8319073725807075  # 1/zeta(3), float64

# Complete bipartite K_{24,24}: every elimination order keeps about 24
# indices on the frontier, so the subset sums pass the state cap.
OVER_CAP = condition_set(48, {(i, j): 1 for i in range(1, 25) for j in range(25, 49)})


def pairwise_coefficients(k):
    # Toth's (1-t)^(k-1) (1 + (k-1) t), expanded
    coeffs = [0] * (k + 1)
    for j in range(k):
        c = comb(k - 1, j) * (-1) ** j
        coeffs[j] += c
        coeffs[j + 1] += c * (k - 1)
    return tuple(coeffs)


def rwise_coefficients(k, r):
    # sum over x < r of C(k, x) t^x (1-t)^(k-x), expanded
    coeffs = [0] * (k + 1)
    for x in range(r):
        for j in range(k - x + 1):
            coeffs[x + j] += comb(k, x) * comb(k - x, j) * (-1) ** j
    return tuple(coeffs)


class TestLocalFactor:
    def test_pairwise_at_two(self):
        view = local_view(condition_set(2, {(1, 2): 1}), 2, {1})
        assert local_factor(view) == Fraction(3, 4)

    def test_mixed_targets(self):
        view = local_view(condition_set(3, {(1, 2): 1, (2, 3): 2}), 2, {2})
        assert local_factor(view) == Fraction(3, 32)

    def test_even_pair(self):
        view = local_view(condition_set(2, {(1, 2): 2}), 2, {1})
        assert local_factor(view) == Fraction(3, 16)

    def test_complete_pairwise_k26_at_two(self):
        # a residual cover of 25 indices at p=2; Toth's factor (1-t)^25 (1+25t)
        # at t = 1/2 is 27/2^26
        cs = condition_set(26, {t: 1 for t in itertools.combinations(range(1, 27), 2)})
        view = local_view(cs, 2, find_cover(cs))
        assert len(view.w_p) == 25
        assert local_factor(view) == Fraction(27, 2**26)

    def test_over_state_cap_rejected_in_bounded_time(self):
        # the cap bounds the work: the refusal took 0.3 s on a 2-vCPU VM
        view = local_view(OVER_CAP, 2, find_cover(OVER_CAP))
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=f"{density.MAX_STATES}-state cap"):
            local_factor(view)
        assert time.perf_counter() - start < 5

    def test_pinned_index_inside_larger_condition(self):
        # the surviving min-constraint on {1,2} contributes (1 - 1/p^2)
        cs = condition_set(5, {(1, 2, 3): 1, (3, 4): 2, (4, 5): 4})
        got = local_factor(local_view(cs, 2, find_cover(cs)))
        assert got == Fraction(9, 1024)
        assert got == valuation_probability(cs, 2)

    def test_matches_valuation_probability_oracle(self):
        rng = random.Random(20240809)
        for _ in range(30):
            cs = random_admissible(rng, max_k=5, max_base=40)
            w = find_cover(cs)
            for p in relevant_primes(cs) + (2, 7):
                assert local_factor(local_view(cs, p, w)) == valuation_probability(cs, p)

    @given(admissible_condition_sets(max_k=4, max_base=20))
    @settings(max_examples=30, deadline=None)
    def test_factors_in_unit_interval(self, cs):
        w = find_cover(cs)
        for p in relevant_primes(cs) + (2, 3):
            f = local_factor(local_view(cs, p, w))
            assert 0 < f <= 1


class TestGenericFactorPolynomial:
    def test_single_pair(self):
        poly = generic_factor_polynomial(condition_set(2, {(1, 2): 1}))
        assert poly.coefficients == (1, 0, -1)

    def test_path_of_two_pairs(self):
        poly = generic_factor_polynomial(condition_set(3, {(1, 2): 1, (2, 3): 1}))
        assert poly.coefficients == (1, 0, -2, 1)

    def test_empty_system(self):
        poly = generic_factor_polynomial(ConditionSet(2))
        assert poly.coefficients == (1,)

    def test_invariants_enforced(self):
        with pytest.raises(AssertionError):
            FactorPolynomial((2, 0, 1))
        with pytest.raises(AssertionError):
            FactorPolynomial((1, 1))

    @given(admissible_condition_sets(max_k=4, max_base=20))
    @settings(max_examples=40, deadline=None)
    def test_structure_and_local_agreement_off_support(self, cs):
        w = find_cover(cs)
        poly = generic_factor_polynomial(cs)
        assert poly.coefficients[0] == 1
        assert poly.degree < 2 or poly.coefficients[1] == 0
        assert poly.degree <= cs.k
        support = set(relevant_primes(cs))
        checked = 0
        for p in map(int, primes_up_to(200)):
            if p in support:
                continue
            assert local_factor(local_view(cs, p, w)) == poly.value_at(p)
            checked += 1
            if checked == 5:
                break

    def test_cover_choice_does_not_change_polynomial(self):
        # the paper's sums over the independent subsets of either cover
        cs = condition_set(3, {(1, 2): 1, (2, 3): 1})
        poly = generic_factor_polynomial(cs)
        assert naive_factor_polynomial(cs, {2}) == poly == naive_factor_polynomial(cs, {1, 3})

    def test_path_k40_matches_independent_set_count(self):
        # consecutive-coprime 40-tuples: a path has C(41 - j, j) independent
        # sets of size j, and each contributes t^j (1-t)^(40-j)
        cs = condition_set(40, {(i, i + 1): 1 for i in range(1, 40)})
        coeffs = [0] * 41
        for j in range(21):
            for i in range(41 - j):
                coeffs[j + i] += comb(41 - j, j) * comb(40 - j, i) * (-1) ** i
        assert generic_factor_polynomial(cs) == FactorPolynomial(tuple(coeffs))

    @pytest.mark.parametrize(
        "k, r, seconds",
        # covers of 63, 19 and 23 indices; the polynomials took 35 ms, 9 ms
        # and 0.2-0.3 s on a 2-vCPU VM, and the bounds leave room for slower machines
        [(64, 2, 1), (20, 3, 1), (24, 4, 10)],
    )
    def test_rwise_closed_forms_of_wide_systems(self, k, r, seconds):
        cs = condition_set(k, {t: 1 for t in itertools.combinations(range(1, k + 1), r)})
        start = time.perf_counter()
        poly = generic_factor_polynomial(cs)
        assert time.perf_counter() - start < seconds
        expected = pairwise_coefficients(k) if r == 2 else rwise_coefficients(k, r)
        assert poly == FactorPolynomial(expected)

    def test_over_state_cap_rejected_in_bounded_time(self):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=f"{density.MAX_STATES}-state cap"):
            generic_factor_polynomial(OVER_CAP)
        assert time.perf_counter() - start < 5


class TestSubsetHistogramKernel:
    """The elimination kernel's counts of subsets by size, against the paper's
    sums over the independent subsets of a cover, walked one at a time."""

    @staticmethod
    def covers(cs):
        return find_cover(cs), frozenset(range(1, cs.k + 1)) - isolated_indices(cs)

    def assert_matches_loops(self, cs, primes):
        poly = generic_factor_polynomial(cs)
        for w in self.covers(cs):
            assert poly == naive_factor_polynomial(cs, w)
            for p in primes:
                view = local_view(cs, p, w)
                assert local_factor(view) == naive_local_factor(view)

    def test_random_systems(self):
        rng = random.Random(20261017)
        for _ in range(60):
            cs = random_admissible(rng, max_k=9, max_base=40)
            self.assert_matches_loops(cs, relevant_primes(cs) + (2, 7))

    def test_random_systems_match_valuation_probability(self):
        rng = random.Random(20261018)
        for _ in range(40):
            cs = random_admissible(rng, max_k=6, max_base=12)
            for p in relevant_primes(cs) + (2, 7):
                assert local_factor(local_view(cs, p, find_cover(cs))) == valuation_probability(cs, p)

    def test_constant_takes_the_same_target_factors(self):
        # constant reads the cores off valuations, with no local_view
        rng = random.Random(20261019)
        for _ in range(20):
            cs = random_admissible(rng, max_k=7, max_base=40)
            special = relevant_primes(cs)
            cutoff = max(2 * generic_factor_polynomial(cs).tail_constant, *special, 2)
            trace = dict(constant(cs, cutoff).factor_trace)
            for p in special:
                assert trace[p] == local_factor(local_view(cs, p, find_cover(cs)))

    @pytest.mark.parametrize(
        "cs",
        [
            condition_set(8, {(1, 2): 6, (2, 3): 10, (3, 4, 5): 4, (5, 6): 12, (6, 7, 8): 9, (1, 8): 3}),
            condition_set(5, {(1, 2, 3): 1, (3, 4): 2, (4, 5): 4}),
            condition_set(40, {(i, i + 1): 1 for i in range(1, 40)}),  # a path
            condition_set(30, {(1, j): 1 for j in range(2, 31)}),  # a star
            condition_set(12, {t: 1 for t in itertools.combinations(range(1, 13), 3)}),
        ],
        ids=["mixed", "cascade", "path", "star", "3-wise"],
    )
    def test_relabelling_leaves_sums_unchanged(self, cs):
        # the elimination order follows the labels only through ties, so a
        # wrong order rule shows up as a change under relabelling
        poly = generic_factor_polynomial(cs)
        factors = [local_factor(local_view(cs, p, find_cover(cs))) for p in (2, 3, 5)]
        rng = random.Random(cs.k)
        for _ in range(5):
            label = dict(zip(range(1, cs.k + 1), rng.sample(range(1, cs.k + 1), cs.k)))
            moved = condition_set(cs.k, {tuple(label[i] for i in c.indices): c.value for c in cs.conditions})
            assert generic_factor_polynomial(moved) == poly
            assert [local_factor(local_view(moved, p, find_cover(moved))) for p in (2, 3, 5)] == factors

    def test_cover_containing_index_64(self):
        cs = condition_set(
            64, {(1, 64): 1, (33, 64): 1, (63, 64): 2, (62, 63, 64): 1, (40, 41): 3}
        )
        assert all(64 in w for w in self.covers(cs))
        self.assert_matches_loops(cs, (2, 3, 5))

    def test_pinned_cascade_at_two(self):
        cs = condition_set(5, {(1, 2, 3): 1, (3, 4): 2, (4, 5): 4})
        self.assert_matches_loops(cs, (2,))
        assert local_factor(local_view(cs, 2, find_cover(cs))) == valuation_probability(cs, 2)


class TestConstant:
    def test_zeta2(self):
        res = constant(condition_set(2, {(1, 2): 1}), prime_cutoff=10**6)
        assert abs(res.value - 0.6079271) < 1e-6
        assert res.lower <= 6 / pi**2 <= res.upper

    def test_zeta3(self):
        res = constant(condition_set(3, {(1, 2, 3): 1}), prime_cutoff=10**6)
        assert res.lower <= INV_ZETA3 <= res.upper

    def test_even_pair_value(self):
        res = constant(condition_set(2, {(1, 2): 2}), prime_cutoff=10**6)
        assert abs(res.value - 1 / (4 * ZETA2)) < 1e-6
        assert res.lower <= 1 / (4 * ZETA2) <= res.upper

    def test_empty_system_is_one(self):
        res = constant(ConditionSet(3), prime_cutoff=100)
        assert res.value == res.lower == res.upper == 1.0

    def test_interval_orders_and_positivity(self):
        res = constant(condition_set(3, {(1, 2): 6, (2, 3) : 10}), prime_cutoff=10**4)
        assert 0 < res.lower <= res.value <= res.upper

    def test_inadmissible_rejected(self):
        with pytest.raises(InadmissibleError):
            constant(condition_set(3, {(1, 2): 2, (1, 3): 2, (2, 3): 1}))

    def test_cutoff_below_support_rejected(self):
        with pytest.raises(CutoffTooSmallError):
            constant(condition_set(2, {(1, 2): 101}), prime_cutoff=50)

    def test_cutoff_below_tail_constant_rejected(self):
        with pytest.raises(CutoffTooSmallError):
            constant(condition_set(2, {(1, 2): 1}), prime_cutoff=1)

    def test_over_state_cap_rejected_in_bounded_time(self):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=f"{density.MAX_STATES}-state cap"):
            constant(OVER_CAP, prime_cutoff=10**4)
        assert time.perf_counter() - start < 5

    def test_complete_pairwise_k30_needs_cutoff_2c(self):
        # C is about 1.5e10, so the tail bound refuses the cutoff
        cs = condition_set(30, {(i, j): 1 for i in range(1, 31) for j in range(i + 1, 31)})
        with pytest.raises(CutoffTooSmallError, match="below 2C"):
            constant(cs, prime_cutoff=10**4)

    def test_25_disjoint_pairs_match_toth_power(self):
        # A cover of 25 indices.  The value is a product over
        # the pi(10^8) = 5,761,455 primes, and so is each Toth k=2 oracle
        # factor.  Per prime, Horner's value of (1-t^2)^25 near 1 carries
        # about one unit of 2^-53 from its last addition, the higher terms
        # a small fraction of one, and np.log about one more; take 5 units.
        # The oracle's 1 - t^2 carries at most 3, taken 25 times over in its
        # 25th power.  So |log(value/oracle)| <= 5,761,455 * 80 * 2^-53,
        # about 5.1e-8; errors of either sign mostly cancel across primes.
        cs = condition_set(50, {(2 * i - 1, 2 * i): 1 for i in range(1, 26)})
        res = constant(cs, prime_cutoff=10**8)
        oracle = toth_pairwise_constant(2, 10**8) ** 25
        assert res.value == pytest.approx(oracle, rel=5_761_455 * 80 * 2.0**-53, abs=0)
        assert res.lower <= oracle <= res.upper

    def test_prime_cutoff_above_limit_rejected_before_sieving(self, monkeypatch):
        def no_sieve(*args):
            raise AssertionError(f"sieved {args}")

        for name in ("SievePlan", "sieve_segment", "primes_up_to"):
            monkeypatch.setattr(density, name, no_sieve)
        with pytest.raises(ResourceLimitError, match=str(MAX_PRIME_CUTOFF)):
            constant(condition_set(2, {(1, 2): 1}), prime_cutoff=MAX_PRIME_CUTOFF + 1)

    def test_result_carries_tail_constant(self):
        cs = condition_set(3, {(1, 2): 6, (2, 3): 10})
        res = constant(cs, prime_cutoff=10**4)
        assert res.tail_constant == generic_factor_polynomial(cs).tail_constant == 3

    def test_trace_contents(self):
        res = constant(condition_set(3, {(1, 2): 6, (2, 3): 10}), prime_cutoff=10**4)
        traced = dict(res.factor_trace)
        assert {2, 3, 5}.issubset(traced)
        assert all(p < 50 or p in (2, 3, 5) for p in traced)
        assert all(isinstance(f, Fraction) and 0 < f <= 1 for f in traced.values())

    def test_matches_toth_exactly(self):
        cs = condition_set(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        assert constant(cs, prime_cutoff=10**4).value == toth_pairwise_constant(3, 10**4)
        cs = condition_set(5, {t: 1 for t in itertools.combinations(range(1, 6), 3)})
        assert constant(cs, prime_cutoff=10**4).value == rwise_constant(5, 3, 10**4)

    def test_cover_independence_random_systems(self):
        rng = random.Random(99)
        done = 0
        while done < 25:
            cs = random_admissible(rng, max_k=6)
            w1 = find_cover(cs)
            w2 = frozenset(range(1, cs.k + 1)) - isolated_indices(cs)
            if w1 == w2:
                continue
            poly = generic_factor_polynomial(cs)
            assert naive_factor_polynomial(cs, w1) == poly == naive_factor_polynomial(cs, w2)
            for p in sorted({*relevant_primes(cs), 2, 3, 5}):
                assert local_factor(local_view(cs, p, w1)) == local_factor(local_view(cs, p, w2))
            done += 1


class TestPinnedCascadeEndToEnd:
    def test_empirical_density_matches_constant(self):
        # the system whose residual edge at p=2 survives a pinned index;
        # dropping it would inflate the p=2 factor from 9/1024 to 12/1024
        cs = condition_set(5, {(1, 2, 3): 1, (3, 4): 2, (4, 5): 4})
        res = constant(cs, prime_cutoff=10**5)
        inflated = res.value * Fraction(12, 9)
        density = count(cs, 40) / 40**5
        assert abs(density - res.value) < 5e-4
        assert abs(density - res.value) < abs(density - inflated) / 3


class TestClosedFormOracles:
    def test_toth_two_is_inverse_zeta2(self):
        assert abs(toth_pairwise_constant(2, 10**6) - 1 / ZETA2) < 1e-6

    def test_toth_single_factor(self):
        assert toth_pairwise_constant(2, 2) == pytest.approx(0.75, abs=1e-15)

    def test_toth_three_stable_value(self):
        # agrees with an independent evaluation at cutoff 1e7 to 6 digits
        assert abs(toth_pairwise_constant(3, 10**6) - 0.286747) < 1e-6

    def test_rwise_full_is_inverse_zeta_k(self):
        assert abs(rwise_constant(3, 3, 10**6) - INV_ZETA3) < 1e-6

    def test_rwise_pairwise_matches_toth(self):
        assert rwise_constant(2, 2, 10**5) == toth_pairwise_constant(2, 10**5)
        assert rwise_constant(3, 2, 10**5) == toth_pairwise_constant(3, 10**5)

    @pytest.mark.parametrize("k", [40, 64])
    def test_large_k_matches_log1p_product(self, k):
        # float poly(1/p) cancels at small p for these degrees; the products of
        # (1-1/p)^(k-1) (1+(k-1)/p) and (1-1/p)^k sum_{x<3} C(k,x)/(p-1)^x,
        # taken through log1p, do not
        ps = [int(p) for p in primes_up_to(10**4)]
        toth = exp(fsum((k - 1) * log1p(-1 / p) + log1p((k - 1) / p) for p in ps))
        head = [log(sum(comb(k, x) / (p - 1) ** x for x in range(3))) for p in ps]
        rwise = exp(fsum(k * log1p(-1 / p) + h for p, h in zip(ps, head)))
        assert toth_pairwise_constant(k, 10**4) == pytest.approx(toth, rel=1e-12, abs=0)
        assert rwise_constant(k, 3, 10**4) == pytest.approx(rwise, rel=1e-12, abs=0)

    def test_cutoff_above_limit_rejected_before_sieving(self, monkeypatch):
        def no_sieve(*args):
            raise AssertionError(f"sieved {args}")

        for name in ("SievePlan", "sieve_segment", "primes_up_to"):
            monkeypatch.setattr(density, name, no_sieve)
        with pytest.raises(ResourceLimitError, match=str(MAX_PRIME_CUTOFF)):
            toth_pairwise_constant(3, MAX_PRIME_CUTOFF + 1)
        with pytest.raises(ResourceLimitError, match=str(MAX_PRIME_CUTOFF)):
            rwise_constant(4, 3, MAX_PRIME_CUTOFF + 1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            toth_pairwise_constant(1)
        with pytest.raises(ValueError):
            rwise_constant(3, 4)
        with pytest.raises(ValueError):
            rwise_constant(3, 1)


class TestExactSum:
    """density._exact_sum must return math.fsum's double bit for bit."""

    @staticmethod
    def assert_fsum_bits(x):
        assert density._exact_sum(x).hex() == fsum(x).hex()

    @pytest.mark.parametrize("spread", [0, 1, 9, 10, 11, 30, 53, 80])
    def test_seeded_mixed_signs_and_zeros(self, spread):
        rng = np.random.default_rng(spread)
        for n in (1, 2, 17, 1000, 20000):
            x = rng.uniform(0.5, 1.0, n) * rng.choice((-1.0, 1.0), n)
            x = np.ldexp(x, rng.integers(-spread // 2, spread - spread // 2 + 1, n) - 20)
            x[rng.random(n) < 0.1] = 0.0
            self.assert_fsum_bits(x)

    def test_cancelling_terms(self):
        x = np.array([1e16, 1.0, -1e16, 2.0**-60, -(2.0**-60), 3.0])
        self.assert_fsum_bits(x)
        self.assert_fsum_bits(np.array([1.0, -1.0]))

    def test_empty_and_all_zero(self):
        self.assert_fsum_bits(np.empty(0))
        self.assert_fsum_bits(np.zeros(5))

    def test_subnormals(self):
        tiny = np.array([5e-324, 1e-310, -2.5e-320, 2.0**-1022, -(2.0**-1070), 1e-300])
        self.assert_fsum_bits(tiny)
        self.assert_fsum_bits(tiny[:3])
        self.assert_fsum_bits(np.full(1000, 5e-324))

    def test_non_finite_terms_pass_through(self):
        assert density._exact_sum(np.array([1.0, np.inf])) == np.inf
        assert np.isnan(density._exact_sum(np.array([1.0, np.nan])))

    def test_long_block_cannot_overflow_int64(self):
        # 2^20 mantissas of 2^53 - 1 would overflow a plain int64 sum
        self.assert_fsum_bits(np.full(1 << 20, -0.9999999999999999))


class TestEulerProductKernels:
    """_euler_product against the per-block math.fsum loop, bit for bit."""

    @staticmethod
    def assert_same_bits(poly, cutoff, special=()):
        value, largest, exact = density._euler_product(poly, cutoff, special)
        naive_value, naive_largest, naive_exact = naive_euler_product(poly, cutoff, special)
        assert (value.hex(), largest, exact) == (naive_value.hex(), naive_largest, naive_exact)

    @pytest.mark.parametrize("cutoff", [2, 30, 10**4, 3 * 10**6])  # 3e6: three sieve segments
    def test_closed_form_polynomials(self, monkeypatch, cutoff):
        polys = []

        def recording(poly, cutoff, special=()):
            polys.append(poly)
            return 1.0, 0, {}

        monkeypatch.setattr(density, "_euler_product", recording)
        for k in range(2, 13):
            toth_pairwise_constant(k, cutoff)
            for r in range(2, k + 1):
                rwise_constant(k, r, cutoff)
        monkeypatch.undo()
        assert len(polys) == 11 + 66
        for poly in dict.fromkeys(polys):  # Toth k equals r-wise (k, 2)
            self.assert_same_bits(poly, cutoff)

    def test_bits_pinned(self):
        # absolute bits: the oracle above shares the sieve with the kernel,
        # so a change that moves bits in both would pass it, but not this
        cs = condition_set(3, {(1, 2): 6, (2, 3): 10})
        res = constant(cs, 10**6)
        assert (res.value.hex(), res.lower.hex(), res.upper.hex(), res.prime_cutoff) == (
            "0x1.2c4e7d69bf05ap-13",
            "0x1.2c4e0753fc0dep-13",
            "0x1.2c4ef37fb06c4p-13",
            999983,
        )
        assert constant(cs, 3 * 10**6 + 1).value.hex() == "0x1.2c4e7b9291794p-13"  # three segments
        assert toth_pairwise_constant(8, 3 * 10**6 + 1).hex() == "0x1.2d91ff62eae5fp-10"
        assert rwise_constant(6, 3, 10**6).hex() == "0x1.911edaee3fc4dp-3"

    @pytest.mark.parametrize("cutoff", [2, 30, 10**4, 3 * 10**6])
    def test_pinned_cascade_with_special_factors(self, cutoff):
        cs = condition_set(5, {(1, 2, 3): 1, (3, 4): 2, (4, 5): 4})
        w = find_cover(cs)
        special = [(p, local_factor(local_view(cs, p, w))) for p in relevant_primes(cs)]
        self.assert_same_bits(generic_factor_polynomial(cs), cutoff, special)


class TestThreadedProduct:
    """_euler_product folds sieve segments on several threads; the bits must
    not depend on how many, and no thread may outlive the call."""

    @staticmethod
    def use_threads(monkeypatch, n):
        monkeypatch.setattr(density, "_PRODUCT_THREADS", n)
        monkeypatch.setattr(density, "_available_cpus", lambda: n)

    def assert_naive_bits_on_1_2_3_threads(self, monkeypatch, poly, cutoff, special):
        naive_value, naive_largest, naive_exact = naive_euler_product(poly, cutoff, special)
        for n in (1, 2, 3):
            self.use_threads(monkeypatch, n)
            value, largest, exact = density._euler_product(poly, cutoff, special)
            assert (value.hex(), largest, exact) == (naive_value.hex(), naive_largest, naive_exact)

    @pytest.mark.parametrize("cutoff", [3 * 10**6 + 1, 2**23, 10**7])  # 3, 8 and 10 segments
    def test_same_bits_for_any_thread_count(self, monkeypatch, cutoff):
        cs = condition_set(3, {(1, 2): 6, (2, 3): 10})
        w = find_cover(cs)
        special = [(p, local_factor(local_view(cs, p, w))) for p in relevant_primes(cs)]
        self.assert_naive_bits_on_1_2_3_threads(monkeypatch, generic_factor_polynomial(cs), cutoff, special)

    def test_cpu_count_without_affinity(self, monkeypatch):
        # where os has no sched_getaffinity (macOS, Windows) the CPUs are counted
        poly = FactorPolynomial((1, 0, -3, 2))  # Toth k=3
        value, largest, exact = density._euler_product(poly, 3 * 10**6 + 1, [])  # 3 segments
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for cpus, n in ((None, 1), (1, 1), (4, 4)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert density._available_cpus() == n
            again = density._euler_product(poly, 3 * 10**6 + 1, [])
            assert (again[0].hex(), again[1], again[2]) == (value.hex(), largest, exact)

    def test_wholly_skipped_segments(self, monkeypatch):
        # 16-wide segments, two of them made of special primes only
        monkeypatch.setattr(primes, "_BLOCK_SIZE", 16)
        poly = FactorPolynomial((1, 0, -3, 2))  # Toth k=3
        plan = primes.SievePlan(3000)
        whole = [int(p) for lo in plan.starts[3:5] for p in primes.sieve_segment(plan, lo)]
        special = [(p, Fraction(p - 1, p)) for p in whole]
        assert len(plan.starts) > 100 and len(special) > 2
        self.assert_naive_bits_on_1_2_3_threads(monkeypatch, poly, 3000, special)

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        self.use_threads(monkeypatch, 2)
        exact_sum = density._exact_sum

        def failing_in_workers(x):
            if threading.current_thread() is not threading.main_thread():
                raise ZeroDivisionError("worker fold")
            return exact_sum(x)

        monkeypatch.setattr(density, "_exact_sum", failing_in_workers)
        baseline = threading.active_count()
        with pytest.raises(ZeroDivisionError, match="worker fold"):
            toth_pairwise_constant(3, 10**7)
        assert threading.active_count() == baseline

    def test_warning_turned_error_in_a_worker_reaches_the_caller(self, monkeypatch):
        # roots at t = 1/(2*10^6) and 1/(1.1*10^6), and c1 = 0: the polynomial is
        # negative only in the second of the three segments to 3*10^6, which is
        # the worker's, so only the worker takes the log of a negative value
        poly = FactorPolynomial((1, 0, -7_410_000_000_000, 6_820_000_000_000_000_000))
        self.use_threads(monkeypatch, 2)
        baseline = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="invalid value"):
                density._euler_product(poly, 3 * 10**6)
        assert threading.active_count() == baseline

    def test_workers_keep_the_callers_errstate(self, monkeypatch):
        # the serial loop honours the caller's np.errstate, so the workers must too
        poly = FactorPolynomial((1, 0, -7_410_000_000_000, 6_820_000_000_000_000_000))
        self.use_threads(monkeypatch, 2)
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("error", RuntimeWarning)
            value, _, _ = density._euler_product(poly, 3 * 10**6)
        assert np.isnan(value)

    def test_caller_exception_stops_and_joins_the_workers(self, monkeypatch):
        self.use_threads(monkeypatch, 2)
        plan = primes.SievePlan(10**7)
        worker_began = threading.Event()
        worker_folds = []

        def fold(block):
            if threading.current_thread() is threading.main_thread():
                worker_began.wait(10)
                raise KeyboardInterrupt
            worker_folds.append(block.size)
            worker_began.set()
            time.sleep(0.05)  # the caller raises meanwhile
            return block.size

        baseline = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            density._map_segments(plan, fold)
        assert threading.active_count() == baseline
        assert 1 <= len(worker_folds) < len(plan.starts) // 2

    def test_interrupt_while_joining_stops_and_joins_the_workers(self, monkeypatch):
        # the caller has folded its own segments and waits for the worker
        self.use_threads(monkeypatch, 2)
        plan = primes.SievePlan(10**7)
        worker_began = threading.Event()
        worker_folds = []

        class InterruptedJoin(threading.Thread):
            interrupted = False

            def join(self, timeout=None):
                if not InterruptedJoin.interrupted:
                    InterruptedJoin.interrupted = True
                    worker_began.wait(10)
                    raise KeyboardInterrupt
                super().join(timeout)

        def fold(block):
            if threading.current_thread() is not threading.main_thread():
                worker_folds.append(block.size)
                worker_began.set()
                time.sleep(0.05)  # the caller's join is interrupted meanwhile
            return block.size

        monkeypatch.setattr(threading, "Thread", InterruptedJoin)
        baseline = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            density._map_segments(plan, fold)
        assert threading.active_count() == baseline
        assert 1 <= len(worker_folds) < len(plan.starts) // 2

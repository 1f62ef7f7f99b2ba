"""Local factors, the shared polynomial, and the truncated Euler product."""

import itertools
import random
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
from gcdcensus import density
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

    def test_residual_cover_above_limit_rejected(self):
        # complete pairwise k=26: the greedy cover keeps 25 indices at p=2
        cs = condition_set(26, {t: 1 for t in itertools.combinations(range(1, 27), 2)})
        view = local_view(cs, 2, find_cover(cs))
        assert len(view.w_p) == 25
        with pytest.raises(ResourceLimitError, match="cover of size 25 exceeds"):
            local_factor(view)

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
        poly = generic_factor_polynomial(condition_set(2, {(1, 2): 1}), {1})
        assert poly.coefficients == (1, 0, -1)

    def test_path_of_two_pairs(self):
        poly = generic_factor_polynomial(condition_set(3, {(1, 2): 1, (2, 3): 1}), {2})
        assert poly.coefficients == (1, 0, -2, 1)

    def test_empty_system(self):
        poly = generic_factor_polynomial(ConditionSet(2), frozenset())
        assert poly.coefficients == (1,)

    def test_rejects_non_cover(self):
        with pytest.raises(ValueError):
            generic_factor_polynomial(condition_set(2, {(1, 2): 1}), set())

    def test_invariants_enforced(self):
        with pytest.raises(AssertionError):
            FactorPolynomial((2, 0, 1))
        with pytest.raises(AssertionError):
            FactorPolynomial((1, 1))

    @given(admissible_condition_sets(max_k=4, max_base=20))
    @settings(max_examples=40, deadline=None)
    def test_structure_and_local_agreement_off_support(self, cs):
        w = find_cover(cs)
        poly = generic_factor_polynomial(cs, w)
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
        cs = condition_set(3, {(1, 2): 1, (2, 3): 1})
        a = generic_factor_polynomial(cs, {2})
        b = generic_factor_polynomial(cs, {1, 3})
        assert a.coefficients == b.coefficients

    def test_path_k40_matches_independent_set_count(self):
        # consecutive-coprime 40-tuples: a path has C(41 - j, j) independent
        # sets of size j, and each contributes t^j (1-t)^(40-j)
        cs = condition_set(40, {(i, i + 1): 1 for i in range(1, 40)})
        w = find_cover(cs)
        assert len(w) == 20
        coeffs = [0] * 41
        for j in range(21):
            for i in range(41 - j):
                coeffs[j + i] += comb(41 - j, j) * comb(40 - j, i) * (-1) ** i
        assert generic_factor_polynomial(cs, w) == FactorPolynomial(tuple(coeffs))


class TestSubsetHistogramKernel:
    """The vectorized subset sums against the one-subset-at-a-time loops."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        # four masks per chunk, so every cover of three or more indices
        # crosses chunk boundaries
        monkeypatch.setattr(density, "_CHUNK", 4)

    @staticmethod
    def covers(cs):
        return find_cover(cs), frozenset(range(1, cs.k + 1)) - isolated_indices(cs)

    def assert_matches_loops(self, cs, primes):
        for w in self.covers(cs):
            assert generic_factor_polynomial(cs, w) == naive_factor_polynomial(cs, w)
            for p in primes:
                view = local_view(cs, p, w)
                assert local_factor(view) == naive_local_factor(view)

    def test_random_systems(self):
        rng = random.Random(20261017)
        for _ in range(60):
            cs = random_admissible(rng, max_k=9, max_base=40)
            self.assert_matches_loops(cs, relevant_primes(cs) + (2, 7))

    def test_cover_containing_index_64(self):
        cs = condition_set(
            64, {(1, 64): 1, (33, 64): 1, (63, 64): 2, (62, 63, 64): 1, (40, 41): 3}
        )
        assert all(64 in w for w in self.covers(cs))
        self.assert_matches_loops(cs, (2, 3, 5))

    def test_pinned_cascade_at_two(self):
        cs = condition_set(5, {(1, 2, 3): 1, (3, 4): 2, (4, 5): 4})
        self.assert_matches_loops(cs, (2,))


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

    def test_oversize_cover_rejected(self):
        cs = condition_set(30, {(i, j): 1 for i in range(1, 31) for j in range(i + 1, 31)})
        with pytest.raises(ResourceLimitError):
            constant(cs, prime_cutoff=10**4)

    def test_prime_cutoff_above_limit_rejected_before_sieving(self, monkeypatch):
        def no_sieve(limit):
            raise AssertionError(f"sieved to {limit}")

        monkeypatch.setattr(density, "prime_blocks", no_sieve)
        monkeypatch.setattr(density, "primes_up_to", no_sieve)
        with pytest.raises(ResourceLimitError, match=str(MAX_PRIME_CUTOFF)):
            constant(condition_set(2, {(1, 2): 1}), prime_cutoff=MAX_PRIME_CUTOFF + 1)

    def test_result_carries_cover_and_tail_constant(self):
        cs = condition_set(3, {(1, 2): 6, (2, 3): 10})
        res = constant(cs, prime_cutoff=10**4)
        assert res.cover == find_cover(cs)
        assert res.tail_constant == generic_factor_polynomial(cs, res.cover).tail_constant

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
            assert generic_factor_polynomial(cs, w1) == generic_factor_polynomial(cs, w2)
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
        def no_sieve(limit):
            raise AssertionError(f"sieved to {limit}")

        monkeypatch.setattr(density, "prime_blocks", no_sieve)
        monkeypatch.setattr(density, "primes_up_to", no_sieve)
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

    @pytest.mark.parametrize("cutoff", [2, 30, 10**4, 3 * 10**6])
    def test_pinned_cascade_with_special_factors(self, cutoff):
        cs = condition_set(5, {(1, 2, 3): 1, (3, 4): 2, (4, 5): 4})
        w = find_cover(cs)
        special = [(p, local_factor(local_view(cs, p, w))) for p in relevant_primes(cs)]
        self.assert_same_bits(generic_factor_polynomial(cs, w), cutoff, special)

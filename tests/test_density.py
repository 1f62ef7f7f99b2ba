"""Local factors, the shared polynomial, and the Euler product: its exact
head and prime-zeta tail, against the truncated product's old certificate
and an mpmath reference."""

import itertools
import json
import random
import time
from fractions import Fraction
from math import comb, exp, fsum, log1p, pi

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
from gcdcensus.density import FactorPolynomial
from gcdcensus.primes import primes_up_to

from helpers import (
    admissible_condition_sets,
    fresh_python,
    mpmath_euler_product,
    mpmath_tail,
    naive_euler_product,
    naive_factor_polynomial,
    naive_local_factor,
    random_admissible,
    valuation_probability,
)

ZETA2 = pi**2 / 6
# README's system: value, lower and upper as float.hex, and the head's last prime
PINNED = ("0x1.2c4e7abecbf1fp-13", "0x1.2c4e7abecbf1fp-13", "0x1.2c4e7abecbf20p-13", 997)
PINNED_TOTH8 = "0x1.2d91f3c1a4629p-10"
PINNED_RWISE63 = "0x1.911edaee3dd3fp-3"
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
            trace = dict(constant(cs).factor_trace)
            for p in relevant_primes(cs):
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

    def test_target_prime_beyond_the_head_enters_exactly(self):
        # the head stops at 47 or at 997; either way 101's exact factor is used
        cs = condition_set(2, {(1, 2): 101})
        short, long = constant(cs, prime_cutoff=50), constant(cs, prime_cutoff=1000)
        assert (short.prime_cutoff, long.prime_cutoff) == (47, 997)
        assert dict(short.factor_trace)[101] == dict(long.factor_trace)[101] == Fraction(101**2 - 1, 101**4)
        assert max(short.lower, long.lower) <= min(short.upper, long.upper)
        assert short.value == pytest.approx(long.value, rel=1e-15, abs=0)

    def test_cutoff_below_tail_constant_rejected(self):
        # 1 - t^2: R = 2, and a head to 3 is below 2R = 4
        with pytest.raises(CutoffTooSmallError, match="below 2R = 4"):
            constant(condition_set(2, {(1, 2): 1}), prime_cutoff=3)
        assert constant(condition_set(2, {(1, 2): 1}), prime_cutoff=6).prime_cutoff == 5

    @pytest.mark.parametrize("cutoff", [1, 0, -5])
    def test_cutoff_below_two_is_a_value_error(self, cutoff):
        cs = condition_set(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        for call in (
            lambda: constant(cs, cutoff),
            lambda: toth_pairwise_constant(3, cutoff),
            lambda: rwise_constant(3, 2, cutoff),
        ):
            with pytest.raises(ValueError, match=f"prime cutoff must be >= 2, got {cutoff}") as exc:
                call()
            assert type(exc.value) is ValueError  # not CutoffTooSmallError, which exits 3

    def test_over_state_cap_rejected_in_bounded_time(self):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=f"{density.MAX_STATES}-state cap"):
            constant(OVER_CAP, prime_cutoff=10**4)
        assert time.perf_counter() - start < 5

    def test_complete_pairwise_k30_needs_cutoff_2r(self):
        # C is about 1.5e10, far past any cutoff the truncated product could
        # sieve to, but 2R = 4 max |c_j|^(1/j) is below 1000
        cs = condition_set(30, {(i, j): 1 for i in range(1, 31) for j in range(i + 1, 31)})
        coeffs = generic_factor_polynomial(cs).coefficients
        two_r = 4 * max(abs(c) ** (1 / j) for j, c in enumerate(coeffs[2:], 2))
        assert 50 < two_r < 1000
        with pytest.raises(CutoffTooSmallError, match=f"below 2R = {two_r:.6g}"):
            constant(cs, prime_cutoff=50)
        res = constant(cs, prime_cutoff=10**4)
        assert 0 < res.lower <= res.value <= res.upper and res.upper - res.lower < 1e-15 * res.value

    def test_25_disjoint_pairs_match_toth_power(self):
        # A cover of 25 indices, whose factor polynomial is (1-t^2)^25.  The
        # value and the oracle each carry about one rounding to a float, the
        # oracle's 25th power at most 25 more units of 2^-53.
        cs = condition_set(50, {(2 * i - 1, 2 * i): 1 for i in range(1, 26)})
        res = constant(cs, prime_cutoff=10**8)
        oracle = toth_pairwise_constant(2, 10**8) ** 25
        assert res.value == pytest.approx(oracle, rel=30 * 2.0**-53, abs=0)
        assert res.lower <= res.value <= res.upper and res.upper - res.lower < 1e-15 * res.value

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

    def test_closed_forms_refuse_a_head_below_2r(self):
        # Toth k=2 is 1 - t^2, with 2R = 4: a head to 3 is refused, one to 5 is not
        with pytest.raises(CutoffTooSmallError, match="below 2R = 4"):
            toth_pairwise_constant(2, 3)
        with pytest.raises(CutoffTooSmallError, match="below 2R = 4"):
            rwise_constant(2, 2, 3)
        assert toth_pairwise_constant(2, 5) == pytest.approx(6 / pi**2, rel=1e-15, abs=0)

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
        # (1-1/p)^(k-1) (1+(k-1)/p) and (1-1/p)^k sum_{x<3} C(k,x)/(p-1)^x over
        # p <= 10^4, taken through log1p, do not.  mpmath completes them past 10^4.
        pytest.importorskip("mpmath")
        ps = primes_up_to(10**4)
        toth = fsum((k - 1) * log1p(-1 / p) + log1p((k - 1) / p) for p in ps)
        rwise = fsum(k * log1p(-1 / p) + log1p(sum(comb(k, x) / (p - 1) ** x for x in range(1, 3))) for p in ps)
        toth_poly, rwise_poly = FactorPolynomial(pairwise_coefficients(k)), FactorPolynomial(rwise_coefficients(k, 3))
        assert toth_pairwise_constant(k) == pytest.approx(
            exp(toth) * float(mpmath_tail(toth_poly.coefficients, 10**4)), rel=1e-12, abs=0
        )
        assert rwise_constant(k, 3) == pytest.approx(
            exp(rwise) * float(mpmath_tail(rwise_poly.coefficients, 10**4)), rel=1e-12, abs=0
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            toth_pairwise_constant(1)
        with pytest.raises(ValueError):
            rwise_constant(3, 4)
        with pytest.raises(ValueError):
            rwise_constant(3, 1)


def head_end(cutoff):
    return primes_up_to(min(cutoff, 1000))[-1]


def below_2r(poly, h):
    # h < 2R = 4 max |c_j|^(1/j), in exact integers
    return any(h**j < 4**j * abs(c) for j, c in enumerate(poly.coefficients[2:], 2))


class TestEulerProductKernels:
    """_euler_product must not depend on where its head stops, past 2R."""

    @staticmethod
    def assert_split_free(poly, cutoff, special=()):
        h = head_end(cutoff)
        if below_2r(poly, h):
            with pytest.raises(CutoffTooSmallError, match="below 2R"):
                density._euler_product(poly, cutoff, special)
            return
        value, lower, upper, largest, exact = density._euler_product(poly, cutoff, special)
        ref_value, ref_lower, ref_upper, _, _ = density._euler_product(poly, 10**8, special)
        assert largest == h
        assert set(exact) == {p for p in primes_up_to(min(h, 49))} | {p for p, _ in special}
        assert lower <= value <= upper and max(lower, ref_lower) <= min(upper, ref_upper)
        assert value == pytest.approx(ref_value, rel=4 * 2.0**-53, abs=0)

    @pytest.mark.parametrize("cutoff", [2, 30, 10**4, 3 * 10**6])
    def test_closed_form_polynomials(self, monkeypatch, cutoff):
        polys = []

        def recording(poly, cutoff, special=()):
            polys.append(poly)
            return 1.0, 1.0, 1.0, 0, {}

        monkeypatch.setattr(density, "_euler_product", recording)
        for k in range(2, 13):
            toth_pairwise_constant(k, cutoff)
            for r in range(2, k + 1):
                rwise_constant(k, r, cutoff)
        monkeypatch.undo()
        assert len(polys) == 11 + 66
        for poly in dict.fromkeys(polys):  # Toth k equals r-wise (k, 2)
            self.assert_split_free(poly, cutoff)

    def test_bits_pinned(self):
        # absolute bits: a change that moves the values at every split alike
        # passes the oracle above, but not this
        cs = condition_set(3, {(1, 2): 6, (2, 3): 10})
        res = constant(cs, 10**6)
        assert (res.value.hex(), res.lower.hex(), res.upper.hex(), res.prime_cutoff) == PINNED
        assert constant(cs, 3 * 10**6 + 1).value.hex() == PINNED[0]  # the head stops at 997 either way
        assert toth_pairwise_constant(8, 3 * 10**6 + 1).hex() == PINNED_TOTH8
        assert rwise_constant(6, 3, 10**6).hex() == PINNED_RWISE63

    @pytest.mark.parametrize("cutoff", [2, 30, 10**4, 3 * 10**6])
    def test_pinned_cascade_with_special_factors(self, cutoff):
        cs = condition_set(5, {(1, 2, 3): 1, (3, 4): 2, (4, 5): 4})
        w = find_cover(cs)
        special = [(p, local_factor(local_view(cs, p, w))) for p in relevant_primes(cs)]
        self.assert_split_free(generic_factor_polynomial(cs), cutoff, special)


def pairwise_system(k):
    return condition_set(k, {t: 1 for t in itertools.combinations(range(1, k + 1), 2)})


# 22 indices: a path, chords i ~ i + 7, three 3-sets, and targets 6, 10 and 15
SPARSE_WIDE = condition_set(
    22,
    {
        **{(i, i + 1): 1 for i in range(1, 22)},
        **{(i, i + 7): 1 for i in range(1, 16)},
        (1, 9, 20): 1,
        (4, 12, 18): 1,
        (2, 13, 21): 1,
        (5, 6): 6,
        (10, 11): 10,
        (15, 16): 15,
    },
)

SYSTEMS = {
    "readme": condition_set(3, {(1, 2): 6, (2, 3): 10}),
    **{f"pairwise-k{k}": pairwise_system(k) for k in (3, 8, 25, 64)},
    "path-k40": condition_set(40, {(i, i + 1): 1 for i in range(1, 40)}),
    "star-k20": condition_set(20, {(1, j): 1 for j in range(2, 21)}),
    "4-wise-k14": condition_set(14, {t: 1 for t in itertools.combinations(range(1, 15), 4)}),
    "sparse-wide": SPARSE_WIDE,
}


def target_factors(cs):
    w = find_cover(cs)
    return [(p, local_factor(local_view(cs, p, w))) for p in relevant_primes(cs)]


class TestCompletedProduct:
    """The head times the prime-zeta tail, against references that share no
    code with it: mpmath's series and prime zeta function, and the truncated
    product's certificate."""

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_interval_holds_the_mpmath_reference(self, name):
        pytest.importorskip("mpmath")
        cs = SYSTEMS[name]
        res = constant(cs)
        reference = mpmath_euler_product(generic_factor_polynomial(cs).coefficients, target_factors(cs))
        assert res.lower <= reference <= res.upper
        assert res.upper - res.lower < (1e-12 if name == "readme" else 1e-10) * res.value

    @pytest.mark.parametrize("P", [10**4, 10**5, 10**6])
    def test_value_inside_the_truncated_products_certificate(self, P):
        # the truncated product at P was certified to within exp(+-2C/P) when 2C <= P
        checked = 0
        for cs in [*SYSTEMS.values(), condition_set(2, {(1, 2): 1}), condition_set(5, {(1, 2, 3): 1, (3, 4): 2, (4, 5): 4})]:
            poly = generic_factor_polynomial(cs)
            slack = 2 * poly.tail_constant / P
            if slack > 1:
                continue
            truncated = naive_euler_product(poly, P, target_factors(cs))
            assert truncated * exp(-slack) <= constant(cs).value <= truncated * exp(slack)
            checked += 1
        assert checked >= 4

    def test_wide_systems_answered_at_the_default_cutoff(self):
        for name in ("pairwise-k25", "pairwise-k64", "path-k40", "star-k20"):
            res = constant(SYSTEMS[name])
            assert res.prime_cutoff == 997
            assert 0 < res.lower <= res.value <= res.upper < res.lower * (1 + 1e-15)

    @pytest.mark.parametrize("cutoff", [density.DEFAULT_PRIME_CUTOFF, 10**8])
    def test_constant_equals_the_closed_forms_bit_for_bit(self, cutoff):
        for k in range(2, 65):
            assert constant(pairwise_system(k), cutoff).value == toth_pairwise_constant(k, cutoff)
        for k, r in [(3, 3), (4, 3), (5, 3), (6, 4), (8, 3), (10, 5), (12, 3), (12, 12)]:
            cs = condition_set(k, {t: 1 for t in itertools.combinations(range(1, k + 1), r)})
            assert constant(cs, cutoff).value == rwise_constant(k, r, cutoff)

    @pytest.mark.parametrize("k", [2, 3, 8, 64])
    def test_log_series_of_toth_polynomials(self, k):
        # (1-t)^(k-1) (1 + (k-1) t) has roots 1 (k-1 times) and -1/(k-1), so
        # j a_j = -(k-1) - (-(k-1))^j
        ja = density._log_series(pairwise_coefficients(k), 40)
        assert ja[2:] == [-(k - 1) - (1 - k) ** j for j in range(2, 40)]

    @pytest.mark.parametrize("name", ["readme", "pairwise-k64", "4-wise-k14"])
    def test_exponents_invert_to_the_log_series(self, name):
        # e_n = sum_{j|n} mu(n/j) j a_j inverts back: sum_{n|J} e_n = J a_J
        terms = 40
        ja = density._log_series(generic_factor_polynomial(SYSTEMS[name]).coefficients, terms)
        e = density._exponents(ja, terms - 1)
        assert any(e)
        for J in range(1, terms):
            assert sum(e[n] for n in range(1, J + 1) if J % n == 0) == ja[J]

    def test_zeta_values(self):
        mpmath = pytest.importorskip("mpmath")
        from decimal import Decimal, localcontext

        n = 80  # Borwein's terms: 6 (3+sqrt 8)^-80 < 10^-60
        with localcontext() as ctx, mpmath.workdps(100):
            ctx.prec = 60
            weights = density._zeta_weights(n)
            # about 3n roundings of at most 10^(1-60) on terms at most 1 in size
            bound = 6 * (3 + mpmath.sqrt(8)) ** -n + 3 * n * mpmath.mpf(10) ** (1 - 60)
            for s in (2, 3, 4, 7, 20, 45, 80):
                got = density._zeta(s, weights, Decimal(10) ** -60)
                assert abs(mpmath.mpf(str(got)) - mpmath.zeta(s)) < bound


# Eight threads behind a barrier, switching every microsecond, take the
# Euler product of complete pairwise k=64 at once; then README's constant.
RACE = """
import json, sys, threading
from gcdcensus import condition_set, constant, toth_pairwise_constant
sys.setswitchinterval(1e-6)
barrier, found = threading.Barrier(8), []
def work():
    barrier.wait()
    found.append(toth_pairwise_constant(64).hex())
threads = [threading.Thread(target=work) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join()
r = constant(condition_set(3, {(1, 2): 6, (2, 3): 10}))
print(json.dumps([found, [r.value.hex(), r.lower.hex(), r.upper.hex(), r.prime_cutoff]]))
"""


def test_concurrent_callers_share_no_state():
    # a module-level table grown on demand (the Bernoulli numbers of an earlier
    # zeta) was corrupted in about one fresh interpreter in four; ten, each
    # starting from nothing, saw it in three runs of four
    expected = toth_pairwise_constant(64).hex()
    for _ in range(10):  # one at a time: beside each other they collide less often
        run = fresh_python(RACE)
        assert run.returncode == 0, run.stderr
        found, readme = json.loads(run.stdout)
        assert found == [expected] * 8
        assert tuple(readme) == PINNED

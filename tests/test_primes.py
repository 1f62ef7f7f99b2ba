"""The stdlib sieve, primality, factorization and the Mobius table, against trial division."""

from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdcensus import primes
from gcdcensus.primes import factorize, is_prime, primes_up_to

SMALL = primes_up_to(1000)
ABOVE_TRIAL_LIMIT = [p for p in primes_up_to(10**6 + 1000) if p > 10**6]


def trial_primes(n: int) -> list[int]:
    return [m for m in range(2, n + 1) if all(m % d for d in range(2, isqrt(m) + 1))]


def trial_factorization(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_is_prime_matches_trial_division():
    assert [n for n in range(401) if is_prime(n)] == trial_primes(400)


@given(
    st.dictionaries(st.sampled_from(SMALL), st.integers(1, 3), max_size=4),
    st.sampled_from([1] + ABOVE_TRIAL_LIMIT),
)
@settings(max_examples=100)
def test_factorize_matches_trial_division(small, cofactor):
    # repeated small factors found by trial division below a cofactor above 10^6
    n = cofactor * prod(p**e for p, e in small.items())
    assert factorize(n) == trial_factorization(n)


def test_factorize_large_cofactors():
    # cofactors with no factor below 10^6 go to Pollard's rho
    assert factorize(1000003 * 1000033) == {1000003: 1, 1000033: 1}
    assert factorize(7**3 * 1000003**2) == {7: 3, 1000003: 2}
    assert factorize(2 * (2**61 - 1)) == {2: 1, 2**61 - 1: 1}


@pytest.mark.parametrize(
    "n",
    [
        997 * 1000000000039,  # last base prime of the trial sieve, prime cofactor above 10^12
        1009 * 1000000000039,  # first prime of its segment above the base primes
        999983**2,  # p * p == n: the largest trial divisor must still be tried
        999983 * 1000003,
        1000003**2,
        2**60,
    ],
)
def test_factorize_at_the_trial_division_edges(n):
    assert factorize(n) == trial_factorization(n)


def test_trial_divisors_sieve_past_the_first_stage_only_on_demand(monkeypatch):
    bounds = []

    def recorded(n):
        bounds.append(n)
        return primes_up_to(n)

    monkeypatch.setattr(primes, "primes_up_to", recorded)
    # a smooth target far above 10^12 is done after the primes up to 5
    assert factorize(3 * 2**60) == {2: 60, 3: 1}
    assert bounds == [primes._FIRST_TRIAL]
    # a prime cofactor above 10^12 is trial-divided by every prime below 10^6
    bounds.clear()
    assert factorize(6 * 1000000000039) == {2: 1, 3: 1, 1000000000039: 1}
    assert bounds == [primes._FIRST_TRIAL, primes._TRIAL_LIMIT]
    assert list(primes.trial_divisors(10**13)) == primes_up_to(10**6)


def test_factorize_splits_a_32_bit_prime_off_a_1024_bit_target():
    # rho needs about 131,000 steps of budget here: more than a budget shrunk
    # by (bits/128)^2 allows at 1024 bits (65,536), less than one shrunk by
    # bits/128 (524,288)
    p = 2**32 + 15
    cofactor = 2**991 + 521
    assert is_prime(p) and is_prime(cofactor) and (p * cofactor).bit_length() == 1024
    assert factorize(p * cofactor) == {p: 1, cofactor: 1}


def test_brent_rho_backtracks_and_retries():
    # with c = 1 the batched gcd overshoots to 25 and the backtrack finds 25
    # again, so the search moves on to c = 2
    assert primes._brent_rho(25, 5) == 5


def test_nonpositive_inputs_rejected():
    with pytest.raises(ValueError, match="cannot factor 0"):
        factorize(0)


def test_primes_up_to_matches_trial_division():
    for n in range(401):
        got = primes_up_to(n)
        assert type(got) is list and all(type(p) is int for p in got)
        assert got == trial_primes(n)


def test_prime_count_to_ten_million():
    assert len(primes_up_to(10**7)) == 664_579


def test_mobius_up_to_matches_trial_division():
    # mu(n) = (-1)^(number of prime factors) when n is squarefree, 0 otherwise
    expected = [0]
    for n in range(1, 1001):
        f = trial_factorization(n)
        expected.append(0 if any(e > 1 for e in f.values()) else (-1) ** len(f))
    assert primes.mobius_up_to(1000) == expected
    assert primes.mobius_up_to(0) == [0]

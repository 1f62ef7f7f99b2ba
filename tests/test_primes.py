"""The prime sieve: one segmented sieve behind both entry points."""

from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdcensus import primes
from gcdcensus.primes import factorize, is_prime, mobius_up_to, prime_blocks, primes_up_to

SMALL = primes_up_to(1000).tolist()
ABOVE_TRIAL_LIMIT = [p for p in primes_up_to(10**6 + 1000).tolist() if p > 10**6]


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
    with pytest.raises(ValueError, match="nonnegative"):
        mobius_up_to(-1)


def test_primes_up_to_matches_trial_division():
    for n in range(401):
        got = primes_up_to(n)
        assert got.dtype == np.int64
        assert got.tolist() == trial_primes(n)


def test_blocks_concatenate_to_the_primes(monkeypatch):
    monkeypatch.setattr(primes, "_BLOCK_SIZE", 16)
    for limit in range(401):
        blocks = list(prime_blocks(limit))
        assert all(b.size and b.dtype == np.int64 for b in blocks)
        assert [int(p) for b in blocks for p in b] == trial_primes(limit)
        if limit >= 4:
            assert blocks[0].tolist() == trial_primes(isqrt(limit))
        if limit >= 64:  # more than one 16-wide segment above the base block
            assert len(blocks) > 2


def test_prime_count_to_ten_million():
    assert primes_up_to(10**7).size == 664_579


def test_segments_sit_on_the_fixed_grid():
    # the block boundaries fix every block-wise sum, so they are a contract
    limit = 3 * 10**6 + 1
    root = isqrt(limit)
    blocks = list(prime_blocks(limit))
    assert blocks[0].tolist() == trial_primes(root)
    starts = range(root + 1, limit + 1, primes._BLOCK_SIZE)
    assert len(blocks) == 1 + len(starts)
    for block, lo in zip(blocks[1:], starts):
        hi = min(lo + primes._BLOCK_SIZE, limit + 1)
        assert lo <= block[0] and block[-1] < hi
        # first and last prime of the segment, checked by Miller-Rabin
        assert not any(is_prime(n) for n in range(lo, int(block[0])))
        assert not any(is_prime(n) for n in range(int(block[-1]) + 1, hi))
        assert all(is_prime(int(p)) for p in block[[0, -1]])

"""The prime sieve: one segmented sieve behind both entry points."""

from math import isqrt

import numpy as np

from gcdcensus import primes
from gcdcensus.primes import prime_blocks, primes_up_to


def trial_primes(n: int) -> list[int]:
    return [m for m in range(2, n + 1) if all(m % d for d in range(2, isqrt(m) + 1))]


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

"""Prime machinery: sieves, deterministic primality, integer factorization.

Everything here is exact.  The Euler product in `density` consumes
millions of primes from a numpy segmented sieve over odd numbers, 3-13
presieved (Bays & Hudson, BIT 1977).  `trial_divisors` walks its primes
below 10^6 for factorization and for the inadmissibility diagnostic, which
trial-divides the quotients' lcm before it factors anything.  A cofactor left
over gets a deterministic Miller-Rabin test, then Brent's variant of Pollard's
rho; a target rho cannot split within its step budget (_RHO_STEPS up to 128
bits, then divided by bits/128, and above 1024 bits also by bits/1024) is
refused with ResourceLimitError.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Iterator

import numpy as np

from .errors import ResourceLimitError

# Trial division handles every factor below this; rho only sees larger ones.
_TRIAL_LIMIT = 10**6

# Iterations of x -> x^2 + c one rho search may spend, retries included: about
# 1.5-3 s up to 128 bits, typically enough to split off a prime factor below
# 2^40.  A step costs about 0.7 us at 128 bits, 2.6 us at 512, 5 us at 1024
# and 47 us at 4096 (2-vCPU VM): near-linear in the bit length up to 1024 bits,
# about quadratic above.  So the budget shrinks by bits/128 above 128 bits and
# by bits/1024 again above 1024, and rho refuses in 1.5-3 s at 128-4096 bits.
_RHO_STEPS = 1 << 22

# Witnesses proving primality for all n < 3_317_044_064_679_887_385_961_981.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Sieve segment length; it fixes the blocks of the bit-reproducible sums.
_BLOCK_SIZE = 1 << 20

_SMALL_PRIMES = np.array([2, 3, 5, 7, 11, 13], dtype=np.int64)
_WHEEL = np.ones(15015, dtype=bool)  # j flags 2j+1 prime to 3*5*7*11*13, over one period
for _q in _SMALL_PRIMES[1:].tolist():
    _WHEEL[(_q - 1) // 2 :: _q] = False


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as one int64 array."""
    return np.concatenate([np.empty(0, dtype=np.int64), *_segments(n)])


def prime_blocks(limit: int) -> Iterator[np.ndarray]:
    """Yield the primes <= limit as consecutive nonempty int64 arrays.

    The primes <= isqrt(limit), then those in [lo, lo + _BLOCK_SIZE) for
    lo = isqrt(limit) + 1 + j*_BLOCK_SIZE: fixed blocks, so block-wise
    reductions are reproducible, in O(_BLOCK_SIZE + sqrt(limit)) memory.
    """
    return _segments(limit)


def _segments(limit: int) -> Iterator[np.ndarray]:
    # Each segment is a slice of _WHEEL with the base primes above 13 crossed
    # off.  Base primes recurse here, so prime_blocks sees top-level calls only.
    if limit < 2:
        return
    base = primes_up_to(isqrt(limit))  # recursion ends below 4
    if base.size:
        yield base
    lo = isqrt(limit) + 1
    sieving = base[base > _SMALL_PRIMES[-1]]
    half, sieving_list = (sieving - 1) // 2, sieving.tolist()
    pattern = np.resize(_WHEEL, _WHEEL.size + min(_BLOCK_SIZE, limit + 1 - lo) // 2 + 1)
    while lo <= limit:
        hi = min(lo + _BLOCK_SIZE, limit + 1)
        a = lo // 2  # segment slot i holds the odd number 2(a + i) + 1
        segment = pattern[a % _WHEEL.size :][: hi // 2 - a].copy()
        for p, i in zip(sieving_list, ((half - a) % sieving).tolist()):
            segment[i::p] = False
        primes = np.flatnonzero(segment).astype(np.int64) * 2 + (2 * a + 1)
        if lo < 17:  # 2 and the wheel primes are not in the pattern
            primes = np.concatenate([_SMALL_PRIMES[(lo <= _SMALL_PRIMES) & (_SMALL_PRIMES < hi)], primes])
        if primes.size:
            yield primes
        lo = hi


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    Proven correct below 3.3e24 by the fixed witness set; above that the
    same witnesses make a pseudoprime astronomically unlikely, which is
    ample for the supported target range.
    """
    n = int(n)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, target_bits: int) -> int:
    """A nontrivial factor of composite n (n odd, no factor <= _TRIAL_LIMIT);
    ResourceLimitError, naming target_bits, once the step budget is spent."""
    bits = n.bit_length()
    limit = _RHO_STEPS * 128 * 1024 // (max(128, bits) * max(1024, bits))
    c, budget = 1, limit
    while True:
        y, m = 2, 128
        g = r = q = 1
        while g == 1:
            budget -= 2 * r  # r iterations to move x, at most r more to search
            if budget < 0:
                raise ResourceLimitError(
                    f"factoring a {target_bits}-bit target exceeds the {limit}-step limit on Pollard's rho"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1  # cycle degenerated; retry with the next polynomial


def trial_divisors(n: int) -> Iterator[int]:
    """The primes p <= _TRIAL_LIMIT with p * p <= n, ascending, sieved lazily."""
    for block in _segments(min(isqrt(n), _TRIAL_LIMIT)):
        yield from block.tolist()


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of a positive integer."""
    n = target = int(n)
    if n < 1:
        raise ValueError(f"cannot factor {n}; expected a positive integer")
    out: dict[int, int] = {}
    for p in trial_divisors(n):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    # remaining cofactor is prime or has no prime factor <= _TRIAL_LIMIT
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = _brent_rho(m, target.bit_length())
        stack.append(f)
        stack.append(m // f)
    return out


def mobius_up_to(n: int) -> np.ndarray:
    """The Mobius function mu(0..n) as an int8 array (mu(0) set to 0)."""
    if n < 0:
        raise ValueError("bound must be nonnegative")
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes_up_to(n):
        p = int(p)
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu

"""Prime machinery: a sieve, the Mobius function, deterministic primality,
integer factorization.

Everything here is exact and pure Python.  `primes_up_to` is a bytearray
sieve over the odd numbers, for the count's walk, the density constant's
head, the Mobius table and factorization.  `mobius_up_to` is the one Mobius
table, for `nymann_count`'s Mertens function.  `trial_divisors`
yields the primes below 10^6 for factorization and for the inadmissibility
diagnostic, which trial-divides the quotients' lcm before it factors
anything; it sieves past 1000 only if its caller asks for more.  A cofactor
left over below (10^6 + 1)^2 is prime.  A larger one is refused with
ResourceLimitError above _MAX_COFACTOR_BITS, and otherwise gets a
deterministic Miller-Rabin test, then Brent's variant of Pollard's rho; a
target rho cannot split within its step budget (_RHO_STEPS up to 128 bits,
then divided by bits/128, and above 1024 bits also by bits/1024) is refused
with ResourceLimitError.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt
from typing import Iterator

from .errors import ResourceLimitError

# Trial division handles every factor below this; rho only sees larger ones.
_TRIAL_LIMIT = 10**6
# trial_divisors sieves to this first, and to _TRIAL_LIMIT only if asked.
_FIRST_TRIAL = 1000

# Iterations of x -> x^2 + c one rho search may spend, retries included: about
# 1.5-3 s up to 128 bits, typically enough to split off a prime factor below
# 2^40.  A step costs about 0.7 us at 128 bits, 2.6 us at 512, 5 us at 1024
# and 47 us at 4096 (2-vCPU VM): near-linear in the bit length up to 1024 bits,
# about quadratic above.  So the budget shrinks by bits/128 above 128 bits and
# by bits/1024 again above 1024, and rho refuses in 1.5-3 s at 128-4096 bits
# (it sees at most _MAX_COFACTOR_BITS).
_RHO_STEPS = 1 << 22

# Largest cofactor, left after trial division, that factorize tests and splits,
# and largest prime padic.valuations tests.  The 12 Miller-Rabin rounds on a
# prime cost about the cube of its bit length: 0.31-0.34 s at 2048 bits,
# 1.05-1.18 s at 3072 and 2.7 s at 4423 (2-vCPU VM).  So a target or a listed
# prime near the 4300-digit input limit is refused, not tested for minutes.
_MAX_COFACTOR_BITS = 2048

# Witnesses proving primality for all n < 3_317_044_064_679_887_385_961_981.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

def primes_up_to(n: int) -> list[int]:
    """All primes <= n, ascending, from a bytearray sieve over the odd numbers."""
    if n < 2:
        return []
    odd = bytearray([1]) * ((n + 1) // 2)  # slot j flags 2j + 1
    odd[0] = 0
    for j in range(1, (isqrt(n) + 1) // 2):
        if odd[j]:
            p = 2 * j + 1
            first = p * p // 2
            odd[first::p] = bytes((len(odd) - 1 - first) // p + 1)
    return [2, *compress(range(1, n + 1, 2), odd)]


def mobius_up_to(n: int) -> list[int]:
    """mu(0..n) as a list, mu(0) = 0: each prime p <= n negates the entries
    at its multiples and zeroes those at the multiples of p^2."""
    mu = [0] + [1] * n
    for p in primes_up_to(n):
        mu[p::p] = [-v for v in mu[p::p]]
        mu[p * p :: p * p] = [0] * (n // (p * p))
    return mu


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
    """The primes p <= _TRIAL_LIMIT with p * p <= n, ascending, sieved lazily:
    those up to _FIRST_TRIAL first, the rest only once the caller asks."""
    root = min(isqrt(n), _TRIAL_LIMIT)
    first = primes_up_to(min(root, _FIRST_TRIAL))
    yield from first
    if root > _FIRST_TRIAL:
        yield from primes_up_to(root)[len(first) :]


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
    if n.bit_length() > _MAX_COFACTOR_BITS:
        raise ResourceLimitError(
            f"factoring a {target.bit_length()}-bit target leaves a {n.bit_length()}-bit cofactor,"
            f" above the {_MAX_COFACTOR_BITS}-bit limit"
        )
    stack = [n]
    while stack:
        m = stack.pop()
        if isqrt(m) <= _TRIAL_LIMIT or is_prime(m):  # no factor <= _TRIAL_LIMIT, so below its square a prime
            out[m] = out.get(m, 0) + 1
            continue
        f = _brent_rho(m, target.bit_length())
        stack.append(f)
        stack.append(m // f)
    return out

"""Prime machinery: sieves, deterministic primality, integer factorization.

Everything here is exact.  `primes_up_to` is a stdlib sieve over the odd
numbers, for the count's walk, `nymann_count`'s Mobius table and
factorization.  The Euler product in `density`, alone, consumes millions of
primes from a numpy segmented sieve over odd numbers, 3-13 presieved (Bays &
Hudson, BIT 1977), which imports numpy on first use.  `trial_divisors`
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

from functools import cache
from itertools import compress
from math import gcd, isqrt
from typing import TYPE_CHECKING, Iterator

from .errors import ResourceLimitError

if TYPE_CHECKING:
    import numpy as np

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

# Sieve segment length; it fixes the blocks of the bit-reproducible sums.
_BLOCK_SIZE = 1 << 20


@cache
def _wheel() -> tuple[np.ndarray, np.ndarray]:
    """The primes 2-13, and the wheel: j flags 2j+1 prime to 3*5*7*11*13, over one period."""
    import numpy as np
    small = np.array([2, 3, 5, 7, 11, 13], dtype=np.int64)
    wheel = np.ones(15015, dtype=bool)
    for q in small[1:].tolist():
        wheel[(q - 1) // 2 :: q] = False
    small.flags.writeable = wheel.flags.writeable = False  # shared by every caller
    return small, wheel


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


class SievePlan:
    """What every segment of a sieve to `limit` shares, built once: the base
    primes <= isqrt(limit), the sieving primes above 13 with their slots
    among the odd numbers, the wheel pattern, and the segment starts
    isqrt(limit) + 1 + j*_BLOCK_SIZE."""

    __slots__ = ("limit", "base", "starts", "sieving", "half", "sieving_list", "pattern")

    def __init__(self, limit: int):
        import numpy as np
        small, wheel = _wheel()
        root = isqrt(max(limit, 0))
        self.limit = limit
        self.base = np.array(primes_up_to(root), dtype=np.int64)
        self.starts = range(root + 1, limit + 1, _BLOCK_SIZE)
        self.sieving = self.base[self.base > small[-1]]
        self.half = (self.sieving - 1) // 2
        self.sieving_list = self.sieving.tolist()
        # the wheel, long enough for a segment at any phase
        self.pattern = np.resize(wheel, wheel.size + min(_BLOCK_SIZE, limit - root) // 2 + 1)


def sieve_segment(plan: SievePlan, lo: int) -> np.ndarray:
    """The primes in [lo, lo + _BLOCK_SIZE) up to plan.limit, for lo in plan.starts.

    Possibly empty.  It only reads the plan, so segments can be sieved in any
    order, on any thread: a slice of the wheel with the base primes above 13
    crossed off.
    """
    import numpy as np
    small, wheel = _wheel()
    hi = min(lo + _BLOCK_SIZE, plan.limit + 1)
    a = lo // 2  # segment slot i holds the odd number 2(a + i) + 1
    segment = plan.pattern[a % wheel.size :][: hi // 2 - a].copy()
    for p, i in zip(plan.sieving_list, ((plan.half - a) % plan.sieving).tolist()):
        segment[i::p] = False
    primes = np.flatnonzero(segment).astype(np.int64, copy=False)
    primes *= 2
    primes += 2 * a + 1
    if lo < 17:  # 2 and the wheel primes are not in the pattern
        primes = np.concatenate([small[(lo <= small) & (small < hi)], primes])
    return primes


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

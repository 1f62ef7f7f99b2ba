"""The density constant as a truncated Euler product with a certified tail.

The fraction of k-tuples in [1, x]^k satisfying an admissible condition
system tends to a product over the primes of exact local factors: the
probability that independent geometric p-adic orders meet every
condition at p.  One elimination kernel sums each factor over the index
sets holding no whole core (padic.core_masks); at the primes dividing no
target that gives a polynomial in t = 1/p with integer coefficients,
c_0 = 1 and c_1 = 0.  Target primes and primes below 50 enter the
product exactly, the rest in floats, summed exactly per sieve block
(math.fsum's value bit for bit), and the block sums by math.fsum.  Both
sums are correctly rounded from exact terms, so the order of the blocks
cannot move a bit, and the sieve segments are sieved and folded on two
threads where two CPUs are free.  Convergence is like sum 1/p^2:
truncating at P >= 2C, with C the sum of |c_j| for j >= 2, leaves at
most 2C/P in the logarithm and certifies the reported interval.
"""

from __future__ import annotations

import operator
import os
from fractions import Fraction
from math import comb, exp, fsum, log
from typing import TYPE_CHECKING, Callable, Iterable

from .admissibility import witness
from .errors import CutoffTooSmallError, ResourceLimitError
from .model import MAX_K, ConditionSet, Record, _bits
from .padic import LocalView, _orders, core_masks, relevant_primes
from .primes import SievePlan, primes_up_to, sieve_segment

if TYPE_CHECKING:
    import numpy as np

# Live states the subset sums may hold after any index: refusals took
# 0.1-0.3 s and at most 60 MB on a 2-vCPU VM.
MAX_STATES = 1 << 16

_FIELD = 64  # bits per packed count; a count of j-subsets of 64 indices is below 2^61

# The segmented sieve behind the product takes about 70 s to reach this
# (2-vCPU VM), threads or not: there the crossing loop is the work.
MAX_PRIME_CUTOFF = 10**10

# Threads folding sieve segments in _euler_product, the caller's included.
# The crossing loop in sieve_segment holds the GIL, so only the numpy part
# of a segment overlaps.  On a 2-vCPU VM two threads took _euler_product to
# 10^8 from 0.29 to 0.22 s (min of 9), and a third on the same two CPUs
# gained nothing; more than two are unmeasured.
_PRODUCT_THREADS = 2

# Primes below this get exact factors, as float poly(1/p) cancels there, and are traced.
_TRACE_LIMIT = 50

DEFAULT_PRIME_CUTOFF = 10**6


class FactorPolynomial(Record):
    """Local Euler factor shared by all primes off the target support.

    A polynomial in t = 1/p with integer coefficients c_0..c_d, d <= k;
    always c_0 = 1 and c_1 = 0, which is what makes the Euler product
    converge absolutely.
    """

    coefficients: tuple[int, ...]

    def _normalize(self):
        coeffs = tuple(operator.index(c) for c in self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)
        if not coeffs or coeffs[0] != 1:
            raise AssertionError(f"constant coefficient must be 1, got {coeffs[:1]}")
        if len(coeffs) > 1 and coeffs[1] != 0:
            raise AssertionError(f"linear coefficient must cancel, got {coeffs[1]}")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def tail_constant(self) -> int:
        """C = sum of |c_j| for j >= 2; bounds |factor - 1| by C/p^2."""
        return sum(abs(c) for c in self.coefficients[2:])

    def value_at(self, p: int) -> Fraction:
        """Exact value at t = 1/p."""
        acc = 0
        for c in self.coefficients:  # Horner in p gives p^degree times the value
            acc = acc * p + c
        return Fraction(acc, p**self.degree)

    def __call__(self, t):
        """Float value at t; accepts scalars or numpy arrays, and Horner
        over an array works in place in one new buffer."""
        acc = 0.0 * t  # broadcasts over arrays
        acc += float(self.coefficients[-1])
        for c in reversed(self.coefficients[:-1]):
            acc *= t
            acc += c
        return acc


class DensityResult(Record):
    """Truncated Euler product, its certified enclosure, the exact factors
    it used as ascending (p, factor) pairs, and the tail constant C."""

    value: float
    lower: float
    upper: float
    prime_cutoff: int
    factor_trace: tuple[tuple[int, Fraction], ...]
    tail_constant: int


def _free_subsets(cores: Iterable[int]) -> tuple[int, list[int]]:
    """(m, h): h[j] counts the j-subsets V of the m indices in the nonempty
    core bitmasks that hold no whole core.

    Sparse variable elimination: the indices are decided one at a time, in
    V or out.  A state, the bitmask of the started cores whose decided
    indices all lie in V, maps to its counts by |V| in _FIELD-bit fields of
    one int; a core closing inside V drops its state.  The frontier's part
    of V fixes the state, so the next index leaves the fewest decided ones
    sharing a core with an undecided one; ties go to the most decided
    neighbours, then the lowest index.
    """
    cores = sorted(set(cores))
    union = 0
    member = [0] * MAX_K  # per index, the cores holding it, as bits
    near = [0] * MAX_K  # per index, the other indices of those cores
    for n, c in enumerate(cores):
        union |= c
        for i in _bits(c):
            member[i] |= 1 << n
            near[i] |= c ^ 1 << i
    states = {0: 1}
    left, frontier = union, 0
    while left:
        done = union & ~left

        def rank(i: int) -> tuple[int, int, int]:
            rest = left ^ 1 << i
            stay = sum(1 for j in _bits(frontier | 1 << i) if near[j] & rest)
            return stay, -(near[i] & done).bit_count(), i

        x = min(_bits(left), key=rank)
        left ^= 1 << x
        frontier = sum(1 << i for i in _bits(frontier | 1 << x) if near[i] & left)
        opening = sum(1 << n for n in _bits(member[x]) if not cores[n] & done)
        closing = sum(1 << n for n in _bits(member[x]) if not cores[n] & left)
        out: dict[int, int] = {}
        for s, h in states.items():
            freed = s & ~member[x]  # x out of V
            out[freed] = out.get(freed, 0) + h
            s |= opening  # x in V
            if not s & closing:
                out[s] = out.get(s, 0) + (h << _FIELD)
        states = out
        if len(states) > MAX_STATES:
            raise ResourceLimitError(f"{len(states)} live states exceed the {MAX_STATES}-state cap")
    (packed,) = states.values()  # every core is closed, so one state is left
    m = union.bit_count()
    return m, [packed >> (_FIELD * j) & (1 << _FIELD) - 1 for j in range(m + 1)]


def _local_factor(p: int, total_v: int, cores: Iterable[int]) -> Fraction:
    """p^-total_v times the sum of t^|V| (1-t)^(m-|V|) over _free_subsets' V, at t = 1/p."""
    m, h = _free_subsets(cores)
    return Fraction(sum(n * (p - 1) ** (m - j) for j, n in enumerate(h)), p ** (m + total_v))


def local_factor(view: LocalView) -> Fraction:
    """Exact local factor of the density constant at view.p: the chance that
    geometric p-adic orders, each v_i plus an excess that is 0 with
    probability 1 - 1/p, leave an excess of 0 in every condition's core."""
    return _local_factor(view.p, *core_masks(view.g, view.v))


def generic_factor_polynomial(cs: ConditionSet) -> FactorPolynomial:
    """The local factor at every prime dividing no target, where the cores
    are the condition sets, expanded into a polynomial in t = 1/p."""
    m, h = _free_subsets(cs.edge_masks)
    coeffs = [0] * (m + 1)
    for j, n in enumerate(h):
        for i in range(m - j + 1):
            coeffs[j + i] += n * comb(m - j, i) * (-1) ** i
    return FactorPolynomial(tuple(coeffs))


def _log_fraction(f: Fraction) -> float:
    # float(f) is correctly rounded; math.log of the big ints never underflows
    x = float(f)
    return log(x) if x > 1e-300 else log(f.numerator) - log(f.denominator)


def _exact_sum(x: np.ndarray) -> float:
    """The correctly rounded sum of x, so math.fsum(x) bit for bit.

    Each nonzero x is m 2^(e-53) with an integer |m| < 2^53.  In exponent
    windows of 10 bits the shifted m are summed as int64 halves below 2^36,
    which cannot overflow for fewer than 2^26 terms; one Fraction rounds.
    When all of x falls in one window, as for most sieve blocks, the terms
    are shifted in place in the mantissa buffer, with no per-window copies.
    """
    import numpy as np
    if not np.isfinite(x).all():
        return float(x.sum())  # inf and nan have no exact sum; let them through
    if not x.all():
        x = x[x != 0]
    m, e = np.frexp(x)
    if not e.size:
        return 0.0
    e0 = int(e.min())
    if int(e.max()) - e0 < 10:  # one window, as for most sieve blocks
        e += 53 - e0  # each term m 2^(e-e0) is then an integer below 2^62
        np.ldexp(m, e, out=m)
        del e  # before the int64 copy, which sets the peak memory
        m = m.astype(np.int64)
        hi = int((m >> 26).sum())
        m &= 0x3FFFFFF
        total = (hi << 26) + int(m.sum())
    else:
        m = np.ldexp(m, 53, out=m).astype(np.int64)
        window, shift = np.divmod(e - e0, 10)
        total = 0
        for w in range(int(window.max()) + 1):
            ms, s = m[window == w], shift[window == w]
            hi, lo = int(((ms >> 26) << s).sum()), int(((ms & 0x3FFFFFF) << s).sum())
            total += ((hi << 26) + lo) << (10 * w)
    return float(total * Fraction(2) ** (e0 - 53))


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_segments(
    plan: SievePlan, fold: Callable[[np.ndarray], tuple[int, float]]
) -> list[tuple[int, float]]:
    """fold(sieve_segment(plan, lo)) for every lo in plan.starts, in no set order.

    Segments are dealt round-robin to the calling thread and up to
    _PRODUCT_THREADS - 1 workers.  A worker's exception is re-raised here;
    one here (Ctrl-C included) stops the workers between segments.  Every
    worker is joined before this returns.  What the workers call has run
    before they start: gcdcensus runs its modules lazily, and a lazy module
    takes no lock as it runs (primes ran with this module's imports).
    """
    starts = plan.starts
    n = max(1, min(_available_cpus(), _PRODUCT_THREADS, len(starts)))
    import contextvars
    import threading

    out: list[tuple[int, float]] = []
    errors: list[BaseException] = []
    stop = threading.Event()

    def run(first: int) -> None:
        try:
            for lo in starts[first::n]:
                if stop.is_set():
                    return
                out.append(fold(sieve_segment(plan, lo)))
        except BaseException as exc:  # stops every thread between segments
            errors.append(exc)
            stop.set()

    workers = []
    try:
        for j in range(1, n):
            # a copy of this context per worker carries numpy's errstate over
            t = threading.Thread(target=contextvars.copy_context().run, args=(run, j))
            t.start()
            workers.append(t)
        run(0)
        for t in workers:
            t.join()
    finally:  # reached early only by an interrupt outside run, as in a join
        stop.set()
        for t in workers:
            t.join()
    if errors:
        raise errors[0]
    return out


def _checked_cutoff(prime_cutoff: int) -> int:
    cutoff = operator.index(prime_cutoff)
    if cutoff > MAX_PRIME_CUTOFF:
        raise ResourceLimitError(f"prime cutoff {cutoff} exceeds the {MAX_PRIME_CUTOFF} limit")
    return cutoff


def _euler_product(
    poly: FactorPolynomial, cutoff: int, special: Iterable[tuple[int, Fraction]] = ()
) -> tuple[float, int, dict[int, Fraction]]:
    """Product of poly(1/p) over the primes p <= cutoff, with exact factors
    at the `special` (p, factor) pairs and at the other primes below
    _TRACE_LIMIT; also the largest prime <= cutoff and those exact factors.

    Each sieve block's logs are summed by `_exact_sum` (= `fsum`, bit for
    bit), then the block sums by `fsum`.  Both sums are correctly rounded
    from exact inputs, so the blocks can be folded in any order, on
    several threads (`_map_segments`): the block boundaries alone fix the
    value bit for bit, and callers with the same coefficients and cutoff
    get the same value.
    """
    import numpy as np
    exact = dict(special)
    for p in map(int, primes_up_to(min(cutoff, _TRACE_LIMIT - 1))):
        exact.setdefault(p, poly.value_at(p))
    skip = sorted(exact)

    def fold(block: np.ndarray) -> tuple[int, float]:
        # (largest prime, sum of log poly(1/p)) over a block, exact primes left out
        if not block.size:
            return 0, 0.0
        largest = int(block[-1])
        if block[0] <= skip[-1]:
            block = block[~np.isin(block, skip)]
        logs = poly(1.0 / block)
        del block  # free the primes before the sum
        return largest, _exact_sum(np.log(logs, out=logs))

    plan = SievePlan(cutoff)
    blocks = [fold(plan.base), *_map_segments(plan, fold)]
    log_blocks = [_log_fraction(f) for f in exact.values()] + [s for _, s in blocks]
    return exp(fsum(log_blocks)), max(p for p, _ in blocks), exact


def constant(cs: ConditionSet, prime_cutoff: int = DEFAULT_PRIME_CUTOFF) -> DensityResult:
    """Truncated Euler product for the density constant, with certified tail.

    Exact rational factors are used at the target primes and the primes
    below 50; every other prime up to the cutoff goes through the shared
    polynomial in float arithmetic, with the logs summed exactly per
    fixed sieve block, as math.fsum would (bit-reproducible).  The cutoff
    must reach the largest target prime and 2C for the tail bound.

    Raises InadmissibleError for systems with no solutions, and
    CutoffTooSmallError / ResourceLimitError on guard violations.
    """
    cutoff = _checked_cutoff(prime_cutoff)
    witness(cs)  # raises InadmissibleError
    poly = generic_factor_polynomial(cs)
    tail_c = poly.tail_constant
    special = relevant_primes(cs)
    if special and cutoff < special[-1]:
        raise CutoffTooSmallError(
            f"prime cutoff {cutoff} is below the largest target prime {special[-1]}"
        )
    if cutoff < 2 * tail_c:
        raise CutoffTooSmallError(
            f"prime cutoff {cutoff} is below 2C = {2 * tail_c}; the tail bound needs P >= 2C"
        )

    special_factors: list[tuple[int, Fraction]] = []
    for p in special:
        f = _local_factor(p, *core_masks(*_orders(cs, p)))
        if f <= 0:
            raise AssertionError(f"internal invariant violated: nonpositive factor at p={p}")
        special_factors.append((p, f))

    value, largest, exact = _euler_product(poly, cutoff, special_factors)
    slack = 2.0 * tail_c / cutoff if tail_c else 0.0
    return DensityResult(
        value=value,
        lower=value * exp(-slack),
        upper=value * exp(slack),
        prime_cutoff=largest,
        factor_trace=tuple(sorted(exact.items())),
        tail_constant=tail_c,
    )


def toth_pairwise_constant(k: int, prime_cutoff: int = DEFAULT_PRIME_CUTOFF) -> float:
    """Closed-form constant for the all-pairs-coprime system on k indices.

    Truncated product of (1-1/p)^(k-1) (1 + (k-1)/p), expanded into exact
    integer coefficients first; cross-validation oracle for `constant` on
    the complete pairwise system.
    """
    cutoff = _checked_cutoff(prime_cutoff)
    k = operator.index(k)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    coeffs = [0] * (k + 1)
    for j in range(k):  # (1-t)^(k-1) * (1 + (k-1) t)
        c = comb(k - 1, j) * (-1) ** j
        coeffs[j] += c
        coeffs[j + 1] += c * (k - 1)
    return _euler_product(FactorPolynomial(tuple(coeffs)), cutoff)[0]


def rwise_constant(k: int, r: int, prime_cutoff: int = DEFAULT_PRIME_CUTOFF) -> float:
    """Closed-form constant for r-wise coprimality on k indices.

    Truncated product over p of sum_{x=0}^{r-1} C(k,x) p^-x (1-1/p)^(k-x),
    expanded into exact integer coefficients first.
    """
    cutoff = _checked_cutoff(prime_cutoff)
    k = operator.index(k)
    r = operator.index(r)
    if not 2 <= r <= k:
        raise ValueError(f"need 2 <= r <= k, got r={r}, k={k}")
    coeffs = [0] * (k + 1)
    for x in range(r):
        cx = comb(k, x)
        for j in range(k - x + 1):
            coeffs[x + j] += cx * comb(k - x, j) * (-1) ** j
    return _euler_product(FactorPolynomial(tuple(coeffs)), cutoff)[0]

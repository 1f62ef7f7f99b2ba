"""The density constant as a truncated Euler product with a certified tail.

The fraction of k-tuples in [1, x]^k satisfying an admissible condition
system tends to a product over the primes of exact local factors: the
probability that independent geometric p-adic orders meet every
condition at p.  One fold over the independent subsets of a cover gives
a polynomial in t = 1/p with integer coefficients, c_0 = 1 and c_1 = 0.
On the source system it is the factor at every prime dividing no target;
on a LocalView's residual system, at t = 1/p and times the pinned
prefactor, it is the exact factor at p.  Target primes and primes below
50 enter the product exactly, the rest in floats, summed exactly per
sieve block (math.fsum's value bit for bit).  Convergence is like
sum 1/p^2: truncating at P >= 2C, with C the sum of |c_j| for j >= 2,
leaves at most 2C/P in the logarithm and certifies the reported interval.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, fsum, log
from typing import Iterable

import numpy as np

from .admissibility import witness
from .errors import CutoffTooSmallError, ResourceLimitError
from .model import ConditionSet, check_cover, find_cover
from .padic import LocalView, local_view, relevant_primes
from .primes import prime_blocks, primes_up_to

# Independent-subset sums are exponential in the cover size.
MAX_COVER = 24

# Subset masks per numpy pass of the histogram; bounds its memory.
_CHUNK = 1 << 16

# The segmented sieve behind the product takes about 55 s to reach this.
MAX_PRIME_CUTOFF = 10**10

# Primes below this get exact factors, as float poly(1/p) cancels there, and are traced.
_TRACE_LIMIT = 50

DEFAULT_PRIME_CUTOFF = 10**6


@dataclass(frozen=True)
class FactorPolynomial:
    """Local Euler factor shared by all primes off the target support.

    A polynomial in t = 1/p with integer coefficients c_0..c_d, d <= k;
    always c_0 = 1 and c_1 = 0, which is what makes the Euler product
    converge absolutely.
    """

    coefficients: tuple[int, ...]

    def __post_init__(self):
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
        """Float value at t; accepts scalars or numpy arrays."""
        acc = 0.0 * t + float(self.coefficients[-1])  # broadcasts over arrays
        for c in reversed(self.coefficients[:-1]):
            acc = acc * t + c
        return acc


@dataclass(frozen=True)
class DensityResult:
    """Truncated Euler product, its certified enclosure, the exact factors
    it used as ascending (p, factor) pairs, and the cover and C used."""

    value: float
    lower: float
    upper: float
    prime_cutoff: int
    factor_trace: tuple[tuple[int, Fraction], ...]
    cover: frozenset[int]
    tail_constant: int


def _subset_histogram(cs: ConditionSet, cover: frozenset[int]) -> dict[tuple[int, int], int]:
    """Count the independent subsets V of `cover` by (|V|, |M(V)|).

    M(V) holds the indices outside the cover that some condition leaves V
    by exactly.  A cover leaves each condition at most one outside index,
    so independence and M(V) are per-condition tests on the cover's own
    bit positions, run over all 2^|cover| masks in numpy chunks.
    """
    if len(cover) > MAX_COVER:
        raise ResourceLimitError(
            f"cover of size {len(cover)} exceeds the {MAX_COVER}-index limit on subset sums"
        )
    pos = {i: b for b, i in enumerate(sorted(cover))}
    inner: list[int] = []  # conditions lying inside the cover
    reach: dict[int, list[int]] = {}  # outside index -> inside parts of its conditions
    for c in cs.conditions:
        part = sum(1 << pos[i] for i in c.indices if i in pos)
        outside = c.indices - cover
        if outside:
            (x,) = outside  # a cover leaves at most one
            reach.setdefault(x, []).append(part)
        else:
            inner.append(part)
    n, width = len(pos), len(reach) + 1
    counts = np.zeros((n + 1) * width, dtype=np.int64)
    for lo in range(0, 1 << n, _CHUNK):
        masks = np.arange(lo, min(lo + _CHUNK, 1 << n), dtype=np.int64)
        free = np.ones(masks.size, dtype=bool)
        for part in inner:
            free &= (masks & part) != part
        masks = masks[free]
        sizes = sum(((masks >> b) & 1 for b in range(n)), np.zeros_like(masks))
        key = sizes * width
        for parts in reach.values():
            hit = np.zeros(masks.size, dtype=bool)
            for part in parts:
                hit |= (masks & part) == part
            key += hit
        counts += np.bincount(key, minlength=counts.size)
    return {divmod(i, width): int(c) for i, c in enumerate(counts) if c}


def _fold(cs: ConditionSet, w: frozenset[int]) -> FactorPolynomial:
    """Sum of t^|V| (1-t)^(|w| - |V| + |M(V)|) over independent subsets V of w."""
    coeffs = [0] * (cs.k + 1)
    for (size, outside), count in _subset_histogram(cs, w).items():
        e = len(w) - size + outside
        for j in range(e + 1):
            coeffs[size + j] += count * comb(e, j) * (-1) ** j
    return FactorPolynomial(tuple(coeffs))


def local_factor(view: LocalView) -> Fraction:
    """Exact local factor of the density constant at view.p.

    The residual system's factor polynomial over w_p at t = 1/p, times the
    pinned prefactor (1-1/p)^{|z_set|} p^{-sum v}: exactly the probability
    that independent geometric p-adic orders (order a with probability
    (1-1/p) p^-a) satisfy every condition at p.
    """
    p = view.p
    residual = _fold(view.reduced, view.w_p).value_at(p)
    return residual * Fraction(p - 1, p) ** len(view.z_set) / Fraction(p) ** sum(view.v.values())


def generic_factor_polynomial(cs: ConditionSet, cover: Iterable[int]) -> FactorPolynomial:
    """Expand the shared local factor sum into a polynomial in t = 1/p.

    Valid verbatim at every prime not dividing any target, where pinning
    and reduction are trivial.  The cover must avoid isolated indices.
    """
    return _fold(cs, check_cover(cs, cover))


def _log_fraction(f: Fraction) -> float:
    # float(f) is correctly rounded; math.log of the big ints never underflows
    x = float(f)
    return log(x) if x > 1e-300 else log(f.numerator) - log(f.denominator)


def _exact_sum(x: np.ndarray) -> float:
    """The correctly rounded sum of x, so math.fsum(x) bit for bit.

    Each nonzero x is m 2^(e-53) with an integer |m| < 2^53.  In exponent
    windows of 10 bits the shifted m are summed as int64 halves below 2^36,
    which cannot overflow for fewer than 2^26 terms; one Fraction rounds.
    """
    if not np.isfinite(x).all():
        return float(x.sum())  # inf and nan have no exact sum; let them through
    m, e = np.frexp(x[x != 0])
    if not e.size:
        return 0.0
    m = np.ldexp(m, 53).astype(np.int64)
    e0 = int(e.min())
    window, shift = np.divmod(e - e0, 10)
    total = 0
    for w in range(int(window.max()) + 1):
        ms, s = m[window == w], shift[window == w]
        hi, lo = int(((ms >> 26) << s).sum()), int(((ms & 0x3FFFFFF) << s).sum())
        total += ((hi << 26) + lo) << (10 * w)
    return float(total * Fraction(2) ** (e0 - 53))


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

    Logs are summed by `_exact_sum` (= `fsum`, bit for bit) per sieve
    block, then by `fsum` over blocks, so the block boundaries fix the
    value bit for bit: callers with the same coefficients and cutoff get
    the same value.
    """
    exact = dict(special)
    for p in map(int, primes_up_to(min(cutoff, _TRACE_LIMIT - 1))):
        exact.setdefault(p, poly.value_at(p))
    skip = sorted(exact)
    log_blocks = [_log_fraction(f) for f in exact.values()]
    largest = 0
    for block in prime_blocks(cutoff):
        largest = int(block[-1])
        if block[0] <= skip[-1]:
            block = block[~np.isin(block, skip)]
            if block.size == 0:
                continue
        log_blocks.append(_exact_sum(np.log(poly(1.0 / block))))
    return exp(fsum(log_blocks)), largest, exact


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
    w = find_cover(cs)
    poly = generic_factor_polynomial(cs, w)
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
        f = local_factor(local_view(cs, p, w))
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
        cover=w,
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

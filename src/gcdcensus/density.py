"""The density constant as a truncated Euler product with a certified tail.

The fraction of k-tuples in [1, x]^k satisfying an admissible condition
system tends to a constant: a product over all primes of exact rational
local factors.  Each local factor is the probability that independent
geometrically-distributed p-adic orders meet every condition at p, and is
evaluated from a per-prime LocalView by summing over independent subsets
of the residual cover.

All but the finitely many primes dividing some target share one
polynomial in t = 1/p with integer coefficients, whose constant term is 1
and whose linear term cancels; the product therefore converges like
sum 1/p^2.  Truncating at P >= 2C, where C is the sum of |c_j| for
j >= 2, leaves at most 2C/P in the logarithm, which certifies the
enclosing interval reported alongside the value.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, fsum, log
from typing import Iterable, Sequence

import numpy as np

from .admissibility import is_admissible
from .errors import CutoffTooSmallError, InadmissibleError, ResourceLimitError
from .model import ConditionSet, find_cover, is_cover, isolated_indices
from .padic import LocalView, local_view, relevant_primes
from .primes import prime_blocks, primes_up_to

# Independent-subset sums are exponential in the cover size.
MAX_COVER = 24

# Subset masks per numpy pass of the histogram; bounds its memory.
_CHUNK = 1 << 16

# The segmented sieve behind the product takes about 100 s to reach this.
MAX_PRIME_CUTOFF = 10**10

# Primes below this are listed in the optional factor trace.
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
        t = Fraction(1, p)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc

    def __call__(self, t):
        """Float value at t; accepts scalars or numpy arrays."""
        acc = 0.0 * t + float(self.coefficients[-1])  # broadcasts over arrays
        for c in reversed(self.coefficients[:-1]):
            acc = acc * t + c
        return acc


@dataclass(frozen=True)
class DensityResult:
    """Truncated Euler product, its certified enclosure, and the cover and C used."""

    value: float
    lower: float
    upper: float
    prime_cutoff: int
    factor_trace: tuple[tuple[int, Fraction], ...] | None = None
    cover: frozenset[int] = frozenset()
    tail_constant: int = 0


def _check_cover(cs: ConditionSet, cover: Iterable[int]) -> frozenset[int]:
    w = frozenset(cover)
    if not is_cover(cs, w):
        raise ValueError(f"{sorted(w)} is not a cover of the condition system")
    iso = w & isolated_indices(cs)
    if iso:
        raise ValueError(f"cover must exclude isolated indices, found {sorted(iso)}")
    if len(w) > MAX_COVER:
        raise ResourceLimitError(
            f"cover of size {len(w)} exceeds the {MAX_COVER}-index limit on subset sums"
        )
    return w


def _subset_histogram(cs: ConditionSet, cover: frozenset[int]) -> dict[tuple[int, int], int]:
    """Count the independent subsets V of `cover` by (|V|, |M(V)|).

    M(V) holds the indices outside the cover that some condition leaves V
    by exactly.  A cover leaves each condition at most one outside index,
    so independence and M(V) are per-condition tests on the cover's own
    bit positions, run over all 2^|cover| masks in numpy chunks.
    """
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


def local_factor(view: LocalView) -> Fraction:
    """Exact local factor of the density constant at view.p.

    Equals p^{-sum v} times the sum, over independent subsets V of w_p in
    the residual system, of p^{-|V|} (1-1/p)^{|w_p| - |V| + |M(V)| + |z_set|}
    with M(V) the residual neighbors of V outside w_p.  This is exactly
    the probability that independent geometric p-adic orders (order a with
    probability (1-1/p) p^-a) satisfy every condition at p.  It is folded
    exactly from the (|V|, |M(V)|) histogram of those V, at most (k+1)^2 terms.
    """
    if view.w_p is None:
        raise ValueError("local view carries no cover; build it with local_view(cs, p, cover)")
    if len(view.w_p) > MAX_COVER:
        raise ResourceLimitError(
            f"residual cover of size {len(view.w_p)} exceeds the {MAX_COVER}-index limit"
        )
    p = view.p
    one_minus = Fraction(p - 1, p)
    rest = len(view.w_p) + len(view.z_set)
    total = Fraction(0)
    for (size, outside), count in _subset_histogram(view.reduced, view.w_p).items():
        total += count * Fraction(1, p**size) * one_minus ** (rest - size + outside)
    return total / Fraction(p) ** sum(view.v.values())


def generic_factor_polynomial(cs: ConditionSet, cover: Iterable[int]) -> FactorPolynomial:
    """Expand the shared local factor sum into a polynomial in t = 1/p.

    Valid verbatim at every prime not dividing any target, where pinning
    and reduction are trivial.  The cover must avoid isolated indices.
    """
    w = _check_cover(cs, cover)
    coeffs = [0] * (cs.k + 1)
    for (size, outside), count in _subset_histogram(cs, w).items():
        e = len(w) - size + outside
        for j in range(e + 1):
            coeffs[size + j] += count * comb(e, j) * (-1) ** j
    return FactorPolynomial(tuple(coeffs))


def _log_fraction(f: Fraction) -> float:
    # math.log takes arbitrary-size ints, so this never overflows
    return log(f.numerator) - log(f.denominator)


def _euler_product(
    poly: FactorPolynomial, cutoff: int, exact: Sequence[tuple[int, Fraction]] = ()
) -> tuple[float, int]:
    """Product of poly(1/p) over the primes p <= cutoff, with the `exact`
    (p, factor) pairs in place of theirs; also the largest prime <= cutoff.

    Logs are summed by `fsum` per sieve block, then over blocks, so the
    block boundaries fix the value bit for bit: callers with the same
    coefficients and cutoff get the same value.
    """
    skip = sorted(p for p, _ in exact)
    log_blocks = [_log_fraction(f) for _, f in exact]
    largest = 0
    for block in prime_blocks(cutoff):
        largest = int(block[-1])
        if skip:
            block = block[~np.isin(block, skip)]
            if block.size == 0:
                continue
        log_blocks.append(fsum(np.log(poly(1.0 / block))))
    return exp(fsum(log_blocks)), largest


def constant(
    cs: ConditionSet,
    cover: Iterable[int] | None = None,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
    trace: bool = False,
) -> DensityResult:
    """Truncated Euler product for the density constant, with certified tail.

    Exact rational factors are used at the primes dividing some target;
    every other prime up to the cutoff goes through the shared polynomial
    in float arithmetic, with the log-product accumulated by compensated
    summation in fixed-size blocks (bit-reproducible).  The cutoff must
    reach the largest target prime and 2C for the tail bound to apply.

    Raises InadmissibleError for systems with no solutions, and
    CutoffTooSmallError / ResourceLimitError on guard violations.
    """
    cutoff = operator.index(prime_cutoff)
    if cutoff > MAX_PRIME_CUTOFF:
        raise ResourceLimitError(f"prime cutoff {cutoff} exceeds the {MAX_PRIME_CUTOFF} limit")
    report = is_admissible(cs)
    if not report:
        raise InadmissibleError(*report.violation)
    w = _check_cover(cs, cover) if cover is not None else _check_cover(cs, find_cover(cs))
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

    value, largest = _euler_product(poly, cutoff, special_factors)
    slack = 2.0 * tail_c / cutoff if tail_c else 0.0
    factor_trace = None
    if trace:
        small = primes_up_to(min(cutoff, _TRACE_LIMIT - 1))
        generic = [(int(p), poly.value_at(int(p))) for p in small if int(p) not in special]
        factor_trace = tuple(sorted(special_factors + generic))
    return DensityResult(
        value=value,
        lower=value * exp(-slack),
        upper=value * exp(slack),
        prime_cutoff=largest,
        factor_trace=factor_trace,
        cover=w,
        tail_constant=tail_c,
    )


def toth_pairwise_constant(k: int, prime_cutoff: int = DEFAULT_PRIME_CUTOFF) -> float:
    """Closed-form constant for the all-pairs-coprime system on k indices.

    Truncated product of (1-1/p)^(k-1) (1 + (k-1)/p), expanded into exact
    integer coefficients first; cross-validation oracle for `constant` on
    the complete pairwise system.
    """
    k = operator.index(k)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    coeffs = [0] * (k + 1)
    for j in range(k):  # (1-t)^(k-1) * (1 + (k-1) t)
        c = comb(k - 1, j) * (-1) ** j
        coeffs[j] += c
        coeffs[j + 1] += c * (k - 1)
    return _euler_product(FactorPolynomial(tuple(coeffs)), prime_cutoff)[0]


def rwise_constant(k: int, r: int, prime_cutoff: int = DEFAULT_PRIME_CUTOFF) -> float:
    """Closed-form constant for r-wise coprimality on k indices.

    Truncated product over p of sum_{x=0}^{r-1} C(k,x) p^-x (1-1/p)^(k-x),
    expanded into exact integer coefficients first.
    """
    k = operator.index(k)
    r = operator.index(r)
    if not 2 <= r <= k:
        raise ValueError(f"need 2 <= r <= k, got r={r}, k={k}")
    coeffs = [0] * (k + 1)
    for x in range(r):
        cx = comb(k, x)
        for j in range(k - x + 1):
            coeffs[x + j] += cx * comb(k - x, j) * (-1) ** j
    return _euler_product(FactorPolynomial(tuple(coeffs)), prime_cutoff)[0]

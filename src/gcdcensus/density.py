"""The density constant as an Euler product: an exact head and a prime-zeta tail.

The fraction of k-tuples in [1, x]^k satisfying an admissible condition
system tends to a product over the primes of exact local factors: the
probability that independent geometric p-adic orders meet every
condition at p.  One elimination kernel sums each factor over the index
sets holding no whole core (padic.core_masks); at the primes dividing no
target that gives a polynomial q(t) in t = 1/p with integer coefficients,
c_0 = 1 and c_1 = 0.

The product splits at H = min(prime cutoff, 1000).  The head multiplies
the exact factors at the primes p <= H and at the target primes, rounded
only at the working precision of `decimal`.  The tail over the other
primes is exp of sum_j a_j P(j), where log q(t) = sum_j a_j t^j and P(s)
is the prime zeta function over the primes p > H.  Mobius inversion sums
it as sum_n e_n/n log(zeta(n) prod_{p<=H} (1 - p^-n)) with integer e_n
(H. Cohen 1998; Ettahri, Ramare and Surel, Math. Comp. 90, 2021), and
zeta comes from Borwein's alternating series with integer weights.
Fujiwara's bound R on the roots of t^d q(1/t) bounds the a_j, so H >= 2R
bounds the series' dropped terms; the reported interval carries that
bound and a rounding budget, rounded outward, and holds the full product.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from itertools import accumulate, count, takewhile
from math import comb, exp, inf, log, log10, nextafter, prod
from typing import Iterable

from .admissibility import witness
from .errors import CutoffTooSmallError, ResourceLimitError
from .model import MAX_K, ConditionSet, Record, _bits
from .padic import LocalView, _orders, core_masks, relevant_primes
from .primes import is_prime, primes_up_to

# Live states the subset sums may hold after any index: refusals took
# 0.1-0.3 s and at most 60 MB on a 2-vCPU VM.
MAX_STATES = 1 << 16

_FIELD = 64  # bits per packed count; a count of j-subsets of 64 indices is below 2^61

# Primes below this are traced, with the target primes.
_TRACE_LIMIT = 50

# The head/tail split: the head takes the primes up to the cutoff, at most this.
DEFAULT_PRIME_CUTOFF = 1000

# The tail's dropped terms, and apart from them its roundings, stay below 10^-_TAIL_DIGITS.
_TAIL_DIGITS = 20


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


class DensityResult(Record):
    """The density constant, an interval certified to hold it, the largest
    prime of the exact head, the exact factors at the primes below 50 and at
    the target primes as ascending (p, factor) pairs, and the tail constant C."""

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


def _checked_cutoff(prime_cutoff: int) -> int:
    cutoff = operator.index(prime_cutoff)
    if cutoff < 2:
        raise ValueError(f"prime cutoff must be >= 2, got {cutoff}")
    return cutoff


def _zeta_weights(n: int) -> list[Decimal]:
    """(-1)^k (d_n - d_k) / d_n for k < n in the current decimal context, where
    d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!) is an integer (P. Borwein,
    "An efficient algorithm for the Riemann zeta function", 2000, algorithm 2)."""
    terms = accumulate(range(n), lambda t, i: t * 2 * (n + i) * (n - i) // ((2 * i + 1) * (i + 1)), initial=1)
    d = list(accumulate(terms))  # d_0..d_n; each term over the last divides exactly
    return [(-1) ** k * Decimal(d[n] - d[k]) / d[n] for k in range(n)]


def _zeta(s: int, weights: list[Decimal], tiny: Decimal) -> Decimal:
    """zeta(s) for an integer s >= 2 in the current decimal context: the sum of
    weights[k-1] k^-s, stopped at the first k^-s below tiny, over 1 - 2^(1-s); within
    6 (3+sqrt 8)^-n for n weights, since s >= 2 puts 1/(1 - 2^(1-s)) at most 2."""
    powers = takewhile(tiny.__le__, (Decimal(k) ** -s for k in count(1)))
    return sum(map(operator.mul, weights, powers)) / (1 - Decimal(2) ** (1 - s))


def _log_series(coeffs: tuple[int, ...], terms: int) -> list[int]:
    """j a_j for j < terms, where log q(t) = sum of a_j t^j and q has
    coefficients c_j: Newton's identities, j a_j = j c_j - sum_{i<j} i a_i c_{j-i}."""
    c = list(coeffs) + [0] * terms
    ja = [0] * terms
    for j in range(2, terms):
        ja[j] = j * c[j] - sum(ja[i] * c[j - i] for i in range(2, j - 1))
    return ja


def _exponents(ja: list[int], top: int) -> list[int]:
    """e_n = sum_{j|n} mu(n/j) j a_j for n <= top, taking j a_j from ja: Mobius
    inversion gives sum_j a_j sum_m mu(m)/m L(mj) = sum_n e_n/n L(n).  In
    place: j a_j = sum_{d|j} e_d, so each e_d, final once its divisors are
    done, comes off every multiple of d."""
    e = [ja[n] if 2 <= n < len(ja) else 0 for n in range(top + 1)]
    for d in range(2, top // 2 + 1):
        e[2 * d :: d] = [v - e[d] for v in e[2 * d :: d]]
    return e


def _euler_product(
    poly: FactorPolynomial, cutoff: int, special: Iterable[tuple[int, Fraction]] = ()
) -> tuple[float, float, float, int, dict[int, Fraction]]:
    """The product over all primes of poly(1/p), with exact factors at the
    `special` (p, factor) pairs: the value, an interval holding it, the
    largest prime of the head, and the exact factors at the special primes
    and at the primes below _TRACE_LIMIT.

    The head multiplies the exact factors at the primes p <= H = min(cutoff,
    DEFAULT_PRIME_CUTOFF) and at the special primes, rounded at the working
    precision only.  The tail, over the other primes, is exp of
    sum_j a_j P(j) less log q(1/p) at the special p > H, where
    P(s) = sum_m mu(m)/m L(ms) is the sum of p^-s over the primes p > H and
    L(n) = log(zeta(n) prod_{p<=H} (1 - p^-n)); one loop over n sums it as
    sum_n e_n/n L(n) (_exponents).  With q the least prime above H and R
    Fujiwara's bound on the roots of t^d q(1/t), |a_j| <= d R^j / j and
    P(j) <= q^-j (1 + q/(j-1)), so the terms j >= J add at most
    d q (R/q)^J / (1 - R/q) to the log; n stops once q^-n is below the
    working precision.  H < 2R is refused.
    """
    head_primes = primes_up_to(min(cutoff, DEFAULT_PRIME_CUTOFF))
    h = head_primes[-1]
    exact = dict(special)
    for p in head_primes[: bisect_left(head_primes, _TRACE_LIMIT)]:
        exact.setdefault(p, poly.value_at(p))
    if poly.degree < 2:  # q = 1: the product is that of the special factors, exactly
        value = prod(exact.values(), start=Fraction(1))
        return float(value), _to_float(value, -inf), _to_float(value, inf), h, exact
    coeffs = poly.coefficients
    root = 2 * max(exp(log(abs(c)) / j) for j, c in enumerate(coeffs[2:], 2) if c)
    if any(h**j < 4**j * abs(c) for j, c in enumerate(coeffs[2:], 2)):  # h < 2R, in integers
        raise CutoffTooSmallError(
            f"prime cutoff {cutoff} puts the head/tail split at {h}, below 2R = {2 * root:.6g},"
            " where R = 2 max |c_j|^(1/j) bounds the roots of the factor polynomial"
        )

    q = h + 1
    while not is_prime(q):
        q += 1
    ratio = root / q * (1 + 1e-9)  # past the float roundings of R
    terms = 2
    while (dropped := poly.degree * q * ratio**terms / (1 - ratio) * (1 + 1e-9)) >= 10.0**-_TAIL_DIGITS:
        terms += 1
    ja = _log_series(coeffs, terms)
    far = [p for p in exact if p > h]
    weight = 2 + len(far) + sum(map(abs, ja))
    digits = _TAIL_DIGITS + 7 + len(str(weight))
    top = int(digits / log10(q))  # q^-n is below the working precision past n = top
    e = _exponents(ja, top)
    with localcontext(Context(prec=digits)):
        tiny = Decimal(10) ** -digits
        head, log_tail = Decimal(1), Decimal(0)
        for p in head_primes + far:
            f = exact[p] if p in exact else poly.value_at(p)
            head *= Decimal(f.numerator) / f.denominator
        log_tail -= sum((Decimal(f.numerator) / f.denominator).ln() for f in map(poly.value_at, far))
        weights = _zeta_weights(int((digits + 1) / log10(3 + 8**0.5)) + 1)  # 6 (3+sqrt 8)^-N < tiny
        powers = inverse = [1 / Decimal(p) for p in head_primes]  # p^-n at the head primes, while >= tiny
        for n in range(2, top + 1):
            powers = [x for x in map(operator.mul, powers, inverse) if x >= tiny]
            if e[n]:
                euler = _zeta(n, weights, tiny)
                for x in powers:
                    euler *= 1 - x
                log_tail += euler.ln() * e[n] / n
        value = head * log_tail.exp()
        # Borwein's N terms and at most 168 factors 1 - p^-n take about 500 roundings, so each
        # L(n) is within 10^(4-digits); sum_n |e_n|/n < 3 sum_j |j a_j| (top < 450) puts the
        # tail within weight 10^(5-digits); the head, the logs at far primes and exp add less
        slack = Decimal(dropped) + weight * Decimal(10) ** (7 - digits)
        lower, upper = value * (-slack).exp(), value * slack.exp()
    return float(value), _to_float(lower, -inf), _to_float(upper, inf), h, exact


def _to_float(x: Decimal | Fraction, toward: float) -> float:
    """x rounded to a float in the direction of toward."""
    f = float(x)
    return nextafter(f, toward) if (f < x if toward > 0 else f > x) else f


def constant(cs: ConditionSet, prime_cutoff: int = DEFAULT_PRIME_CUTOFF) -> DensityResult:
    """The density constant: an exact head over the primes up to
    min(prime_cutoff, 1000) and the target primes, times the prime-zeta tail.

    Raises InadmissibleError for systems with no solutions, ValueError for a
    cutoff below 2, CutoffTooSmallError when the head stops below 2R, and
    ResourceLimitError past the subset sums' state cap.
    """
    cutoff = _checked_cutoff(prime_cutoff)
    witness(cs)  # raises InadmissibleError
    poly = generic_factor_polynomial(cs)
    special_factors: list[tuple[int, Fraction]] = []
    for p in relevant_primes(cs):
        f = _local_factor(p, *core_masks(*_orders(cs, p)))
        if f <= 0:
            raise AssertionError(f"internal invariant violated: nonpositive factor at p={p}")
        special_factors.append((p, f))

    value, lower, upper, largest, exact = _euler_product(poly, cutoff, special_factors)
    return DensityResult(
        value=value,
        lower=lower,
        upper=upper,
        prime_cutoff=largest,
        factor_trace=tuple(sorted(exact.items())),
        tail_constant=poly.tail_constant,
    )


def toth_pairwise_constant(k: int, prime_cutoff: int = DEFAULT_PRIME_CUTOFF) -> float:
    """Closed-form constant for the all-pairs-coprime system on k indices.

    The product over p of (1-1/p)^(k-1) (1 + (k-1)/p), expanded into exact
    integer coefficients first and taken as `constant` takes it;
    cross-validation oracle for `constant` on the complete pairwise system.
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

    The product over p of sum_{x=0}^{r-1} C(k,x) p^-x (1-1/p)^(k-x),
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

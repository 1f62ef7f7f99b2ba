"""Shared test oracles and generators.

Everything here is deliberately independent of the library's computation
paths: the enumeration oracle walks tuples with itertools and math.gcd,
the admissibility and witness oracles apply the criterion prime by prime
with primes and valuations found by trial division, the pin oracle
compares those orders pair by pair, the twin oracle relabels the whole system
for each swap of two indices, the local-factor
oracle sums capped geometric valuation probabilities directly, the
local-pattern oracles take finite differences on a dense exponent grid
and the subset Mobius transform over all 2^m index sets,
the subset-sum oracles walk every independent subset one by one, the
truncated Euler product evaluates the polynomial with np.polyval and sums
the logs with math.fsum, the completed product takes mpmath's Taylor
series and prime zeta function past primes found by trial division, the
Mobius oracle factors by trial division, the totient oracle
sieves with the product formula, and README's system is counted one middle
coordinate at a time, by inclusion-exclusion over its primes.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, exp, fsum, gcd, isqrt, log

import numpy as np
from hypothesis import strategies as st

import gcdcensus
from gcdcensus import AdmissibilityReport, Condition, ConditionSet, condition_set
from gcdcensus.density import FactorPolynomial
from gcdcensus.model import enumerate_independent_subsets, neighbors
from gcdcensus.padic import LocalView
from gcdcensus.primes import primes_up_to


def naive_count(cs: ConditionSet, x: int) -> int:
    """Count satisfying tuples by scanning the full box, no pruning."""
    total = 0
    conds = [(sorted(c.indices), c.value) for c in cs.conditions]
    for tup in itertools.product(range(1, x + 1), repeat=cs.k):
        ok = True
        for idx, value in conds:
            g = 0
            for i in idx:
                g = gcd(g, tup[i - 1])
            if g != value:
                ok = False
                break
        total += ok
    return total


def naive_twins(cs: ConditionSet) -> set[frozenset[int]]:
    """The pairs {i, j} of indices whose swap leaves the system unchanged:
    each pair's swap applied to every condition's index set, and the
    relabelled ConditionSet compared with cs."""
    twins = set()
    for i, j in itertools.combinations(range(1, cs.k + 1), 2):
        swap = {i: j, j: i}
        swapped = tuple(Condition(frozenset(swap.get(a, a) for a in c.indices), c.value) for c in cs.conditions)
        if ConditionSet(cs.k, swapped) == cs:
            twins.add(frozenset((i, j)))
    return twins


def naive_local_patterns(
    masks: list[int], orders: list[int], cap: int, m: int
) -> tuple[np.ndarray, list[int]]:
    """The exponent patterns a in {0..cap}^m with g_p(a) != 0, as the rows
    of an integer array with a_i in column i, and their weights g_p(a), by
    the m-fold finite difference of the local indicator on the dense grid.

    delta_p(a) holds when min{a_i : i in T} equals orders[j] for every
    condition T = masks[j] (bit i standing for column i).  A difference
    only reads smaller patterns, so the grid's edge at cap cuts no entry
    short.  Rows ascend in sum a_i (cap + 1)^i.
    """
    side = cap + 1
    # row i holds a_i of every entry, whose a sits at sum a_i side^i
    digits = np.indices((side,) * m, dtype=np.int8).reshape(m, -1)[::-1]
    delta = np.ones(side**m, dtype=bool)
    for mask, e in zip(masks, orders):
        low = None
        for i in range(m):
            if mask >> i & 1:
                low = digits[i] if low is None else np.minimum(low, digits[i])
        delta &= low == e
    g = delta.astype(np.int64)
    for i in range(m):
        steps = g.reshape(-1, side, side**i)
        steps[:, 1:] -= steps[:, :-1]  # numpy buffers the overlap
    where = np.flatnonzero(g)
    return np.stack([a[where] for a in digits], axis=1), g[where].tolist()


def exponent_cap(p: int, top: int, x: int) -> int:
    """min(top + 1, floor(log_p x)) for top the largest order of p in a
    target: the largest exponent of p in any d_i <= x with g_p != 0, and so
    the edge of the dense grid that naive_local_patterns must cover."""
    cap, power = 0, p
    while cap <= top and power <= x:
        cap, power = cap + 1, power * p
    return cap


def dense_local_patterns(cores, m: int) -> tuple[list[int], list[int]]:
    """The index sets S of [m] with g(S) != 0, ascending as bitmasks, and
    their weights, by the subset Mobius transform of "S holds no whole core"
    over all 2^m sets: one numpy pass per bit, every core used."""
    sets = np.arange(1 << m)
    free = np.ones(1 << m, dtype=bool)
    for core in cores:
        free &= sets & core != core
    g = free.astype(np.int64)
    for i in range(m):
        steps = g.reshape(-1, 2, 1 << i)  # axis 1 is bit i
        steps[:, 1] -= steps[:, 0]
    where = np.flatnonzero(g)
    return where.tolist(), g[where].tolist()


def naive_first(cs: ConditionSet, bound: int):
    """Lexicographically first satisfying tuple by full scan, or None."""
    conds = [(sorted(c.indices), c.value) for c in cs.conditions]
    for tup in itertools.product(range(1, bound + 1), repeat=cs.k):
        if all(_gcd_over(tup, idx) == value for idx, value in conds):
            return tup
    return None


def _gcd_over(tup, idx):
    g = 0
    for i in idx:
        g = gcd(g, tup[i - 1])
    return g


def naive_admissibility(cs: ConditionSet) -> AdmissibilityReport:
    """The per-prime criterion: at each target prime in ascending order, the
    first condition (canonical order) whose g(T) differs from min v over T."""
    for p in trial_primes(cs):
        g, v = naive_valuations(cs, p)
        for c in cs.conditions:
            if g[c.indices] != min(v[i] for i in c.indices):
                return AdmissibilityReport(False, (p, c.indices))
    return AdmissibilityReport(True)


def naive_witness(cs: ConditionSet) -> tuple[int, ...]:
    """prod_p p**v_i over the target primes: the witness built prime by prime."""
    entries = [1] * cs.k
    for p in trial_primes(cs):
        _, v = naive_valuations(cs, p)
        for i in range(1, cs.k + 1):
            entries[i - 1] *= p ** v[i]
    return tuple(entries)


def naive_valuations(cs: ConditionSet, p: int):
    """g(T) = ord_p f(T) by trial division, and v[i] = the largest g(T) over
    the conditions containing i (0 off every condition)."""
    g = {c.indices: trial_order(c.value, p) for c in cs.conditions}
    v = {
        i: max([g[c.indices] for c in cs.conditions if i in c.indices], default=0)
        for i in range(1, cs.k + 1)
    }
    return g, v


def naive_pins(cs: ConditionSet, p: int) -> frozenset[int]:
    """The indices i that some condition leaves alone at its exponent: every
    other member's order is forced strictly above it, compared pair by pair."""
    g, v = naive_valuations(cs, p)
    return frozenset(
        i for c in cs.conditions for i in c.indices if all(v[j] > g[c.indices] for j in c.indices - {i})
    )


def trial_primes(cs: ConditionSet) -> list[int]:
    """The primes dividing some target, ascending, by trial division."""
    out = set()
    for c in cs.conditions:
        n, d = c.value, 2
        while d * d <= n:
            while n % d == 0:
                out.add(d)
                n //= d
            d += 1
        if n > 1:
            out.add(n)
    return sorted(out)


def trial_order(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def trial_mobius(n: int) -> int:
    """mu(n) by trial division."""
    count = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            count += 1
        d += 1
    if n > 1:
        count += 1
    return (-1) ** count


def valuation_probability(cs: ConditionSet, p: int) -> Fraction:
    """Probability that independent geometric p-adic orders meet every
    condition at p: the exact value any local factor at p must equal.

    Orders above B = max exponent + 1 behave identically, so capping each
    coordinate at B and folding the geometric tail into the cap is exact.
    """
    exps = {c.indices: trial_order(c.value, p) for c in cs.conditions}
    cap = max([0] + list(exps.values())) + 1

    def prob(a: int) -> Fraction:
        if a < cap:
            return Fraction(p - 1, p) * Fraction(1, p) ** a
        return Fraction(1, p) ** cap  # all mass of orders >= cap

    total = Fraction(0)
    for orders in itertools.product(range(cap + 1), repeat=cs.k):
        if all(min(orders[i - 1] for i in c.indices) == exps[c.indices] for c in cs.conditions):
            weight = Fraction(1)
            for a in orders:
                weight *= prob(a)
            total += weight
    return total


def naive_factor_polynomial(cs: ConditionSet, w) -> FactorPolynomial:
    """The shared factor polynomial, one independent subset at a time."""
    w = frozenset(w)
    coeffs = [0] * (cs.k + 1)
    for v_sub in enumerate_independent_subsets(cs, w):
        e = len(w) - len(v_sub) + len(neighbors(cs, v_sub) - w)
        for j in range(e + 1):
            coeffs[len(v_sub) + j] += comb(e, j) * (-1) ** j
    return FactorPolynomial(tuple(coeffs))


def naive_local_factor(view: LocalView) -> Fraction:
    """The local factor at view.p, one independent subset at a time."""
    p, w_p = view.p, view.w_p
    total = Fraction(0)
    for v_sub in enumerate_independent_subsets(view.reduced, w_p):
        m = neighbors(view.reduced, v_sub) - w_p
        exponent = len(w_p) - len(v_sub) + len(m) + len(view.z_set)
        total += Fraction(1, p ** len(v_sub)) * Fraction(p - 1, p) ** exponent
    return total / Fraction(p) ** sum(view.v.values())


def naive_euler_product(poly: FactorPolynomial, cutoff: int, special=()) -> float:
    """The product truncated at the primes p <= cutoff, which is within a
    factor exp(+-2C/cutoff) of the full product when 2C <= cutoff: exact
    factors at the special (p, factor) pairs and at the primes below 50,
    np.polyval at the others, the logs summed by math.fsum."""
    exact = dict(special)
    for p in primes_up_to(min(cutoff, 49)):
        exact.setdefault(p, poly.value_at(p))
    every = np.array([p for p in primes_up_to(cutoff) if p not in exact], dtype=np.int64)
    logs = np.log(np.polyval(poly.coefficients[::-1], 1.0 / every))
    return exp(fsum([*(log(f.numerator) - log(f.denominator) for f in exact.values()), *logs.tolist()]))


def _trial_primes_to(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, isqrt(p) + 1))]


def mpmath_tail(coefficients, split: int, terms: int = 30):
    """The product of q(1/p) over the primes p > split, q with the given
    integer coefficients, in mpmath at 80 digits: exp of sum a_j P(j) for
    j < terms, with log q(t) = sum a_j t^j from mpmath.taylor and P(j) =
    mpmath.primezeta(j) less p^-j at the primes up to split, found by trial
    division."""
    import mpmath

    with mpmath.workdps(80):
        small = _trial_primes_to(split)
        a = mpmath.taylor(lambda t: mpmath.log(mpmath.polyval(list(coefficients)[::-1], t)), 0, terms - 1)
        return mpmath.exp(
            mpmath.fsum(
                a[j] * (mpmath.primezeta(j) - mpmath.fsum(mpmath.mpf(p) ** -j for p in small))
                for j in range(2, terms)
            )
        )


def mpmath_euler_product(coefficients, special=(), split: int = 2000):
    """The product over all primes of q(1/p), with the special (p, factor)
    pairs' factors in place of q(1/p), in mpmath at 80 digits: the primes up
    to split multiplied directly, the rest by mpmath_tail."""
    import mpmath

    with mpmath.workdps(80):
        q = lambda t: mpmath.polyval(list(coefficients)[::-1], t)  # noqa: E731
        factors = {p: mpmath.mpf(f.numerator) / f.denominator for p, f in special}
        head = mpmath.fprod(factors.get(p, q(mpmath.mpf(1) / p)) for p in _trial_primes_to(split))
        for p, f in factors.items():
            if p > split:
                head *= f / q(mpmath.mpf(1) / p)
        return head * mpmath_tail(coefficients, split)


def readme_count(x: int) -> int:
    """Solutions in [1, x]^3 of README's system gcd(n1, n2) = 6, gcd(n2, n3) = 10,
    one n2 at a time: n2 runs over the multiples of 30 up to x, n1 = 6a with
    a <= x // 6 prime to n2 / 6, and n3 = 10b with b <= x // 10 prime to n2 / 10."""
    return sum(coprime_count(x // 6, n2 // 6) * coprime_count(x // 10, n2 // 10) for n2 in range(30, x + 1, 30))


def coprime_count(bound: int, modulus: int) -> int:
    """#{a <= bound : gcd(a, modulus) = 1}, by inclusion-exclusion: the sum of
    mu(d) * (bound // d) over the products d of distinct primes of modulus,
    found by trial division."""
    terms = {1: 1}  # d -> mu(d)
    n, p = modulus, 2
    while n > 1:
        if p * p > n:
            p = n
        if n % p == 0:
            terms.update({d * p: -mu for d, mu in list(terms.items())})
            while n % p == 0:
                n //= p
        p += 1
    return sum(mu * (bound // d) for d, mu in terms.items())


def totients_up_to(n: int) -> list[int]:
    """Euler's phi(0..n) by the product formula: each prime p (an entry still
    equal to its index) scales its multiples by 1 - 1/p."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    return phi


def random_admissible(rng: random.Random, max_k: int = 6, max_base: int = 60) -> ConditionSet:
    """A random admissible system: targets read off a random base tuple.

    Whatever index sets are chosen, setting each target to the gcd of the
    base tuple over that set makes the base tuple a solution.
    """
    k = rng.randint(2, max_k)
    base = [rng.randint(1, max_base) for _ in range(k)]
    n_edges = rng.randint(1, min(6, 2**k - k - 1))
    edges: set[frozenset[int]] = set()
    while len(edges) < n_edges:
        size = rng.randint(2, k)
        edges.add(frozenset(rng.sample(range(1, k + 1), size)))
    conds = {}
    for e in edges:
        g = 0
        for i in e:
            g = gcd(g, base[i - 1])
        conds[tuple(sorted(e))] = g
    return condition_set(k, conds)


# Targets 2^a 3^b 5^c 7^d with exponents up to 2: one system can clash at several primes.
composite_targets = st.tuples(*[st.integers(0, 2)] * 4).map(
    lambda e: 2 ** e[0] * 3 ** e[1] * 5 ** e[2] * 7 ** e[3]
)


@st.composite
def condition_sets(draw, max_k: int = 4, max_value: int = 6, allow_empty: bool = True, values=None):
    """Arbitrary (not necessarily admissible) small systems.

    Targets come from `values` when given, else from 1..max_value.
    """
    k = draw(st.integers(2, max_k))
    all_edges = [
        frozenset(c)
        for size in range(2, k + 1)
        for c in itertools.combinations(range(1, k + 1), size)
    ]
    min_edges = 0 if allow_empty else 1
    chosen = draw(
        st.lists(st.sampled_from(all_edges), min_size=min_edges, max_size=len(all_edges), unique=True)
    )
    values = st.integers(1, max_value) if values is None else values
    conds = tuple(Condition(e, draw(values)) for e in chosen)
    return ConditionSet(k, conds)


@st.composite
def admissible_condition_sets(draw, max_k: int = 4, max_base: int = 30, bases=None):
    """Admissible-by-construction small systems (targets from a base tuple).

    The base entries come from `bases` when given, else from 1..max_base.
    """
    k = draw(st.integers(2, max_k))
    bases = st.integers(1, max_base) if bases is None else bases
    base = draw(st.lists(bases, min_size=k, max_size=k))
    all_edges = [
        frozenset(c)
        for size in range(2, k + 1)
        for c in itertools.combinations(range(1, k + 1), size)
    ]
    chosen = draw(
        st.lists(st.sampled_from(all_edges), min_size=1, max_size=len(all_edges), unique=True)
    )
    conds = []
    for e in chosen:
        g = 0
        for i in e:
            g = gcd(g, base[i - 1])
        conds.append(Condition(e, g))
    return ConditionSet(k, tuple(conds))


@st.composite
def subsets_of(draw, k: int):
    return frozenset(draw(st.lists(st.integers(1, k), unique=True)))


def fresh_python(script: str, *argv: str) -> subprocess.CompletedProcess:
    """Run script in a new interpreter that imports this checkout's gcdcensus."""
    src = os.path.dirname(os.path.dirname(gcdcensus.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=60)

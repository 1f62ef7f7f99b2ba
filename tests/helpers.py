"""Shared test oracles and generators.

Everything here is deliberately independent of the library's computation
paths: the enumeration oracle walks tuples with itertools and math.gcd,
the admissibility and witness oracles apply the criterion prime by prime
with primes and valuations found by trial division, the local-factor
oracle sums capped geometric valuation probabilities directly, the
subset-sum oracles walk every independent subset one by one, the
Euler-product oracle sums each sieve block with math.fsum, and the Mobius
oracle factors by trial division.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, exp, fsum, gcd

import numpy as np
from hypothesis import strategies as st

from gcdcensus import AdmissibilityReport, Condition, ConditionSet, condition_set
from gcdcensus.density import _TRACE_LIMIT, FactorPolynomial, _log_fraction
from gcdcensus.model import enumerate_independent_subsets, neighbors
from gcdcensus.padic import LocalView
from gcdcensus.primes import prime_blocks, primes_up_to


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


def naive_euler_product(poly: FactorPolynomial, cutoff: int, special=()):
    """density._euler_product with each sieve block summed by math.fsum."""
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
        log_blocks.append(fsum(np.log(poly(1.0 / block))))
    return exp(fsum(log_blocks)), largest, exact


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
def admissible_condition_sets(draw, max_k: int = 4, max_base: int = 30):
    """Admissible-by-construction small systems (targets from a base tuple)."""
    k = draw(st.integers(2, max_k))
    base = draw(st.lists(st.integers(1, max_base), min_size=k, max_size=k))
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

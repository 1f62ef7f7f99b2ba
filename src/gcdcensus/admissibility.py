"""Decide whether a condition system has any solution, and build one.

The canonical witness n_i = lcm{f(T) : T contains i} divides every
solution, and f(T) divides gcd{n_i : i in T}.  So a system is solvable
exactly when every quotient q_T = gcd{n_i : i in T} / f(T) is 1, and then
n is its minimal solution.  A violation's prime comes from trial division of
the lcm of the q_T, or, if that finds none, from factoring parts of targets.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from .errors import InadmissibleError, ResourceLimitError
from .model import ConditionSet, canonical_witness, isolated_indices
from .primes import factorize, trial_divisors

_SEARCH_GUARD = 10**9


@dataclass(frozen=True)
class AdmissibilityReport:
    """Decision plus, on failure, the first violating (prime, index set)."""

    admissible: bool
    violation: tuple[int, frozenset[int]] | None = None

    def __bool__(self) -> bool:
        return self.admissible


def is_admissible(cs: ConditionSet) -> AdmissibilityReport:
    """Check that every q_T = gcd{n_i : i in T} / f(T) is 1.  A violation is
    the smallest prime dividing some q_T with the first condition (canonical
    order) whose q_T it divides: the first (prime, edge) with g(T) != min v."""
    violation = _violation(cs, canonical_witness(cs))
    return AdmissibilityReport(violation is None, violation)


def witness(cs: ConditionSet) -> tuple[int, ...]:
    """The canonical solution n_i = lcm of the targets on index i; raises
    InadmissibleError, with the violating prime and index set, if none exists."""
    n = canonical_witness(cs)
    if violation := _violation(cs, n):
        raise InadmissibleError(*violation)
    return n


def _violation(cs: ConditionSet, n: tuple[int, ...]) -> tuple[int, frozenset[int]] | None:
    q = [gcd(*[n[i - 1] for i in c.indices]) // c.value for c in cs.conditions]
    bad = lcm(*q)  # never factored: it can join primes of several targets
    if bad == 1:
        return None
    p = next((p for p in trial_divisors(bad) if bad % p == 0), None)
    if p is None:  # no small prime: factor the parts of targets instead
        p = min(min(factorize(d)) for d in {gcd(bad, c.value) for c in cs.conditions} - {1})
    return p, next(c.indices for c, x in zip(cs.conditions, q) if x % p == 0)


def pruned_walk(cs: ConditionSet, active: list[int], bound: int, visit) -> bool:
    """Depth-first walk of [1, bound] over the `active` coordinates, ascending.

    `active` must hold every index of every condition.  A prefix is cut once
    a partial gcd stops being a multiple of its target (or, for a complete
    condition, equal to it).  visit(prefix, hits) is called for each prefix
    of all but the last coordinate that survives, with a boolean mask over
    1..bound of the last values completing a solution; `prefix` is reused.
    A truthy return stops the walk; returns whether it was stopped.
    """
    values = [c.value for c in cs.conditions]
    by_pos: dict[int, list[tuple[int, bool]]] = {i: [] for i in active}
    for ci, c in enumerate(cs.conditions):
        last = max(c.indices)
        for i in c.indices:
            by_pos[i].append((ci, i == last))
    steps = [by_pos[i] for i in active]
    depth = len(active) - 1
    ns = np.arange(1, bound + 1, dtype=np.int64)
    partial = [0] * len(values)
    prefix = [0] * depth

    def walk(pos: int) -> bool:
        if pos == depth:
            mask = np.ones(bound, dtype=bool)
            for ci, complete in steps[pos]:
                g = np.gcd(partial[ci], ns)
                mask &= g == values[ci] if complete else g % values[ci] == 0
            return visit(prefix, mask)
        for n in range(1, bound + 1):
            saved = []
            ok = True
            for ci, complete in steps[pos]:
                g = gcd(partial[ci], n)
                if (g != values[ci]) if complete else (g % values[ci] != 0):
                    ok = False
                    break
                saved.append((ci, partial[ci]))
                partial[ci] = g
            if ok:
                prefix[pos] = n
                if walk(pos + 1):
                    return True
            for ci, old in saved:
                partial[ci] = old
        return False

    return bool(walk(0))


def brute_force_find(cs: ConditionSet, bound: int) -> tuple[int, ...] | None:
    """Lexicographically first solution in [1, bound]^k, or None.

    Independent search oracle: `pruned_walk` stopped at the first hit, with
    coordinates in no condition set to 1 (so the result stays first).
    Guarded by bound**k <= 10**9.
    """
    bound = operator.index(bound)
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if bound**cs.k > _SEARCH_GUARD:
        raise ResourceLimitError(
            f"bound**k = {bound}**{cs.k} exceeds the {_SEARCH_GUARD} search guard"
        )
    if any(c.value > bound for c in cs.conditions):
        return None  # gcd of entries <= bound can never reach the target

    entries = [1] * cs.k
    active = sorted(set(range(1, cs.k + 1)) - isolated_indices(cs))
    if not active:
        return tuple(entries)

    def visit(prefix: list[int], hits: np.ndarray) -> bool:
        found = np.flatnonzero(hits)
        if found.size == 0:
            return False
        for i, n in zip(active, prefix + [int(found[0]) + 1]):
            entries[i - 1] = n
        return True

    return tuple(entries) if pruned_walk(cs, active, bound, visit) else None

"""Decide whether a condition system has any solution, and build one.

The decision runs prime by prime: a system is solvable exactly when, at
every prime p dividing some target, each condition's exponent g(T)
equals min{v[i] : i in T} of the forced coordinate minima.  (At all
other primes every quantity is 0 and the criterion is vacuous.)  The
canonical witness sets each coordinate to the product of its forced
prime powers; it is minimal in every p-adic order among all solutions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import InadmissibleError, ResourceLimitError
from .model import ConditionSet, delta, isolated_indices
from .padic import relevant_primes, valuations

_SEARCH_GUARD = 10**9


@dataclass(frozen=True)
class AdmissibilityReport:
    """Decision plus, on failure, the first violating (prime, index set)."""

    admissible: bool
    violation: tuple[int, frozenset[int]] | None = None

    def __bool__(self) -> bool:
        return self.admissible


def is_admissible(cs: ConditionSet) -> AdmissibilityReport:
    """Check g(T) == min v over T at every prime dividing a target.

    Violations are reported in (prime, lexicographic edge) order, so the
    diagnostic is reproducible.
    """
    for p in relevant_primes(cs):
        g, v = valuations(cs, p)
        for c in cs.conditions:
            if g[c.indices] != min(v[i] for i in c.indices):
                return AdmissibilityReport(False, (p, c.indices))
    return AdmissibilityReport(True)


def witness(cs: ConditionSet) -> tuple[int, ...]:
    """The canonical solution n_i = prod_p p**v_i over the target primes.

    Raises InadmissibleError (carrying the violating prime and index set)
    when no solution exists.
    """
    report = is_admissible(cs)
    if not report:
        raise InadmissibleError(*report.violation)
    entries = [1] * cs.k
    for p in relevant_primes(cs):
        _, v = valuations(cs, p)
        for i in range(1, cs.k + 1):
            entries[i - 1] *= p ** v[i]
    result = tuple(entries)
    if delta(cs, result) != 1:
        raise AssertionError(f"internal invariant violated: witness {result} fails the system")
    return result


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

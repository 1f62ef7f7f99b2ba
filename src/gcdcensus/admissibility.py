"""Decide whether a condition system has any solution, and build one.

The canonical witness n_i = lcm{f(T) : T contains i} divides every
solution, and f(T) divides gcd{n_i : i in T}.  So a system is solvable
exactly when every quotient q_T = gcd{n_i : i in T} / f(T) is 1, and then
n is its minimal solution.  A violation's prime comes from trial division of
the lcm of the q_T, or, if that finds none, from factoring parts of targets.
"""

from __future__ import annotations

import operator
from math import gcd, lcm

from .errors import InadmissibleError
from .model import ConditionSet, Record, canonical_witness, delta
from .primes import factorize, trial_divisors


class AdmissibilityReport(Record):
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


def brute_force_find(cs: ConditionSet, bound: int) -> tuple[int, ...] | None:
    """Lexicographically first solution in [1, bound]^k, or None.

    Every solution is a coordinatewise multiple of the canonical witness,
    so the witness is the first solution in any box that holds one: it is
    returned when it fits in the box and meets every condition.
    """
    bound = operator.index(bound)
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    n = canonical_witness(cs)
    return n if max(n) <= bound and delta(cs, n) else None

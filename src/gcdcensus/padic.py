"""Per-prime decomposition of a condition system.

Fix a prime p and take p-adic orders everywhere: each condition's target
contributes an exponent g(T), and each coordinate i inherits a forced
minimum exponent v[i] = max g(T) over the conditions containing i.  A
condition's core is the set of its members i with v[i] = g(T), the ones
that can realize its minimum (core_masks).  The singleton cores pin their
coordinate to exactly v[i] (the z_set): a condition all of whose other
members are forced strictly above its exponent.  What remains of each
condition without a pinned member is its core: a residual all-targets-one
system recording which coordinates must still drop to their minimum
simultaneously.  The density module reads the cores too.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InadmissibleError, ResourceLimitError
from .model import (
    Condition,
    ConditionSet,
    Record,
    _mask_of,
    _set_of,
    canonical_witness,
    is_cover,
    isolated_indices,
)
from .primes import _MAX_COFACTOR_BITS, factorize, is_prime


def padic_order(n: int, p: int) -> int:
    """Exponent of the prime p in n (n >= 1)."""
    n = int(n)
    if n < 1 or p < 2:  # n % p == 0 would hold forever at p = 1 or -1, and raise at 0
        raise ValueError(f"expected n >= 1 and p >= 2, got n = {n}, p = {p}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


class LocalView(Record):
    """Everything one prime contributes to a condition system.

    `reduced` keeps the full 1..k index space of the source system; its
    edges all lie inside `s_p` and its targets are all 1; `w_p` covers it.
    Treat instances as immutable; the dict fields are never mutated.
    """

    p: int
    g: dict[frozenset[int], int]
    v: dict[int, int]
    z_set: frozenset[int]
    s_p: frozenset[int]
    reduced: ConditionSet
    i_set: frozenset[int]
    w_p: frozenset[int]


def relevant_primes(cs: ConditionSet) -> tuple[int, ...]:
    """The primes dividing at least one condition target, ascending."""
    ps: set[int] = set()
    for value in {c.value for c in cs.conditions}:
        ps.update(factorize(value))
    return tuple(sorted(ps))


def valuations(cs: ConditionSet, p: int) -> tuple[dict[frozenset[int], int], dict[int, int]]:
    """Per-condition exponents g and per-coordinate forced minima v at p.

    v[i] is the order of the canonical witness's n_i, so 0 for any index
    outside every condition.  p over _MAX_COFACTOR_BITS bits is refused, untested.
    """
    p = int(p)
    if p.bit_length() > _MAX_COFACTOR_BITS:
        raise ResourceLimitError(f"a {p.bit_length()}-bit prime is above the {_MAX_COFACTOR_BITS}-bit limit")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _orders(cs, p)


def _orders(cs: ConditionSet, p: int) -> tuple[dict[frozenset[int], int], dict[int, int]]:
    """valuations at a p known to be prime: one of relevant_primes, or a sieved one."""
    g = {c.indices: padic_order(c.value, p) for c in cs.conditions}
    v = {i: padic_order(n, p) for i, n in enumerate(canonical_witness(cs), 1)}
    return g, v


def core_masks(g: dict[frozenset[int], int], v: dict[int, int]) -> tuple[int, list[int]]:
    """(sum of v, each condition's core as a bitmask): core(T) holds the i in T
    with v[i] = g(T), and is T itself at a prime dividing no target."""
    return sum(v.values()), [_mask_of(i for i in t if v[i] == e) for t, e in g.items()]


def z_set(cs: ConditionSet, p: int) -> frozenset[int]:
    """Coordinates whose exponent at p is pinned to exactly v[i]: the
    singleton cores.

    {i} is a condition's core when every *other* member is forced strictly
    above the condition's exponent, leaving i alone to realize the minimum.
    A condition that no member attains, which only an inadmissible system
    has, has an empty core and pins nothing.
    """
    cores = core_masks(*valuations(cs, p))[1]
    return _set_of(sum({c for c in cores if c.bit_count() == 1}))  # distinct bits: their sum is their union


def local_view(cs: ConditionSet, p: int, cover: Iterable[int]) -> LocalView:
    """Full per-prime view, including the cover w_p of the residual system.

    `cover` must cover the source system and avoid its isolated indices;
    w_p drops the pinned and residually-unconstrained coordinates from it.
    Only meaningful for admissible systems (the caller's responsibility);
    a residual edge shrinking below two members raises InadmissibleError,
    since that can only happen when no solution exists.
    """
    w = frozenset(cover)
    if not is_cover(cs, w):
        raise ValueError(f"{sorted(w)} is not a cover of the condition system")
    if iso := w & isolated_indices(cs):
        raise ValueError(f"cover must exclude isolated indices, found {sorted(iso)}")
    return _local_view(cs, int(p), w, *valuations(cs, p))


def _local_view(cs: ConditionSet, p: int, w: frozenset[int], g, v) -> LocalView:
    """local_view with a checked cover w and the valuations g, v at p."""
    cores = core_masks(g, v)[1]
    pinned = sum({c for c in cores if c.bit_count() == 1})  # the union of the singleton cores
    z = _set_of(pinned)
    s_p = frozenset(range(1, cs.k + 1)) - z
    kept: dict[int, None] = {}
    for c, core in zip(cs.conditions, cores):
        if core & pinned:
            # a pinned coordinate already attains the minimum: nothing left
            continue
        if core.bit_count() < 2:
            raise InadmissibleError(p, c.indices)
        kept.setdefault(core)
    reduced = ConditionSet(cs.k, tuple(Condition(_set_of(e), 1) for e in kept))
    i_set = isolated_indices(reduced) & s_p
    w_p = w - (z | i_set)
    if not is_cover(reduced, w_p):
        raise AssertionError(
            f"internal invariant violated: {sorted(w_p)} fails to cover the residual system at p={p}"
        )
    return LocalView(p=p, g=g, v=v, z_set=z, s_p=s_p, reduced=reduced, i_set=i_set, w_p=w_p)

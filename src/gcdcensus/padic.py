"""Per-prime decomposition of a condition system.

Fix a prime p and take p-adic orders everywhere: each condition's target
contributes an exponent g(T), and each coordinate i inherits a forced
minimum exponent v[i] = max g(T) over the conditions containing i.  Some
coordinates are then pinned to exactly v[i] (the z_set): those sitting in
a condition all of whose other members are forced strictly above its
exponent.  What remains of each condition, after pinned coordinates and
non-attaining coordinates are stripped, is a residual all-targets-one
system recording which coordinates must still drop to their minimum
simultaneously.  The density module consumes these views prime by prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InadmissibleError
from .model import (
    Condition,
    ConditionSet,
    canonical_witness,
    check_cover,
    is_cover,
    isolated_indices,
)
from .primes import factorize, is_prime


def padic_order(n: int, p: int) -> int:
    """Exponent of the prime p in n (n >= 1)."""
    n = int(n)
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


@dataclass(frozen=True)
class LocalView:
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
    outside every condition.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    p = int(p)
    g = {c.indices: padic_order(c.value, p) for c in cs.conditions}
    v = {i: padic_order(n, p) for i, n in enumerate(canonical_witness(cs), 1)}
    return g, v


def z_set(cs: ConditionSet, p: int) -> frozenset[int]:
    """Coordinates whose exponent at p is pinned to exactly v[i].

    i is pinned when some condition containing i forces every *other*
    member strictly above the condition's exponent, leaving i alone to
    realize the minimum.
    """
    g, v = valuations(cs, p)
    return _pinned(cs, g, v)


def _pinned(cs: ConditionSet, g, v) -> frozenset[int]:
    out = set()
    for c in cs.conditions:
        gt = g[c.indices]
        for i in c.indices:
            if i not in out and all(v[j] > gt for j in c.indices if j != i):
                out.add(i)
    return frozenset(out)


def local_view(cs: ConditionSet, p: int, cover: Iterable[int]) -> LocalView:
    """Full per-prime view, including the cover w_p of the residual system.

    `cover` must cover the source system and avoid its isolated indices;
    w_p drops the pinned and residually-unconstrained coordinates from it.
    Only meaningful for admissible systems (the caller's responsibility);
    a residual edge shrinking below two members raises InadmissibleError,
    since that can only happen when no solution exists.
    """
    w = check_cover(cs, cover)
    g, v = valuations(cs, p)
    z = _pinned(cs, g, v)
    s_p = frozenset(range(1, cs.k + 1)) - z
    kept: dict[frozenset[int], None] = {}
    for c in cs.conditions:
        gt = g[c.indices]
        core = frozenset(i for i in c.indices if v[i] == gt)
        if core & z:
            # a pinned coordinate already attains the minimum: nothing left
            continue
        if len(core) < 2:
            raise InadmissibleError(p, c.indices)
        kept.setdefault(core)
    reduced = ConditionSet(cs.k, tuple(Condition(e, 1) for e in kept))
    i_set = isolated_indices(reduced) & s_p
    w_p = w - (z | i_set)
    if not is_cover(reduced, w_p):
        raise AssertionError(
            f"internal invariant violated: {sorted(w_p)} fails to cover the residual system at p={p}"
        )
    return LocalView(p=int(p), g=g, v=v, z_set=z, s_p=s_p, reduced=reduced, i_set=i_set, w_p=w_p)

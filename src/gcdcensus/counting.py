"""Exact counts of satisfying tuples and convergence diagnostics.

The indicator delta of a system is multiplicative in every coordinate, so
delta = g * 1 coordinatewise (Dirichlet convolution).  Over the m
coordinates that lie in some condition (each other one is a free factor x),

    count(x) = sum over d in [1, x]^m of g(d) * prod_i floor(x / d_i),

with g(d) = prod_p g_p(v_p(d)): the Dirichlet-series view of the paper.
Each g_p is the m-fold finite difference of the local indicator delta_p,
and one kernel, `_local_patterns`, lists its nonzero exponent patterns:
at a target prime up to an exponent cap, at every other prime with all
orders 0 and cap 1, where the patterns are the dependent index sets S.
`_walk` sums the series prime by prime in ascending order.  It loses to
`_scan`, a depth-first box scan cut wherever a partial gcd already misses
its target, on dense systems with many active coordinates, so the walk
declines those (returns None) from the system alone, before it sums
anything, and `count` then runs the scan.  The tests keep full-box
enumeration as the oracle for both, and `nymann_count`, a Mobius sum, as
an independent oracle for the fully-coprime system.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from math import gcd, inf, log, prod
from typing import TYPE_CHECKING

from .errors import ResourceLimitError
from .model import ConditionSet, canonical_witness, delta, isolated_indices, neighbors, position_masks
from .padic import padic_order, relevant_primes
from .primes import mobius_up_to, primes_up_to

if TYPE_CHECKING:
    import numpy as np

    from .density import DensityResult

_COUNT_GUARD = 10**10
_NYMANN_LIMIT = 10**7  # the Mobius sieve and block sum to 10^7 take about 0.4 s and 90 MB

# The walk declines a system with more active coordinates than the first, or
# with a target prime whose pattern grid would exceed the second; that limit
# also bounds the grid's memory (at 2^20 entries, 8 MB of int64 weights and
# one byte per coordinate for the exponents).
_WALK_MAX_ACTIVE = 16
_TABLE_LIMIT = 1 << 20


@dataclass(frozen=True)
class CountReport:
    """Exact count up to x compared against a density constant.

    normalized_error rescales |density - constant| by x / (log x)^(k-1),
    the shape of the worst-case drift; sharper_normalized_error repeats
    it with sharper_log_exponent, the best exponent the condition
    structure allows (the largest pair-degree of any index), for information.
    """

    x: int
    count: int
    density: float
    constant: float
    normalized_error: float
    sharper_log_exponent: int
    sharper_normalized_error: float


def count(cs: ConditionSet, x: int) -> int:
    """Exact number of tuples in [1, x]^k satisfying every condition.

    Guarded by x**k <= 10**10.  Coordinates in no condition contribute a
    free factor of x each; the rest are counted by the prime-pattern walk,
    or by the pruned box scan where the walk declines the system.
    """
    x = operator.index(x)
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x**cs.k > _COUNT_GUARD:
        raise ResourceLimitError(f"x**k = {x}**{cs.k} exceeds the {_COUNT_GUARD} count guard")
    n = canonical_witness(cs)
    if max(n) > x or not delta(cs, n):
        return 0  # every solution is a multiple of the witness
    active = sorted(set(range(1, cs.k + 1)) - isolated_indices(cs))
    if not active:
        return x**cs.k
    hits = _walk(cs, active, x)
    if hits is None:
        hits = _scan(cs, active, x)
    return hits * x ** (cs.k - len(active))


def _scan(cs: ConditionSet, active: list[int], x: int) -> int:
    """Solutions in [1, x]^m over the active coordinates (every index of
    every condition), by a depth-first walk of the box in ascending index
    order.  A prefix is cut once a partial gcd stops being a multiple of
    its target (or, for a complete condition, equal to it); the last
    coordinate is tested for all of 1..x at once."""
    import numpy as np
    # per position: (condition, target, whether the position is its last index)
    steps = [
        [(ci, c.value, i == max(c.indices)) for ci, c in enumerate(cs.conditions) if i in c.indices]
        for i in active
    ]
    depth = len(active) - 1
    ns = np.arange(1, x + 1, dtype=np.int64)
    partial = [0] * len(cs.conditions)

    def walk(pos: int) -> int:
        if pos == depth:
            mask = np.ones(x, dtype=bool)
            for ci, value, complete in steps[pos]:
                g = np.gcd(partial[ci], ns)
                mask &= g == value if complete else g % value == 0
            return int(np.count_nonzero(mask))
        hits = 0
        for n in range(1, x + 1):
            saved = []
            for ci, value, complete in steps[pos]:
                g = gcd(partial[ci], n)
                if (g != value) if complete else (g % value != 0):
                    break
                saved.append((ci, partial[ci]))
                partial[ci] = g
            else:
                hits += walk(pos + 1)
            for ci, old in saved:
                partial[ci] = old
        return hits

    return walk(0)


def _exponent_cap(p: int, top: int, x: int) -> int:
    """min(top + 1, floor(log_p x)): past top + 1 every g_p vanishes, and
    past log_p x no d_i <= x has room."""
    cap, power = 0, p
    while cap <= top and power <= x:
        cap, power = cap + 1, power * p
    return cap


def _local_patterns(
    masks: list[int], orders: list[int], cap: int, m: int
) -> tuple[np.ndarray, list[int]]:
    """The exponent patterns a in {0..cap}^m with g_p(a) != 0, as the rows
    of an integer array with a_i in column i, and their weights g_p(a).

    g_p is the m-fold finite difference of the local indicator delta_p(a),
    which holds when min{a_i : i in T} equals orders[j] for every condition
    T = masks[j].  Rows ascend in sum a_i (cap + 1)^i, so with all orders 0
    and cap 1 (a prime dividing no target) row a is the index set S with
    bitmask a, in ascending order, and g(S) is the signed count of the
    independent subsets of S: 1 at the empty set, 0 at any other independent S.
    """
    import numpy as np
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


def _walk(cs: ConditionSet, active: list[int], x: int) -> int | None:
    """Solutions in [1, x]^m over the active coordinates, by the series
    sum of g(d) * prod_i floor(x / d_i) over d in [1, x]^m; None, before
    any summing, where the box scan is the better kernel.

    The walk declines m > 16, any target prime whose pattern grid exceeds
    _TABLE_LIMIT, and m > 4 when more than half of the 2^m index sets S
    have g(S) != 0: its node count grows with the nonzero patterns, the
    scan's cost with x^(m-1), and complete pairwise systems with m >= 5
    sit on the scan's side (timings in CHANGES.md).

    The target primes' patterns come first, each merging the partial
    products into distinct quotient vectors y = floor(x / d); every other
    prime then multiplies some dependent S by p, in ascending order.  A
    node sums its children's terms over a numpy array of primes at once
    and recurses only into children where a further prime still fits.
    """
    import numpy as np
    m = len(active)
    if m > _WALK_MAX_ACTIVE:
        return None
    masks = position_masks(cs, active)
    special = relevant_primes(cs)
    targets = []
    for p in special:
        orders = [padic_order(c.value, p) for c in cs.conditions]
        cap = _exponent_cap(p, max(orders), x)
        if (cap + 1) ** m > _TABLE_LIMIT:
            return None
        targets.append((p, orders, cap))
    sets, set_weights = _local_patterns(masks, [0] * len(masks), 1, m)
    if m > 4 and 2 * len(set_weights) > 1 << m:
        return None

    nodes = {(x,) * m: 1}
    for p, orders, cap in targets:
        exponents, weights = _local_patterns(masks, orders, cap, m)
        powers = p ** np.arange(cap + 1, dtype=np.int64)
        table = list(zip(map(tuple, powers[exponents].tolist()), weights))
        merged: dict[tuple[int, ...], int] = {}
        for y, w in nodes.items():
            for divisors, g in table:
                if all(d <= v for d, v in zip(divisors, y)):
                    child = tuple(v // d for v, d in zip(y, divisors))
                    merged[child] = merged.get(child, 0) + w * g
        nodes = {y: w for y, w in merged.items() if w}

    members = sets[1:].astype(bool)  # the empty set is the node itself
    pattern_weights = set_weights[1:]
    # every S with g(S) != 0 contains a condition set holding no other, so a
    # further prime fits exactly when it fits all of one such set
    minimal = [e for e in set(masks) if not any(f != e and f & e == f for f in masks)]
    edges = [[i for i in range(m) if e >> i & 1] for e in minimal]
    width = max(map(len, edges))
    edges = np.array([e + e[:1] * (width - len(e)) for e in edges])  # min ignores the repeats
    ps = primes_up_to(x)
    ps = np.append(ps[~np.isin(ps, special)], x + 1)  # x + 1 never fits
    ps_list = ps.tolist()

    def below(y: list[int], w: int, start: int) -> int:
        # the terms of every node reached from y by primes >= ps[start]
        ya = np.array(y, dtype=np.int64)
        limits = np.where(members, ya, x + 1).min(axis=1)
        live = np.flatnonzero(limits >= ps_list[start])
        if not live.size:
            return 0
        stop = bisect_right(ps_list, int(limits[live].max()), start)
        qs = ps[start:stop]
        z = np.where(members[live][:, :, None], ya[:, None] // qs, ya[:, None])
        terms = z.prod(axis=1)  # at most x^m <= x^k <= _COUNT_GUARD < 2^63: exact in int64
        sums = terms.sum(axis=1).tolist()
        total = w * sum(pattern_weights[s] * t for s, t in zip(live.tolist(), sums))
        fits = z[:, edges, :].min(axis=2).max(axis=1)
        deeper = (terms > 0) & (fits >= ps[start + 1 : stop + 1])
        for a, j in zip(*np.nonzero(deeper)):
            s = int(live[a])
            total += below(z[a, :, j].tolist(), w * pattern_weights[s], start + int(j) + 1)
        return total

    return sum(w * prod(y) + below(list(y), w, 0) for y, w in nodes.items())


def nymann_count(k: int, x: int) -> int:
    """Exact number of k-tuples <= x with overall gcd 1.

    Mobius inversion: sum over d <= x of mu(d) * floor(x/d)^k, taken over
    the runs of d with equal floor(x/d) as differences of the partial sums
    of mu.  Used as an independent oracle for the single full-gcd
    condition.  Guarded by x <= 10**7, since the sieve takes memory and
    time linear in x.
    """
    k = operator.index(k)
    x = operator.index(x)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > _NYMANN_LIMIT:
        raise ResourceLimitError(f"x = {x} exceeds the {_NYMANN_LIMIT} limit on the Mobius sieve")
    import numpy as np
    mertens = np.cumsum(mobius_up_to(x), dtype=np.int32)  # |M(n)| <= n
    total, d = 0, 1
    while d <= x:  # one term per distinct quotient q = x // d, about 2 sqrt(x)
        q = x // d
        last = x // q
        total += int(mertens[last] - mertens[d - 1]) * q**k
        d = last + 1
    return total


def _normalized(gap: float, x: int, exponent: int) -> float:
    if x == 1 and exponent > 0:
        return 0.0 if gap == 0.0 else inf
    return gap * x / log(x) ** exponent if exponent else gap * x


def empirical_report(cs: ConditionSet, x: int, density_result: DensityResult | float) -> CountReport:
    """Count up to x and compare the empirical density with the constant."""
    a = float(getattr(density_result, "value", density_result))
    n = count(cs, x)
    density = n / x**cs.k
    gap = abs(density - a)
    sharper = max((len(neighbors(cs, {i})) for i in range(1, cs.k + 1)), default=0)
    return CountReport(
        x=x,
        count=n,
        density=density,
        constant=a,
        normalized_error=_normalized(gap, x, cs.k - 1),
        sharper_log_exponent=sharper,
        sharper_normalized_error=_normalized(gap, x, sharper),
    )


def convergence_table(
    cs: ConditionSet, xs: list[int], density_result: DensityResult | float
) -> list[CountReport]:
    """One report per bound in ascending xs.

    The drift |density - constant| should shrink like 1/x up to log
    powers; the normalized columns make that visible at a glance.
    """
    bounds = [operator.index(x) for x in xs]
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ValueError(f"bounds must be strictly ascending, got {bounds}")
    return [empirical_report(cs, x, density_result) for x in bounds]

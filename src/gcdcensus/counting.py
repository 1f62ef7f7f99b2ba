"""Exact counts of satisfying tuples and convergence diagnostics.

The indicator delta of a system is multiplicative in every coordinate, so
delta = g * 1 coordinatewise (Dirichlet convolution).  `count` renumbers
the m coordinates that lie in some condition as 1..m (each other one is a
free factor x), and then

    count(x) = sum over d in [1, x]^m of g(d) * prod_i floor(x / d_i),

with g(d) = prod_p g_p(v_p(d)): the Dirichlet-series view of the paper.
At each prime, `_local_patterns` lists the index sets S where g_p(v + S), v the
forced orders, is nonzero, from the cores of padic.core_masks that the density
constant sums too; g_p vanishes at every other pattern.  Every solution is a
multiple of the canonical witness n, so `_walk` sums the series over the
quotients x // n_i, prime by prime in ascending order with exact ints; it
sieves to the largest quotient, and its target primes are the sieved primes
dividing n, so nothing is factored.  Indices are twins when swapping them
maps the system onto itself; the walk sums one vector per orbit of the twin
swaps and memoizes each node's sum on its orbit.  On dense systems with many active
coordinates it loses to `_scan`, a depth-first box scan over per-position
bitsets, so it declines those (returns None) before it sums anything, and
`count` runs the scan.  Each kernel charges its work to one budget, a loop at a
time, and refuses once the work would pass it.  The tests keep full-box
enumeration as the oracle for both, the finite difference of delta_p on a dense
exponent grid and the subset Mobius transform over all 2^m sets for the tables,
and `nymann_count`, a Mobius sum over the Mertens function, for the
fully-coprime system.  Everything here is pure Python.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from functools import partial
from itertools import accumulate
from math import gcd, inf, log, log10, prod
from typing import TYPE_CHECKING, Callable, Iterable

from .errors import ResourceLimitError
from .model import Condition, ConditionSet, Record, _bits, canonical_witness, delta, isolated_indices, neighbors
from .padic import _orders, core_masks
from .primes import mobius_up_to, primes_up_to

if TYPE_CHECKING:
    from .density import DensityResult

_NYMANN_LIMIT = 10**9  # the Mertens table to 10^9 takes about 1 s and 50 MB

# count's budget, in steps of about 1 us (0.5-1.4 us on a 2-vCPU VM), so a refusal
# comes within about 3 s; {(1,2): 6, (2,3): 10} at x = 10^6 charges 0.95 million
# steps to the walk, which takes 0.45-0.75 s there.
_COUNT_STEPS = 3 * 10**6

# The walk declines systems with more active coordinates (path k=20 at x = 3 took 66 s in it).
_WALK_MAX_ACTIVE = 16


class CountReport(Record):
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

    Coordinates in no condition contribute a free factor of x each; the rest
    are counted by the prime-pattern walk, or by the pruned box scan where
    the walk declines after its witness check.  Neither factors a target, and
    either raises ResourceLimitError past _COUNT_STEPS steps of about 1 us.
    """
    x = operator.index(x)
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    active = sorted(set(range(1, cs.k + 1)) - isolated_indices(cs))
    if not active:
        return x**cs.k
    rank = {i: r for r, i in enumerate(active, 1)}
    renumbered = (Condition(frozenset(rank[i] for i in c.indices), c.value) for c in cs.conditions)
    sub = ConditionSet(len(active), tuple(renumbered))
    hits = _walk(sub, x)
    return (_scan(sub, x) if hits is None else hits) * x ** (cs.k - sub.k)


def _meter(kernel: str, budget: int) -> Callable[[int], None]:
    """charge(steps), which raises ResourceLimitError once the steps charged pass budget."""
    spent = 0

    def charge(steps: int) -> None:
        nonlocal spent
        spent += steps
        if spent > budget:
            shown = spent if spent < 10**18 else f"10^{log10(spent):.0f}"  # x itself may pass the digit limit
            raise ResourceLimitError(f"count's {kernel} needs over {shown} steps, past its budget of {budget}")

    return charge


def _scan(sub: ConditionSet, x: int, budget: int = _COUNT_STEPS) -> int:
    """Solutions in [1, x]^m of sub, by a depth-first walk of the box in
    ascending index order.  The n allowed at a position are the AND of one
    cached int bitset (bit n for n) per condition there: the multiples of
    its target, or at its last index the n whose gcd with the condition's
    other values equals it.  The walk visits the set bits, and counts the
    last position's by bit_count().  A node charges its children's visits
    before it makes them, by the gcds and bitset words each takes, and a
    bitset is charged before it is built, in time quadratic in x.
    """
    charge = _meter("scan", budget)
    words = 1 + x // 64  # per bitset; an AND of 8 words costs about as much as a gcd
    steps = [  # per position, each condition there: its target, its other indices if it ends there, its bitsets
        [(c.value, [j - 1 for j in c.indices if j < i] if i == max(c.indices) else [], {})
         for c in sub.conditions if i in c.indices]
        for i in range(1, sub.k + 1)
    ]
    visit = [(6 + sum(len(before) + 1 + words // 8 for _, before, _ in step)) // 4 for step in steps]
    charge(visit[0] + words)

    def walk(prefix: list[int]) -> int:
        allowed = (1 << x + 1) - 2
        for value, before, bitsets in steps[len(prefix)]:
            g = 0  # stays 0 while the condition goes on: the multiples of value
            for j in before:
                g = gcd(g, prefix[j])
            if g not in bitsets:
                charge(words * (1 + x // value))  # each bit is added to the sum so far
                bitsets[g] = sum(1 << n for n in range(value, x + 1, value) if not g or gcd(g, n) == value)
            allowed &= bitsets[g]
        if len(prefix) == sub.k - 1:
            return allowed.bit_count()
        charge(allowed.bit_count() * visit[len(prefix) + 1])
        return sum(walk(prefix + [n]) for n in _bits(allowed))

    return walk([])


def _local_patterns(
    cores: Iterable[int], charge: Callable[[int], None] = lambda steps: None, limit: float = inf
) -> tuple[list[int], list[int]]:
    """The index sets S with g(S) != 0, as ascending bitmasks, and their
    weights g(S): the Mobius inversion of "S holds no whole core" on the
    Boolean lattice (Rota 1964), 1 at the empty set.  At a prime with forced
    orders v and these cores (padic.core_masks), g_p(v + S) = g(S) and g_p
    vanishes off v + {0,1}^m; at a prime dividing no target, v = 0 and the
    cores are the condition sets.

    Only the minimal cores matter, and g(S) is the sum of (-1)^|F| over the
    families F of them whose union is S: one pass over the weights per core,
    which stay on the unions of cores.  Each pass is charged before it runs,
    and two empty lists come back once the unions pass limit entries.
    """
    cores = set(cores)
    charge(len(cores) ** 2 // 16)  # the minimality tests
    weights = {0: 1}
    get = weights.get
    for core in cores:
        if any(c != core and c & core == c for c in cores):
            continue  # holding core means holding a smaller one
        charge(len(weights))
        for s, w in zip(list(weights), list(weights.values())):  # no tuple per entry kept
            u = s | core
            weights[u] = get(u, 0) - w
        if len(weights) > limit:
            return [], []
    sets = sorted(filter(get, weights))
    return sets, list(map(weights.__getitem__, sets))


def _walk(sub: ConditionSet, x: int, budget: int = _COUNT_STEPS) -> int | None:
    """Solutions in [1, x]^m of sub, by the series sum of g(d) * prod_i
    floor(x / d_i) over d in [1, x]^m: 0 unless the canonical witness n is a
    solution in the box, then None, before any summing, where the scan wins.

    The walk declines m > 16, and m > 4 when every pair of indices is a
    condition or more than half of the 2^m index sets S have g(S) != 0: its
    node count grows with the nonzero patterns, the scan's cost with
    x^(m-1), and complete pairwise systems with m >= 5 sit on the scan's
    side (timings in CHANGES.md).  The generic table stops early once the
    unions of conditions, which hold those S, pass three quarters of the sets.

    It starts at the quotients x // n_i and sieves only to the largest; the
    sieved primes that divide n are its target primes, whose tables come first,
    from their cores: each row S divides the indices in S by p, merging the
    partial products into distinct quotient vectors y, y_i = x // (n_i d_i),
    rows with a divisor above y dropped.  A target prime above every quotient,
    left unsieved, would keep only the empty row, of weight 1 as the witness
    check leaves no core empty.  Every other prime then multiplies some
    dependent S by p, in ascending order.  At a node, one bitmask test per
    pattern keeps those whose indices all still hold the next prime.  For each,
    the node takes primes one at a time, recursing into each child, while a
    further prime can still fit a minimal condition set (every S with g(S) != 0
    contains one).  It sums the remaining primes up to the pattern's limit min
    y_i one at a time below about 4 sqrt(y), where runs are short, and above
    that over runs of equal quotients floor(y_i / q), counting each run's
    primes by bisection (Deleglise and Rivat 1996): O(sqrt(y)) steps, not
    pi(y).  Every term is an exact Python int.  Every table entry, node merge,
    sieved number, remainder, node and run is charged before the walk makes it,
    and the single primes of a pattern as their loop ends: at most
    pi(4 sqrt(max y)) of them.

    Every step above is unchanged by a swap of twins (_twin_classes): the
    root, fits, each target prime's cores and table, and the live patterns.
    So the walk keeps one vector per orbit, each twin class's values sorted
    at that class's own positions, and merges the target primes' nodes under
    that form.  below returns its sum per unit weight, which the parent
    multiplies by w * g, memoized on (sorted y, start): exact, since a node's
    live patterns are the root's filtered by big, which reads only y and
    ps[start].  Each lookup is charged one step before it runs.  Without
    twins nothing is sorted or memoized: a memo there found no hits on
    README's system and raised count's peak RSS at x = 3 * 10^6 from 17.1 to
    23.9 MB (2-vCPU VM, Python 3.11).
    """
    m = sub.k
    n = canonical_witness(sub)
    if max(n) > x or not delta(sub, n):
        return 0  # every solution is a multiple of the witness
    if m > _WALK_MAX_ACTIVE:
        return None
    charge = _meter("walk", budget)
    masks = sub.edge_masks
    if m > 4 and sum(e.bit_count() == 2 for e in masks) == m * (m - 1) // 2:
        return None  # every pair is a condition: no unions needed
    sets, set_weights = _local_patterns(masks, charge, 3 << m - 2 if m > 4 else inf)
    if m > 4 and (not sets or 2 * len(sets) > 1 << m):
        return None
    root = tuple(x // v for v in n)
    largest = max(root)
    charge(largest // 16)  # the sieve to it and its list of primes (about 100 MB at most), before any node
    sieved, whole = primes_up_to(largest), prod(n)
    charge(len(sieved) * (455 + whole.bit_length()) // 3500)  # a remainder: 0.13 us, and 1 us per 3500 bits

    groups = [(c, operator.itemgetter(*c)) for c in _twin_classes(sub) if len(c) > 1]
    canon = partial(_canonical, groups) if groups else tuple  # without twins each vector is its own orbit
    nodes, ps = {root: 1}, []  # ps: the sieved primes that divide no target
    for p in sieved:
        if whole % p:
            ps.append(p)
            continue
        # a row raising an index outside fits sends its quotient to 0, and
        # only the cores inside fits decide g on the other rows
        fits = sum(1 << i for i, y in enumerate(root) if y >= p)
        cores = [c for c in core_masks(*_orders(sub, p))[1] if not c & ~fits]
        table = [
            (tuple(p if s >> i & 1 else 1 for i in range(m)), g) for s, g in zip(*_local_patterns(cores, charge))
        ]
        charge(len(nodes) * len(table) * (1 + m // 4))
        merged: dict[tuple[int, ...], int] = {}
        for y, w in nodes.items():
            for divisors, g in table:
                if all(map(operator.le, divisors, y)):
                    child = canon(map(operator.floordiv, y, divisors))
                    merged[child] = merged.get(child, 0) + w * g
        nodes = {y: w for y, w in merged.items() if w}

    minimal = {e for e in masks if not any(f != e and f & e == f for f in masks)}  # charged in the generic table
    edges = [operator.itemgetter(*(i for i in range(m) if e >> i & 1)) for e in minimal]  # two or more each
    members: dict[int, list[int]] = {}  # filled as patterns first go live
    charge(len(nodes))  # a call per node
    ps.append(largest + 1)  # never fits
    patterns = list(zip(sets[1:], set_weights[1:]))  # the empty set is the node itself

    def below(y: tuple[int, ...], start: int, patterns: list[tuple[int, int]]) -> int:
        # the terms of every node reached from y by primes >= ps[start], per
        # unit of y's weight; a pattern not live at the parent is not live here
        q = ps[start]
        big = sum(1 << i for i, v in enumerate(y) if v >= q)
        if not big:
            return 0
        live = [(s, g) for s, g in patterns if s & big == s]
        charge(len(patterns) // 16 + 6 * len(live))
        terms, total, whole = 0, 0, prod(y)
        for s, g in live:
            inside = members.get(s) or members.setdefault(s, [i for i in range(m) if s >> i & 1])
            ys = [y[i] for i in inside]
            limit = min(ys)
            j, q = start, ps[start]
            while q <= limit:  # one prime at a time while a child can take a further prime
                z = list(y)
                for i in inside:
                    z[i] //= q
                if not any(min(e(z)) >= ps[j + 1] for e in edges):
                    break
                terms += g * prod(z)
                total += g * visit(z, j + 1, live)
                j += 1
                q = ps[j]
            rest = g * whole // prod(ys)
            top, first = 16 * max(ys), j
            while q <= limit and q * q <= top:  # runs below 4 sqrt(y) hold a prime or two: one at a time
                terms += rest * prod([v // q for v in ys])
                j += 1
                q = ps[j]
            # those primes as their loop ends, and a run per change of a quotient at most
            charge(j - first + (3 + 3 * sum(v // q - v // limit for v in ys) if q <= limit else 0))
            while q <= limit:  # runs of primes with equal quotients
                quotients = [v // q for v in ys]
                last = min(map(operator.floordiv, ys, quotients))
                k = bisect_right(ps, last, j)
                terms += rest * prod(quotients) * (k - j)
                j = k
                q = ps[j]
        return terms + total

    if groups:
        memo: dict[tuple[tuple[int, ...], int], int] = {}

        def visit(y: Iterable[int], start: int, patterns: list[tuple[int, int]]) -> int:
            charge(1)  # the lookup
            key = canon(y), start
            value = memo.get(key)
            if value is None:
                value = memo[key] = below(key[0], start, patterns)
            return value

    else:
        visit = below

    return sum(w * (prod(y) + visit(y, 0, patterns)) for y, w in nodes.items())


def _canonical(groups: list[tuple[list[int], Callable]], y: Iterable[int]) -> tuple[int, ...]:
    """The representative of y's orbit under the twin swaps: each class's
    values sorted, back at that class's own positions."""
    z = list(y)
    for positions, get in groups:
        for i, v in zip(positions, sorted(get(z))):
            z[i] = v
    return tuple(z)


def _twin_classes(sub: ConditionSet) -> list[list[int]]:
    """The twin classes of sub, as ascending lists of 0-based positions:
    i and j are twins when swapping them maps the set of (mask, target)
    pairs onto itself.  Such swaps compose, so each index is compared with
    the first member of each class found so far."""
    system = {(c.mask, c.value) for c in sub.conditions}
    classes: list[list[int]] = []
    for i in range(sub.k):
        for members in classes:
            flip = 1 << i | 1 << members[0]
            # only a condition holding exactly one of the two moves
            if all((e ^ flip, v) in system for e, v in system if (e & flip).bit_count() == 1):
                members.append(i)
                break
        else:
            classes.append([i])
    return classes


def _mertens(x: int) -> Callable[[int], int]:
    """M(n) = mu(1) + ... + mu(n) at n = 0 and every n = x // j.  Up to
    s = x^(2/3) it reads the partial sums of mobius_up_to(s); above s, for n
    ascending, M(n) = 1 - sum over d >= 2 of M(n // d), over the runs of
    equal n // d (Deleglise and Rivat 1996): O(x^(2/3)) steps in all."""
    s = int(x ** (2 / 3))
    small = list(accumulate(mobius_up_to(s)))
    big: dict[int, int] = {}
    for n in (x // j for j in range(x // (s + 1), 0, -1)):
        total, d = 1, 2
        while d <= n:
            q = n // d
            last = n // q
            total -= (last - d + 1) * (small[q] if q <= s else big[q])
            d = last + 1
        big[n] = total
    return lambda n: small[n] if n <= s else big[n]


def nymann_count(k: int, x: int) -> int:
    """Exact number of k-tuples <= x with overall gcd 1.

    Mobius inversion: sum over d <= x of mu(d) * floor(x/d)^k, taken over
    the runs of d with equal floor(x/d) as differences of the Mertens
    function.  Used as an independent oracle for the single full-gcd
    condition.  Guarded by x <= 10**9, where the Mertens table takes
    about 1 s.
    """
    k = operator.index(k)
    x = operator.index(x)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > _NYMANN_LIMIT:
        raise ResourceLimitError(f"x = {x} exceeds the {_NYMANN_LIMIT} limit on the Mertens function")
    mertens = _mertens(x)
    total, d = 0, 1
    while d <= x:  # one term per distinct quotient q = x // d, about 2 sqrt(x)
        q = x // d
        last = x // q
        total += (mertens(last) - mertens(d - 1)) * q**k
        d = last + 1
    return total


def _normalized(gap: float, x: int, exponent: int) -> float:
    try:
        return gap * x / log(x) ** exponent if exponent else gap * x
    except (ZeroDivisionError, OverflowError):  # log 1 = 0 under a power, or x past the float range
        return inf if gap else 0.0


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

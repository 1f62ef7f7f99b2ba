"""Seeded job corpora for the four benchmark workloads.

A job is one `gcdcensus` CLI invocation: a subcommand, a condition-system
document and its arguments, plus what the output must satisfy.  Each
workload draws its systems from a fixed list of slots; the seed varies
edges, targets and box sizes inside a slot but not the kind of work, so that the cost of a corpus moves little from seed to seed.

Everything here is computed by the benchmark itself (cover sizes, tail
constants), never by the package under test: a change to the package
must not change the inputs it is measured on.
"""

from __future__ import annotations

import itertools
import random
from math import comb, gcd

import numpy as np

WORKLOADS = ("constant-wide", "constant-deep", "count-sparse", "count-dense")

DEEP_CUTOFF = 10**8
# constant-wide keeps every cutoff at or below this, so the sieve stays minor
WIDE_MAX_CUTOFF = 10**7

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _mask(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << (i - 1)
    return m


def greedy_cover(edges: list[tuple[int, ...]]) -> int:
    """Cover bitmask: add the index in most deficient edges until every
    edge has at most one index outside."""
    masks = [_mask(e) for e in edges]
    cur = 0
    while True:
        deficient = [m & ~cur for m in masks if (m & ~cur).bit_count() >= 2]
        if not deficient:
            return cur
        counts: dict[int, int] = {}
        for d in deficient:
            while d:
                b = d & -d
                d &= d - 1
                counts[b] = counts.get(b, 0) + 1
        cur |= max(counts, key=lambda b: (counts[b], -b))


def subset_sums(edges: list[tuple[int, ...]], cover: int) -> tuple[int, int]:
    """(C, number of independent subsets of the cover) for a system.

    C = sum |c_j| (j >= 2) of the generic factor polynomial, which sums
    (1-t)^e t^|V| over the independent subsets V of the cover, with
    e = |cover| - |V| + |outside neighbours of V|; vectorized over masks.
    """
    bits = [b for b in range(cover.bit_length()) if cover >> b & 1]
    idx = np.arange(1 << len(bits), dtype=np.int64)
    subsets = np.zeros_like(idx)
    for j, b in enumerate(bits):
        subsets |= ((idx >> j) & 1) << b
    independent = np.ones(idx.size, dtype=bool)
    outside = np.zeros_like(idx)
    for m in map(_mask, edges):
        inside, out = m & cover, m & ~cover
        holds = (subsets & inside) == inside
        if out:
            outside |= np.where(holds, out, 0)
        else:
            independent &= ~holds
    size = np.bitwise_count(subsets[independent]).astype(np.int64)
    expo = len(bits) - size + np.bitwise_count(outside[independent]).astype(np.int64)
    k = max(max(e) for e in edges)
    coeffs = [0] * (k + 1)
    pairs, counts = np.unique(np.stack([size, expo]), axis=1, return_counts=True)
    for (v, e), n in zip(pairs.T.tolist(), counts.tolist()):
        for j in range(e + 1):
            coeffs[v + j] += int(n) * comb(e, j) * (-1) ** j
    return sum(abs(c) for c in coeffs[2:]), int(independent.sum())


def cutoff_for(tail_c: int) -> int:
    """Smallest power of ten >= max(10**6, 2C): the tail bound then holds."""
    p = 10**6
    while p < 2 * tail_c:
        p *= 10
    return p


def _gcd_targets(n, edges) -> dict:
    """The target of each edge: the gcd of the tuple entries it joins."""
    out = {}
    for e in edges:
        g = 0
        for i in e:
            g = gcd(g, n[i])
        out[e] = g
    return out


def _targets(rng, k, edges, n_special):
    """Targets as gcds of a seeded tuple, so the system is admissible.

    Each special prime goes into every index of one edge plus two random
    indices, so it divides at least one target.
    """
    n = [1] * (k + 1)
    for p in rng.sample(_SMALL_PRIMES, n_special):
        chosen = set(rng.choice(edges)) | set(rng.sample(range(1, k + 1), 2))
        for i in chosen:
            n[i] *= p ** rng.choice((1, 2))
    return _gcd_targets(n, edges)


def _doc(k, targets) -> dict:
    return {
        "k": k,
        "conditions": [{"indices": list(e), "gcd": g} for e, g in sorted(targets.items())],
    }


def _random_edges(rng, k, n_pairs, n_triples):
    edges: set[tuple[int, ...]] = set()
    while len(edges) < n_pairs:
        edges.add(tuple(sorted(rng.sample(range(1, k + 1), 2))))
    while len(edges) < n_pairs + n_triples:
        edges.add(tuple(sorted(rng.sample(range(1, k + 1), 3))))
    return sorted(edges)


def _constant_job(name, k, targets, cutoff, oracle=None):
    return {
        "name": name,
        "command": "constant",
        "doc": _doc(k, targets),
        "args": ["--prime-bound", str(cutoff)],
        "oracle": oracle,
    }


def _count_job(name, k, targets, x, oracle=None):
    return {
        "name": name,
        "command": "count",
        "doc": _doc(k, targets),
        "args": ["--limit", str(x)],
        "x": x,
        "k": k,
        "oracle": oracle,
    }


def _add_distinct(jobs, make):
    """Append make(), drawing again while its system is already in jobs."""
    while True:
        job = make()
        if all(j["doc"] != job["doc"] for j in jobs):
            jobs.append(job)
            return


def _rwise_edges(n, r):
    return list(itertools.combinations(range(1, n + 1), r))


def _constant_wide(rng):
    # nine jobs, so the median job is the fixed 4-wise-k14 and not a seeded one
    jobs = []
    for n, r in ((14, 2), (16, 2), (18, 2), (15, 3), (14, 4)):
        edges = _rwise_edges(n, r)
        cutoff = cutoff_for(subset_sums(edges, greedy_cover(edges))[0])
        oracle = ["toth", n] if r == 2 else ["rwise", n, r]
        jobs.append(_constant_job(f"{r}-wise-k{n}", n, dict.fromkeys(edges, 1), cutoff, oracle))
    # Sparse pair graphs with three 3-sets.  A slot fixes k, the cover size,
    # a band for the number of independent subsets (the interquartile range
    # of random draws) and the number of special primes, larger covers
    # getting fewer since each special prime adds a subset sum over the
    # cover; graphs are drawn until they fit and the cutoff stays at most
    # WIDE_MAX_CUTOFF.  This keeps the cost of a slot steady across seeds.
    for k, size, lo, hi, n_special in (
        (22, 12, 440, 640, 3),
        (26, 15, 1700, 2800, 2),
        (28, 16, 2850, 4450, 1),
        (30, 17, 5150, 9050, 0),
    ):
        while True:
            edges = _random_edges(rng, k, round(1.55 * k), 3)
            w = greedy_cover(edges)
            if w.bit_count() != size:
                continue
            tail_c, n_independent = subset_sums(edges, w)
            cutoff = cutoff_for(tail_c)
            if lo <= n_independent <= hi and cutoff <= WIDE_MAX_CUTOFF:
                break
        targets = _targets(rng, k, edges, n_special)
        jobs.append(_constant_job(f"sparse-k{k}", k, targets, cutoff))
    return jobs


def _constant_deep(rng):
    jobs = [
        _constant_job("three-condition", 3, {(1, 2): 6, (2, 3): 10}, DEEP_CUTOFF),
        _constant_job("cascade", 5, {(1, 2, 3): 1, (3, 4): 2, (4, 5): 4}, DEEP_CUTOFF),
    ]
    # six jobs of about 1 s each, so a 20 s run holds three whole passes
    for n in (4, 6, 8):
        edges = _rwise_edges(n, 2)
        jobs.append(_constant_job(f"2-wise-k{n}", n, dict.fromkeys(edges, 1), DEEP_CUTOFF, ["toth", n]))
    k = rng.randint(5, 8)
    edges = _random_edges(rng, k, k - 1, 1)
    jobs.append(_constant_job(f"small-k{k}", k, _targets(rng, k, edges, rng.randint(1, 3)), DEEP_CUTOFF))
    return jobs


_COMPOSITES = (6, 10, 12, 14, 15, 18, 20, 21)


def _composite_targets(rng, k, edges):
    """Targets from a seeded tuple, redrawn until every target is composite."""
    while True:
        n = [1] + [rng.choice(_COMPOSITES) * rng.choice((1, 1, 2, 3, 5)) for _ in range(k)]
        targets = _gcd_targets(n, edges)
        if all(g >= 4 and g not in _SMALL_PRIMES for g in targets.values()):
            return targets


def scan_seconds(k, targets, x) -> float:
    """Modelled time of the package's pruned box scan on this system.

    The scan walks coordinates 1..k in order, keeping a prefix while each
    partial gcd is still a multiple of its target (or equals it once the
    condition is complete), and vectorizes the last coordinate.  Its cost
    is about 4.5e-7 s per prefix step plus 4.8e-8 s per element of the
    last-coordinate arrays (fitted on a 2-core Xeon).  Prefixes are
    grouped by their partial gcds, so this takes milliseconds.
    """
    conds = [(set(e), max(e), t) for e, t in sorted(targets.items())]
    ns = np.arange(1, x + 1, dtype=np.int64)
    states = {(0,) * len(conds): 1}
    steps = 0
    for i in range(1, k):
        steps += x * sum(states.values())
        grown: dict[tuple, int] = {}
        for state, mult in states.items():
            ok = np.ones(x, dtype=bool)
            cols = []
            for ci, (indices, last, t) in enumerate(conds):
                if i in indices:
                    g = np.gcd(state[ci], ns)
                    ok &= (g == t) if i == last else (g % t == 0)
                    cols.append(g)
                else:
                    cols.append(np.full(x, state[ci]))
            if ok.any():
                uniq, n = np.unique(np.stack(cols)[:, ok], axis=1, return_counts=True)
                for col, c in zip(map(tuple, uniq.T.tolist()), n.tolist()):
                    grown[col] = grown.get(col, 0) + c * mult
        states = grown
    return 4.5e-7 * steps + 4.8e-8 * x * sum(states.values())


def _box_for(k, targets, seconds, lo, hi) -> int:
    """The box size in [lo, hi] whose modelled scan time is nearest `seconds`."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if scan_seconds(k, targets, mid) < seconds:
            lo = mid
        else:
            hi = mid
    return hi if scan_seconds(k, targets, hi) <= seconds else lo


# Modelled scan time per count-sparse job; CLI start-up adds about 0.2 s.
SPARSE_SCAN_S = 0.06


def _count_sparse(rng):
    # the box size is chosen per system so that every job does about the
    # same scan work whatever targets the seed drew
    slots = (
        ("path3-a", 3, [(1, 2), (2, 3)]),
        ("path3-b", 3, [(1, 2), (2, 3)]),
        ("path3-c", 3, [(1, 2), (2, 3)]),
        ("vee3", 3, [(1, 2), (1, 3)]),
        ("tri3", 3, [(1, 2), (2, 3), (1, 2, 3)]),
        ("path4", 4, [(1, 2), (2, 3), (3, 4)]),
        ("star4", 4, [(1, 2), (1, 3), (1, 4)]),
        ("split4", 4, [(1, 2), (3, 4)]),
        ("tail4", 4, [(1, 2, 3), (3, 4)]),
    )
    jobs: list[dict] = []
    for name, k, edges in slots:

        def make():
            # 316**4 stays under the package's x**k <= 10**10 count guard
            lo, hi = (300, 2000) if k == 3 else (60, 316)
            while True:
                targets = _composite_targets(rng, k, edges)
                x = _box_for(k, targets, SPARSE_SCAN_S, lo, hi)
                if abs(scan_seconds(k, targets, x) / SPARSE_SCAN_S - 1) < 0.1:
                    return _count_job(name, k, targets, x)

        _add_distinct(jobs, make)
    return jobs


def _count_dense(rng):
    # scan time grows like x**(k-1), so the seed moves each box by at most
    # one step; the three jobs take about 1, 1.3 and 2 s so that the
    # median job is always the full-gcd one
    return [
        _count_job("2-wise-k4", 4, dict.fromkeys(_rwise_edges(4, 2), 1), rng.randint(57, 58)),
        _count_job("cascade-k5", 5, {(1, 2, 3): 1, (3, 4): 1, (4, 5): 1}, 26),
        _count_job("full-gcd-k3", 3, {(1, 2, 3): 1}, rng.randint(320, 324), ["nymann", 3]),
    ]


_BUILDERS = {
    "constant-wide": _constant_wide,
    "constant-deep": _constant_deep,
    "count-sparse": _count_sparse,
    "count-dense": _count_dense,
}


def build(workload: str, seed: int) -> list[dict]:
    """The corpus of `workload` for `seed`: a list of distinct jobs."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs

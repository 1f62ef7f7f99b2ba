#!/usr/bin/env python3
"""Building condition systems and exploring their hypergraph structure.

A condition system on S = {1, ..., k} attaches an exact gcd target to
each of a family of index sets: the pair ((1, 2) -> 6, (2, 3) -> 10)
below demands gcd(n1, n2) == 6 and gcd(n2, n3) == 10.  This script walks
through the combinatorial predicates everything else is built on.
"""

from gcdcensus import (
    condition_set,
    delta,
    enumerate_independent_subsets,
    find_cover,
    is_cover,
    is_independent,
    isolated_indices,
    neighbors,
)

cs = condition_set(3, {(1, 2): 6, (2, 3): 10})
print("system:", [(sorted(c.indices), c.value) for c in cs.conditions])

# delta is the satisfaction indicator
print("\ndelta(6, 30, 10) =", delta(cs, (6, 30, 10)))
print("delta(6, 30, 11) =", delta(cs, (6, 30, 11)))

# A cover is a set of indices leaving at most one index of every
# condition outside; covers describe the paper's per-prime view, which
# `gcdcensus factors` prints.
print("\nis_cover({2}):", is_cover(cs, {2}))
print("is_cover({1}):", is_cover(cs, {1}))
print("find_cover:", sorted(find_cover(cs)))

# Neighbors of W are the indices that stick out of W by exactly one
# condition; independent sets contain no condition entirely.
print("\nneighbors({2}):", sorted(neighbors(cs, {2})))
print("is_independent({1, 3}):", is_independent(cs, {1, 3}))
print("is_independent({1, 2}):", is_independent(cs, {1, 2}))

print("\nindependent subsets of {1, 2, 3}:")
for sub in enumerate_independent_subsets(cs, {1, 2, 3}):
    print("  ", sorted(sub))

# Indices in no condition are isolated; they are completely free.
wide = condition_set(5, {(1, 2): 1, (2, 4): 3})
print("\nisolated indices of the wider system:", sorted(isolated_indices(wide)))

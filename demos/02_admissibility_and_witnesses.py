#!/usr/bin/env python3
"""Deciding solvability and constructing canonical witness tuples.

Not every assignment of gcd targets can be met.  Requiring
gcd(n1, n2) = gcd(n1, n3) = 2 forces n2 and n3 both even, which clashes
with gcd(n2, n3) = 1.  Each coordinate must be a multiple of every target
on its index, so of their lcm; the system is solvable exactly when those
lcms meet every condition.  Prime by prime: at each prime dividing a
target, a condition's exponent must equal the smallest forced exponent
over its indices.
"""

from gcdcensus import (
    brute_force_find,
    condition_set,
    delta,
    is_admissible,
    witness,
)

solvable = condition_set(3, {(1, 2): 2, (1, 3): 1, (2, 3): 1})
clash = condition_set(3, {(1, 2): 2, (1, 3): 2, (2, 3): 1})

report = is_admissible(solvable)
print("solvable system admissible:", bool(report))

report = is_admissible(clash)
print("clashing system admissible:", bool(report))
p, t = report.violation
print("  first violation: prime", p, "on indices", sorted(t))

# The canonical witness multiplies each coordinate's forced prime powers,
# which is the lcm of the targets on that index.
w = witness(solvable)
print("\nwitness for the solvable system:", w, "delta:", delta(solvable, w))

w = witness(condition_set(3, {(1, 2): 6, (2, 3): 10}))
print("witness for (12)->6, (23)->10:", w)

# Exhaustive search agrees: it finds a tuple exactly when one exists,
# and the first tuple it finds is divisible by every forced prime power.
print("\nsearch in [1, 16]^3:")
print("  solvable ->", brute_force_find(solvable, 16))
print("  clashing ->", brute_force_find(clash, 16))

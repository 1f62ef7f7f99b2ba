#!/usr/bin/env python3
"""Exact counts converging to the density constant.

count(cs, x) is exact: it sums the system's Dirichlet series, g(d) times
prod floor(x / d_i) over d in [1, x]^k, prime by prime (or, on dense
systems with many constrained indices, scans the box, ANDing one bitset of
allowed values per condition at each index), so the empirical density
count / x^k can be compared against the Euler-product constant.  For
coprime pairs nymann_count reaches x = 10^8 by the Mertens function.  The
drift shrinks like 1/x up to a power of log x; the normalized_error column
rescales it by x / (log x)^(k-1) to make the convergence visible.
"""

from gcdcensus import condition_set, constant, convergence_table, count, nymann_count

pairwise = condition_set(2, {(1, 2): 1})
print("coprime pairs up to 10:", count(pairwise, 10))
print("Mobius-inversion oracle:", nymann_count(2, 10))

res = constant(pairwise, prime_cutoff=10**6)
density = nymann_count(2, 10**8) / 10**16
print("coprime-pair density at x = 10^8: %.10f, constant %.10f" % (density, res.value))
print("\nconvergence of coprime-pair density toward %.7f:" % res.value)
print("%6s %10s %10s %12s %12s" % ("x", "count", "density", "gap", "normalized"))
for row in convergence_table(pairwise, [100, 300, 1000, 3000], res):
    gap = abs(row.density - row.constant)
    print("%6d %10d %10.6f %12.2e %12.4f" % (row.x, row.count, row.density, gap, row.normalized_error))

mixed = condition_set(3, {(1, 2): 1, (2, 3): 2})
res = constant(mixed, prime_cutoff=10**6)
print("\nmixed system gcd(n1,n2)=1, gcd(n2,n3)=2, constant %.7f:" % res.value)
print("%6s %10s %10s %12s %12s" % ("x", "count", "density", "gap", "normalized"))
for row in convergence_table(mixed, [50, 100, 300], res):
    gap = abs(row.density - row.constant)
    print("%6d %10d %10.6f %12.2e %12.4f" % (row.x, row.count, row.density, gap, row.normalized_error))

# the sharper exponent: the largest pairwise degree of any index
row = convergence_table(mixed, [100], res)[0]
print("\nsharper log exponent for the mixed system:", row.sharper_log_exponent)

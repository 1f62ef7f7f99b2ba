#!/usr/bin/env python3
"""Exact counts converging to the density constant.

count(cs, x) is exact: it sums the system's Dirichlet series, g(d) times
prod floor(x / d_i) over d in [1, x]^k, prime by prime (or, on dense
systems with many constrained indices, scans the box, ANDing one bitset of
allowed values per condition at each index), so the empirical density
count / x^k can be compared against the Euler-product constant.  count has
no limit on x, only a budget on its work: the mixed system below is counted
to x = 30000 and checked against a sum over its middle coordinate.  For
coprime pairs nymann_count reaches x = 10^8 by the Mertens function.  The
drift shrinks like 1/x up to a power of log x; the normalized_error column
rescales it by x / (log x)^(k-1) to make the convergence visible.
"""

from gcdcensus import condition_set, constant, convergence_table, count, nymann_count


def prime_to(bound, modulus):
    """#{a <= bound : gcd(a, modulus) = 1}, by inclusion-exclusion over the
    primes of modulus, found by trial division."""
    terms, n, p = {1: 1}, modulus, 2
    while n > 1:
        if p * p > n:
            p = n
        if n % p == 0:
            terms.update({d * p: -mu for d, mu in list(terms.items())})
            while n % p == 0:
                n //= p
        p += 1
    return sum(mu * (bound // d) for d, mu in terms.items())


def mixed_by_middle(x):
    """The mixed system's count one even n2 at a time: n1 prime to n2, and
    n3 = 2b with b <= x // 2 prime to n2 / 2."""
    return sum(prime_to(x, n2) * prime_to(x // 2, n2 // 2) for n2 in range(2, x + 1, 2))


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
print("%6s %14s %10s %12s %12s" % ("x", "count", "density", "gap", "normalized"))
for row in convergence_table(mixed, [50, 100, 300, 3000, 30000], res):
    assert row.count == mixed_by_middle(row.x)  # an independent sum over the middle coordinate
    gap = abs(row.density - row.constant)
    print("%6d %14d %10.6f %12.2e %12.4f" % (row.x, row.count, row.density, gap, row.normalized_error))

# the sharper exponent: the largest pairwise degree of any index
row = convergence_table(mixed, [100], res)[0]
print("\nsharper log exponent for the mixed system:", row.sharper_log_exponent)

#!/usr/bin/env python3
"""The asymptotic density constant as a certified Euler product.

The fraction of tuples in [1, x]^k satisfying an admissible system tends
to a constant A: a product over all primes of exact rational local factors.
The product is an exact head over the primes up to 1000 and the target
primes, times a tail over the rest summed through the prime zeta function;
the interval [lower, upper] holds A itself.  Beside it, this demo prints
the product truncated at P = 10^6 and that truncation's old certificate
exp(+-2C/P).  Classical special cases make good cross-checks:

  * gcd(n1, n2) = 1          ->  6 / pi^2          (~0.607927)
  * gcd(n1, n2, n3) = 1      ->  1 / zeta(3)       (~0.831907)
  * pairwise coprime triples ->  ~0.286747
"""

from math import exp, fsum, log, pi

from gcdcensus import (
    condition_set,
    constant,
    find_cover,
    generic_factor_polynomial,
    local_factor,
    local_view,
    relevant_primes,
    rwise_constant,
    toth_pairwise_constant,
)
from gcdcensus.primes import primes_up_to

P = 10**6
PRIMES = primes_up_to(P)


def truncated(cs):
    """The product over the primes p <= P only: exact factors at the target
    primes, the factor polynomial at 1/p in floats elsewhere."""
    poly = generic_factor_polynomial(cs)
    special = {p: local_factor(local_view(cs, p, find_cover(cs))) for p in relevant_primes(cs)}
    logs = [log(f.numerator) - log(f.denominator) for f in special.values()]
    for p in PRIMES:
        if p not in special:
            logs.append(log(sum(c * p**-j for j, c in enumerate(poly.coefficients))))
    return exp(fsum(logs)), 2 * poly.tail_constant / P


def show(name, cs, known=None):
    res = constant(cs)
    value, slack = truncated(cs)
    print(f"{name}:")
    print(f"  completed  {res.value:.15f}  in [{res.lower:.15f}, {res.upper:.15f}],"
          f" relative width {(res.upper - res.lower) / res.value:.1e}")
    print(f"  truncated  {value:.15f}  at P = 10^6, certified to within a factor exp(+-{slack:.1e})")
    if known is not None:
        print(f"  known      {known:.15f}")
    return res


show("coprime pairs", condition_set(2, {(1, 2): 1}), 6 / pi**2)

res = show("coprime triples (overall gcd)", condition_set(3, {(1, 2, 3): 1}))
print("  r-wise closed form agrees:", rwise_constant(3, 3) == res.value)

res = show("pairwise-coprime triples", condition_set(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1}))
print("  closed form agrees:       ", toth_pairwise_constant(3) == res.value)

# Nontrivial targets only change finitely many factors, each an exact
# rational.  Requiring gcd(n1, n2) = 2 puts a factor 3/16 at p = 2.
even = condition_set(2, {(1, 2): 2})
view = local_view(even, 2, find_cover(even))
print("\ngcd(n1, n2) = 2: local factor at 2 is", local_factor(view))
res = show("gcd(n1, n2) = 2", even, 6 / pi**2 / 4)
print("  traced factors:", [(p, str(f)) for p, f in res.factor_trace[:5]], "...")

# Every prime beyond the targets shares one polynomial in t = 1/p, and the
# head of 168 primes to 1000 leaves the tail's series converging fast.
poly = generic_factor_polynomial(even)
print("\ngeneric factor polynomial coefficients:", poly.coefficients)
print("tail constant C =", poly.tail_constant, " (old truncation bound 2C/P =", 2 * poly.tail_constant / P, ")")

# Complete pairwise coprimality on 25 indices: C is about 4e8, so the
# truncated product's certificate needed P >= 2C, yet the completed
# constant takes a head to 1000.
wide = condition_set(25, {(i, j): 1 for i in range(1, 26) for j in range(i + 1, 26)})
res = constant(wide)
print(f"\npairwise coprime 25-tuples: {res.value:.6e}, relative width {(res.upper - res.lower) / res.value:.1e},"
      f" C = {generic_factor_polynomial(wide).tail_constant:.2e}")

#!/usr/bin/env python3
"""The asymptotic density constant as a certified Euler product.

The fraction of tuples in [1, x]^k satisfying an admissible system tends
to a constant A: a product over primes of exact rational local factors.
Truncating the product at P leaves a certified enclosure [lower, upper].
Classical special cases make good cross-checks:

  * gcd(n1, n2) = 1          ->  6 / pi^2          (~0.607927)
  * gcd(n1, n2, n3) = 1      ->  1 / zeta(3)       (~0.831907)
  * pairwise coprime triples ->  ~0.286747
"""

from math import pi

from gcdcensus import (
    condition_set,
    constant,
    generic_factor_polynomial,
    local_factor,
    local_view,
    find_cover,
    rwise_constant,
    toth_pairwise_constant,
)

P = 10**6

res = constant(condition_set(2, {(1, 2): 1}), prime_cutoff=P)
print("coprime pairs:      value %.9f" % res.value)
print("  certified interval [%.9f, %.9f]" % (res.lower, res.upper))
print("  6/pi^2 =           %.9f  (inside: %s)" % (6 / pi**2, res.lower <= 6 / pi**2 <= res.upper))

res = constant(condition_set(3, {(1, 2, 3): 1}), prime_cutoff=P)
print("\ncoprime triples (overall gcd): value %.9f" % res.value)
print("  r-wise closed form agrees:   %.9f" % rwise_constant(3, 3, P))

pairwise3 = condition_set(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
res = constant(pairwise3, prime_cutoff=P)
print("\npairwise-coprime triples: value %.9f" % res.value)
print("  closed form agrees:     %.9f" % toth_pairwise_constant(3, P))

# Nontrivial targets only change finitely many factors, each an exact
# rational.  Requiring gcd(n1, n2) = 2 puts a factor 3/16 at p = 2.
even = condition_set(2, {(1, 2): 2})
print("\ngcd(n1, n2) = 2:")
view = local_view(even, 2, find_cover(even))
print("  local factor at 2:", local_factor(view))
res = constant(even, prime_cutoff=P)
print("  value %.9f  (= 1/(4 zeta(2)) = %.9f)" % (res.value, 6 / pi**2 / 4))
print("  traced factors:", [(p, str(f)) for p, f in res.factor_trace[:5]], "...")

# Every prime beyond the targets shares one polynomial in t = 1/p.
poly = generic_factor_polynomial(even)
print("\ngeneric factor polynomial coefficients:", poly.coefficients)
print("tail constant C =", poly.tail_constant, " (tail bound 2C/P =", 2 * poly.tail_constant / P, ")")

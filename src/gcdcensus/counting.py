"""Exact enumeration of satisfying tuples and convergence diagnostics.

The counter here is deliberately simple: `admissibility.pruned_walk`, a
nested scan over [1, x]^k pruned as soon as a partial gcd stops being a
multiple of its target, with the innermost coordinate vectorized.  The
walk is shared with `brute_force_find`; the tests keep an independent
oracle for each (`naive_count`, `naive_first`).  It is the trusted oracle
the density constant is checked against, so no sieve tricks beyond the
Mobius-inversion count of fully-coprime tuples.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import inf, log
from typing import TYPE_CHECKING

import numpy as np

from .admissibility import pruned_walk
from .errors import ResourceLimitError
from .model import ConditionSet, isolated_indices, neighbors
from .primes import mobius_up_to

if TYPE_CHECKING:
    from .density import DensityResult

_COUNT_GUARD = 10**10
_NYMANN_LIMIT = 10**7  # the Mobius sieve and sum to 10^7 take 3-5 s


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
    free factor of x each; the rest are scanned with partial-gcd pruning
    and a vectorized innermost coordinate.
    """
    x = operator.index(x)
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x**cs.k > _COUNT_GUARD:
        raise ResourceLimitError(f"x**k = {x}**{cs.k} exceeds the {_COUNT_GUARD} count guard")
    if any(c.value > x for c in cs.conditions):
        return 0
    active = sorted(set(range(1, cs.k + 1)) - isolated_indices(cs))
    if not active:
        return x**cs.k
    total = 0

    def visit(prefix: list[int], hits: np.ndarray) -> None:
        nonlocal total
        total += int(np.count_nonzero(hits))

    pruned_walk(cs, active, x, visit)
    return total * x ** (cs.k - len(active))


def nymann_count(k: int, x: int) -> int:
    """Exact number of k-tuples <= x with overall gcd 1.

    Mobius inversion: sum over d <= x of mu(d) * floor(x/d)^k.  Used as
    an independent oracle for the single full-gcd condition.  Guarded by
    x <= 10**7, since the sieve takes memory and time linear in x.
    """
    k = operator.index(k)
    x = operator.index(x)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > _NYMANN_LIMIT:
        raise ResourceLimitError(f"x = {x} exceeds the {_NYMANN_LIMIT} limit on the Mobius sieve")
    mu = mobius_up_to(x)
    return sum(int(mu[d]) * (x // d) ** k for d in range(1, x + 1))


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

"""Exceptions shared across the package."""

from __future__ import annotations


class InadmissibleError(Exception):
    """No tuple of positive integers satisfies the condition system.

    Carries the smallest violating prime and the first index set it
    violates in canonical (ascending-bitmask) order, so messages are stable.
    """

    def __init__(self, p: int, indices):
        self.p = int(p)
        self.indices = frozenset(indices)
        joined = ",".join(str(i) for i in sorted(self.indices))
        super().__init__(f"p={self.p}, T={{{joined}}}")


class ResourceLimitError(RuntimeError):
    """A computation would exceed a hard resource guard."""


class CutoffTooSmallError(ValueError):
    """The requested prime cutoff stops the Euler product's exact head below
    2R, where the tail's series has no certified bound."""

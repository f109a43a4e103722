"""Exact evaluation of the Beatty floors |_ phi*n _| and |_ phi^2*n _|.

No floating point is used anywhere: phi*n = (n + n*sqrt(5))/2, and since
phi*n is irrational for n >= 1,

    floor(phi * n) = (n + isqrt(5 * n^2)) // 2

is exact at every size.  ``phi_floors`` evaluates it over a block of n,
as the brute engine calls it, and ``floor_phi`` reads through it.
floor(phi^2 * n) follows from phi^2 = phi + 1, which gives
floor(phi^2 * n) = n + floor(phi * n).
"""

from __future__ import annotations

from math import isqrt


def phi_floors(ns: range) -> list[int]:
    """[floor(phi * n) for n in ns], for a range of positive n."""
    return [(n + isqrt(5 * n * n)) >> 1 for n in ns]


def floor_phi(n: int) -> int:
    """floor(phi * n) for n >= 1, where phi = (1 + sqrt(5)) / 2."""
    if n < 1:
        raise ValueError(f"floor_phi: index must be positive, got {n}")
    return phi_floors(range(n, n + 1))[0]


def floor_phi2(n: int) -> int:
    """floor(phi^2 * n) for n >= 1, via floor(phi^2*n) = n + floor(phi*n)."""
    if n < 1:
        raise ValueError(f"floor_phi2: index must be positive, got {n}")
    return n + floor_phi(n)


def epsilon(k: int) -> int:
    """The parity indicator (1 + (-1)^k) / 2: 1 for even k, 0 for odd k."""
    return 1 - (k & 1)

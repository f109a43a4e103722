"""Exact evaluation of the Beatty floors |_ phi*n _| and |_ phi^2*n _|.

No floating point is used anywhere.  ``phi_floors`` takes a block of n with
largest element N, sets b = 2 * N.bit_length() + 2, so 2^b > 4N^2, and
p = floor(phi * 2^b) = (2^b + isqrt(5 * 4^b)) // 2.  Then, for every n in the
block,

    floor(phi * n) = (n * p) >> b,

one multiply and one shift per term.  Why this is exact, with psi = 1 - phi
and f = floor(phi * n), using only phi^2 = phi + 1:

    (f - n*phi)(f - n*psi) = f^2 - f*n - n^2 is a nonzero integer, and
    0 < f - n*psi < n*sqrt(5), so the fraction {n*phi} > 1/(sqrt(5)*n);
    0 < n*phi - n*p/2^b < n/2^b < 1/(4n) < {n*phi},
    so n*p/2^b lies strictly between f and n*phi.

For floor(phi^2 * n), ``phi_floors(ns, prime=True)`` multiplies by p + 2^b:
(n * (p + 2^b)) >> b = n + ((n * p) >> b) = n + floor(phi * n), exactly, as
n * 2^b is a multiple of 2^b, and n + floor(phi * n) = floor(phi^2 * n) by
phi^2 = phi + 1.
"""

from __future__ import annotations

from itertools import repeat
from math import isqrt
from operator import rshift


def phi_floors(ns: range, prime: bool = False) -> list[int]:
    """[floor(alpha * n) for n in ns], alpha = phi^2 if ``prime`` else phi, for a range of positive n."""
    if not ns:
        return []
    b = 2 * max(ns[0], ns[-1]).bit_length() + 2
    p = ((1 << b) + isqrt(5 << 2 * b)) >> 1
    if prime:
        p += 1 << b
    return list(map(rshift, range(ns.start * p, ns.stop * p, ns.step * p), repeat(b)))

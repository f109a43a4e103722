"""Exact rational values of the cube-sum / square-of-sum ratio Q(alpha, m).

Q(alpha, m) = (sum of floor(alpha*n)^3) / (sum of floor(alpha*n))^2 over
n = 1..m, for alpha in {phi, phi^2}.  Values are ``fractions.Fraction``
instances, so they are always reduced with a positive denominator.

For m of the form F_K - 1 the sums come from any engine's ``at(K, ...)``,
the recursive engine by default; any other m needs the brute engine's
``sums(m, ...)``.  The module holds no engine.  ``q_value`` and ``q_diff``
take a registered name (``moment_sums.ENGINES``) and build a fresh engine
from it; ``theorem1_identity_sides`` takes engines, which a sweep builds
once.  ``q_diff`` and ``theorem1_identity_sides`` read one Q-difference N/D.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .fib_lucas import FibonacciWalk
from .moment_sums import Moment, make_engine

if TYPE_CHECKING:
    from fractions import Fraction

PHI = "phi"
PHI2 = "phi2"
_ALPHAS = (PHI, PHI2)
# the (cube sum, plain sum) moments of each alpha
_MOMENTS = {a: (Moment(3, prime=a == PHI2), Moment(1, prime=a == PHI2)) for a in _ALPHAS}


def _fib_index_of(m: int) -> int | None:
    """Return K >= 3 with F_K - 1 == m, or None, from one fast doubling.

    With b the bit length of m + 1, F_K = m + 1 gives 2^(b-1) <= F_K, and
    F_K <= phi^(K-1) for K >= 1 (F_1 = phi^0, F_2 <= phi^1, and the bound
    carries along F_{K+1} = F_K + F_{K-1}, as phi^(K-1) + phi^(K-2) = phi^K).
    So K - 1 >= (b - 1) log_phi(2) > (b - 1) * 1.44042009, as
    log_phi(2) = 1.4404200904..., and the walk starts at
    k = max(3, 1 + floor((b - 1) * 1.44042009)) <= K.  It adds up to the
    first F_k >= m + 1 in a few steps: F_K >= phi^(K-2) puts every F_K
    below 2^b at K < 2 + b log_phi(2).
    """
    k = max(3, 1 + ((m + 1).bit_length() - 1) * 144042009 // 10**8)
    f, g = FibonacciWalk().run(k, 2)
    while f <= m:
        f, g = g, f + g
        k += 1
    return k if f == m + 1 else None


def q_value(alpha: str, m: int, engine: str = "auto") -> Fraction:
    """Exact Q(alpha, m) for alpha "phi" or "phi2"; "auto" is recursive at F_K - 1, else brute."""
    from fractions import Fraction

    if alpha not in _ALPHAS:
        raise ValueError(f"alpha must be one of {_ALPHAS}, got {alpha!r}")
    if m < 1:
        raise ValueError(f"Q undefined at m = {m}")
    K = _fib_index_of(m)
    if engine == "auto":
        engine = "brute" if K is None else "recursive"
    moments = _MOMENTS[alpha]
    if K is not None:
        cubes, plain = make_engine(engine).at(K, moments)
    else:
        brute = make_engine(engine, ("brute",), " at m not of the form F_K - 1")
        cubes, plain = brute.sums(m, moments)
    return Fraction(cubes, plain * plain)


def _q_diff_parts(K: int, engine) -> tuple[int, int]:
    """(N, D), unreduced, with N/D = Q(phi^2, F_K - 1) - Q(phi, F_K - 1), from one ``at`` call.

    With c, p the cube and plain sums: N = c2 p1^2 - c1 p2^2, D = p1^2 p2^2.
    """
    if K < 3:
        raise ValueError(f"q_diff needs K >= 3 (so m = F_K - 1 >= 1), got {K}")
    c2, p2, c1, p1 = engine.at(K, _MOMENTS[PHI2] + _MOMENTS[PHI])
    p1, p2 = p1 * p1, p2 * p2  # squared plain sums
    return c2 * p1 - c1 * p2, p1 * p2


def q_diff(K: int, engine: str = "recursive") -> Fraction:
    """Q(phi^2, F_K - 1) - Q(phi, F_K - 1), exact, for K >= 3, from one ``at`` call."""
    from fractions import Fraction

    return Fraction(*_q_diff_parts(K, make_engine(engine)))


def theorem1_identity_sides(K: int, engine, closed) -> tuple[int, int]:
    """Theorem 1 cross-multiplied: (den * N, D * (den - num)), exact integers.

    num/den is ``closed.theorem1_num_den(K)`` and N/D the Q-difference of
    ``_q_diff_parts``; the sides are equal iff N/D = 1 - num/den, the closed
    value, at K.  The moments come from one ``at`` call of ``engine``, num/den
    from one run near K/2 of ``closed``, a ``ClosedEngine`` a sweep keeps for it.
    """
    num, den = closed.theorem1_num_den(K)
    n, d = _q_diff_parts(K, engine)
    return den * n, d * (den - num)

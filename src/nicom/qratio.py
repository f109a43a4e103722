"""Exact rational values of the cube-sum / square-of-sum ratio Q(alpha, m).

Q(alpha, m) = (sum of floor(alpha*n)^3) / (sum of floor(alpha*n))^2 over
n = 1..m, for alpha in {phi, phi^2}.  Values are ``fractions.Fraction``
instances, so they are always reduced with a positive denominator.

For m of the form F_K - 1 the sums come from any engine's ``at(K, ...)``,
the recursive engine by default; any other m needs the brute engine's
``sums(m, ...)``.  The module holds no engine: ``engine`` is a registered
name (``moment_sums.ENGINES``) or an engine, so a sweep passes its own.
``q_diff`` and ``theorem1_identity_sides`` read one Q-difference N/D.
"""

from __future__ import annotations

from fractions import Fraction

from .fib_lucas import FibonacciWalk
from .moment_sums import Moment, make_engine

PHI = "phi"
PHI2 = "phi2"
_ALPHAS = (PHI, PHI2)
# the (cube sum, plain sum) moments of each alpha
_MOMENTS = {a: (Moment(3, prime=a == PHI2), Moment(1, prime=a == PHI2)) for a in _ALPHAS}
_NICOMACHUS_MOMENTS = (Moment(0, 3), Moment(0, 1))  # sum n^3, sum n


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


def q_value(alpha: str, m: int, engine="auto") -> Fraction:
    """Exact Q(alpha, m) for alpha "phi" or "phi2"; "auto" is recursive at F_K - 1, else brute."""
    if alpha not in _ALPHAS:
        raise ValueError(f"alpha must be one of {_ALPHAS}, got {alpha!r}")
    if m < 1:
        raise ValueError(f"Q undefined at m = {m}")
    K = _fib_index_of(m)
    if engine == "auto":
        engine = "brute" if K is None else "recursive"
    if K is None:
        engine = make_engine(engine, ("brute",), " at m not of the form F_K - 1")
    moments = _MOMENTS[alpha]
    cubes, plain = engine.sums(m, moments) if K is None else make_engine(engine).at(K, moments)
    return Fraction(cubes, plain * plain)


def _q_diff_parts(K: int, engine) -> tuple[int, int]:
    """(N, D), unreduced, with N/D = Q(phi^2, F_K - 1) - Q(phi, F_K - 1), from one ``at`` call.

    With c, p the cube and plain sums: N = c2 p1^2 - c1 p2^2, D = p1^2 p2^2.
    """
    if K < 3:
        raise ValueError(f"q_diff needs K >= 3 (so m = F_K - 1 >= 1), got {K}")
    c2, p2, c1, p1 = make_engine(engine).at(K, _MOMENTS[PHI2] + _MOMENTS[PHI])
    p1, p2 = p1 * p1, p2 * p2  # squared plain sums
    return c2 * p1 - c1 * p2, p1 * p2


def q_diff(K: int, engine="recursive") -> Fraction:
    """Q(phi^2, F_K - 1) - Q(phi, F_K - 1), exact, for K >= 3, from one ``at`` call."""
    return Fraction(*_q_diff_parts(K, engine))


def theorem1_identity_sides(K: int, engine="closed", closed="closed") -> tuple[int, int]:
    """Theorem 1 cross-multiplied: (den * N, D * (den - num)), exact integers.

    num/den is ``closed.theorem1_num_den(K)`` and N/D the Q-difference of
    ``_q_diff_parts``; the sides are equal iff N/D = 1 - num/den, the closed
    value, at K.  The moments come from one ``at`` call of ``engine``, a
    registered name or an engine, num/den from one run near K/2 of ``closed``,
    "closed" or a closed engine, which a sweep passes in, so that its walk
    steps from K to K + 1.
    """
    num, den = make_engine(closed, ("closed",)).theorem1_num_den(K)
    n, d = _q_diff_parts(K, engine)
    return den * n, d * (den - num)


def nicomachus_sides(m: int, engine="brute") -> tuple[int, int]:
    """Nicomachus's identity at m: (sum of n^3, (sum of n)^2) over n = 1..m.

    The sums come from the guarded brute engine's ``sums(m, ...)``: ``engine``
    is "brute" or a brute engine, which a sweep in m passes in, so that it
    makes one summation pass.
    """
    if m < 1:
        raise ValueError(f"index must be >= 1, got {m}")
    cubes, plain = make_engine(engine, ("brute",)).sums(m, _NICOMACHUS_MOMENTS)
    return cubes, plain * plain

"""Exact rational values of the cube-sum / square-of-sum ratio Q(alpha, m).

Q(alpha, m) = (sum of floor(alpha*n)^3) / (sum of floor(alpha*n))^2 over
n = 1..m, for alpha in {phi, phi^2}.  Values are ``fractions.Fraction``
instances, so they are always reduced with a positive denominator.

For m of the form F_K - 1 the sums route through the recursive moment
engine (or closed forms on request), any other m through the guarded brute
engine.  The module holds no engine; a sweep passes its own to ``q_diff``.
"""

from __future__ import annotations

from fractions import Fraction

from . import closed_forms
from .fib_lucas import fib
from .moment_sums import BruteEngine, Moment, MomentTable

PHI = "phi"
PHI2 = "phi2"
_ALPHAS = (PHI, PHI2)
# the (cube sum, plain sum) moments of each alpha for the brute engine
_BRUTE_MOMENTS = {a: (Moment(3, prime=a == PHI2), Moment(1, prime=a == PHI2)) for a in _ALPHAS}
_NICOMACHUS_MOMENTS = (Moment(0, 3), Moment(0, 1))  # sum n^3, sum n


def _fib_index_of(m: int) -> int | None:
    """Return K >= 3 with F_K - 1 == m, or None; walks F_K by addition."""
    k, f, g = 3, 2, 3  # K, F_K, F_{K+1}
    while f - 1 < m:
        k, f, g = k + 1, g, f + g
    return k if f - 1 == m else None


def _sums_at_fib_index(alpha: str, K: int, engine: str, table: MomentTable) -> tuple[int, int]:
    """(cube sum, plain sum) over n = 1..F_K-1: closed forms or the recursive engine."""
    if engine == "closed":
        if alpha == PHI:
            return closed_forms.lemma3_a3(K), closed_forms.lemma2_a(K)
        return closed_forms.lemma4_a_prime3(K), closed_forms.lemma2_a_prime(K)
    prime = alpha == PHI2
    return table.a(K, 3, 0, prime), table.a(K, 1, 0, prime)


def q_value(alpha: str, m: int, engine: str = "auto", brute: BruteEngine | None = None) -> Fraction:
    """Exact Q(alpha, m); alpha is "phi" or "phi2"."""
    if alpha not in _ALPHAS:
        raise ValueError(f"alpha must be one of {_ALPHAS}, got {alpha!r}")
    if m < 1:
        raise ValueError(f"Q undefined at m = {m}")
    if engine not in ("auto", "brute", "recursive", "closed"):
        raise ValueError(f"unknown engine {engine!r}")
    K = None if engine == "brute" else _fib_index_of(m)
    if K is None and engine in ("recursive", "closed"):
        raise ValueError(f"engine {engine!r} needs m of the form F_K - 1, got m = {m}")
    if K is None:
        cubes, plain = (brute or BruteEngine()).sums(m, _BRUTE_MOMENTS[alpha])
    else:
        cubes, plain = _sums_at_fib_index(alpha, K, engine, MomentTable())
    return Fraction(cubes, plain * plain)


def q_diff(K: int, engine: str = "auto", brute: BruteEngine | None = None,
           table: MomentTable | None = None) -> Fraction:
    """Q(phi^2, F_K - 1) - Q(phi, F_K - 1), exact, for K >= 3, from ``table`` or ``brute``."""
    if K < 3:
        raise ValueError(f"q_diff needs K >= 3 (so m = F_K - 1 >= 1), got {K}")
    if engine == "brute":
        moments = _BRUTE_MOMENTS[PHI2] + _BRUTE_MOMENTS[PHI]
        c2, p2, c1, p1 = (brute or BruteEngine()).sums(fib(K) - 1, moments)
    else:
        # "is None", not "or": an empty table has len 0 and is falsy
        table = MomentTable() if table is None else table
        c2, p2 = _sums_at_fib_index(PHI2, K, engine, table)
        c1, p1 = _sums_at_fib_index(PHI, K, engine, table)
    return Fraction(c2, p2 * p2) - Fraction(c1, p1 * p1)


def nicomachus_check(m: int, brute: BruteEngine | None = None) -> bool:
    """True iff the cube sum up to m equals the squared plain sum.

    The sums come from the guarded brute engine; a sweep in m passes one in,
    so that it makes one summation pass.
    """
    if m < 1:
        raise ValueError(f"index must be >= 1, got {m}")
    cubes, plain = (brute or BruteEngine()).sums(m, _NICOMACHUS_MOMENTS)
    return cubes == plain * plain

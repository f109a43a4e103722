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
# the (cube sum, plain sum) moments of each alpha
_MOMENTS = {a: (Moment(3, prime=a == PHI2), Moment(1, prime=a == PHI2)) for a in _ALPHAS}
_NICOMACHUS_MOMENTS = (Moment(0, 3), Moment(0, 1))  # sum n^3, sum n


def _fib_index_of(m: int) -> int | None:
    """Return K >= 3 with F_K - 1 == m, or None; walks F_K by addition."""
    k, f, g = 3, 2, 3  # K, F_K, F_{K+1}
    while f - 1 < m:
        k, f, g = k + 1, g, f + g
    return k if f - 1 == m else None


def _sums(moments: tuple[Moment, ...], engine: str, K: int | None, m: int | None,
          brute: BruteEngine | None, table: MomentTable | None) -> list[int]:
    """The sums of ``moments`` from one engine; m is F_K - 1 when K is given.

    The brute engine, or any engine when K is None, sums up to m (or F_K - 1
    when m is None); the closed and recursive engines read the sums at K
    through their ``a``.
    """
    if engine not in ("auto", "brute", "recursive", "closed"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "brute" or K is None:
        return (brute or BruteEngine()).sums(fib(K) - 1 if m is None else m, moments)
    table = MomentTable() if table is None else table  # "is None": an empty table is falsy
    a = closed_forms.moment if engine == "closed" else table.a
    return [a(K, s, j, prime) for s, j, prime in moments]


def q_value(alpha: str, m: int, engine: str = "auto", brute: BruteEngine | None = None) -> Fraction:
    """Exact Q(alpha, m); alpha is "phi" or "phi2"."""
    if alpha not in _ALPHAS:
        raise ValueError(f"alpha must be one of {_ALPHAS}, got {alpha!r}")
    if m < 1:
        raise ValueError(f"Q undefined at m = {m}")
    K = None if engine == "brute" else _fib_index_of(m)
    if K is None and engine in ("recursive", "closed"):
        raise ValueError(f"engine {engine!r} needs m of the form F_K - 1, got m = {m}")
    cubes, plain = _sums(_MOMENTS[alpha], engine, K, m, brute, None)
    return Fraction(cubes, plain * plain)


def q_diff(K: int, engine: str = "auto", brute: BruteEngine | None = None,
           table: MomentTable | None = None) -> Fraction:
    """Q(phi^2, F_K - 1) - Q(phi, F_K - 1), exact, for K >= 3, from ``table`` or ``brute``."""
    if K < 3:
        raise ValueError(f"q_diff needs K >= 3 (so m = F_K - 1 >= 1), got {K}")
    c2, p2, c1, p1 = _sums(_MOMENTS[PHI2] + _MOMENTS[PHI], engine, K, None, brute, table)
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

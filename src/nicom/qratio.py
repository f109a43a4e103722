"""Exact rational values of the cube-sum / square-of-sum ratio Q(alpha, m).

Q(alpha, m) = (sum of floor(alpha*n)^3) / (sum of floor(alpha*n))^2 over
n = 1..m, for alpha in {phi, phi^2}.  Values are ``fractions.Fraction``
instances, so they are always reduced with a positive denominator.

For m of the form F_K - 1 the sums come from any engine's ``at(K, ...)``,
the recursive engine by default; any other m needs the brute engine's
``sums(m, ...)``.  The module holds no engine: ``engine`` is a registered
name (``closed_forms.ENGINES``) or an engine, so a sweep passes its own.
"""

from __future__ import annotations

from fractions import Fraction
from math import log2

from .closed_forms import make_engine
from .fib_lucas import fib_run
from .moment_sums import BruteEngine, Moment

PHI = "phi"
PHI2 = "phi2"
_ALPHAS = (PHI, PHI2)
# the (cube sum, plain sum) moments of each alpha
_MOMENTS = {a: (Moment(3, prime=a == PHI2), Moment(1, prime=a == PHI2)) for a in _ALPHAS}
_NICOMACHUS_MOMENTS = (Moment(0, 3), Moment(0, 1))  # sum n^3, sum n


def _fib_index_of(m: int) -> int | None:
    """Return K >= 3 with F_K - 1 == m, or None, from one fast doubling."""
    # log2 F_K = K log2(phi) - log2(sqrt 5) + o(1), so the F_K of bit length b have
    # K in [x, x + 1/log2(phi)), x = (b - 1 + log2(sqrt 5)) / log2(phi): at most two
    # indices, both in floor(x) .. floor(x) + 2
    lo = max(3, int((m.bit_length() - 1 + log2(5) / 2) / log2((1 + 5**0.5) / 2)))
    run = fib_run(lo, 3)
    return lo + run.index(m + 1) if m + 1 in run else None


def q_value(alpha: str, m: int, engine="auto") -> Fraction:
    """Exact Q(alpha, m) for alpha "phi" or "phi2"; "auto" is recursive at F_K - 1, else brute."""
    if alpha not in _ALPHAS:
        raise ValueError(f"alpha must be one of {_ALPHAS}, got {alpha!r}")
    if m < 1:
        raise ValueError(f"Q undefined at m = {m}")
    K = _fib_index_of(m)
    if engine == "auto":
        engine = "brute" if K is None else "recursive"
    built = make_engine(engine)
    if K is None and not isinstance(built, BruteEngine):
        raise ValueError(f"engine {engine!r} needs m of the form F_K - 1, got m = {m}")
    moments = _MOMENTS[alpha]
    cubes, plain = built.sums(m, moments) if K is None else built.at(K, moments)
    return Fraction(cubes, plain * plain)


def q_diff(K: int, engine="recursive") -> Fraction:
    """Q(phi^2, F_K - 1) - Q(phi, F_K - 1), exact, for K >= 3, from one ``at`` call."""
    if K < 3:
        raise ValueError(f"q_diff needs K >= 3 (so m = F_K - 1 >= 1), got {K}")
    c2, p2, c1, p1 = make_engine(engine).at(K, _MOMENTS[PHI2] + _MOMENTS[PHI])
    return Fraction(c2, p2 * p2) - Fraction(c1, p1 * p1)


def nicomachus_check(m: int, engine="brute") -> bool:
    """True iff the cube sum up to m equals the squared plain sum.

    The sums come from the guarded brute engine's ``sums(m, ...)``: ``engine``
    is "brute" or a brute engine, which a sweep in m passes in, so that it
    makes one summation pass.
    """
    if m < 1:
        raise ValueError(f"index must be >= 1, got {m}")
    cubes, plain = make_engine(engine, ("brute",)).sums(m, _NICOMACHUS_MOMENTS)
    return cubes == plain * plain

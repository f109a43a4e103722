"""The moment sums A(k, s, j) = sum_{n=1}^{F_k - 1} n^j * floor(phi*n)^s.

Two engines are provided:

* ``BruteEngine`` evaluates the defining sums term by term in one
  resumable pass (guarded, since the range F_k - 1 grows exponentially in
  k); ``a_brute`` and ``a_prime_brute`` are its one-shot forms;
* ``a_recursive`` uses the reduction of A(k+1, s, j) to values at k and
  k-1, which makes indices like k = 1000 (where the sum has ~10^208
  terms) computable in well under a second.

``a_prime`` gives A'(k, s) = sum floor(phi^2*n)^s through the binomial
expansion of (n + floor(phi*n))^s over the A(k, *, *) grid.
"""

from __future__ import annotations

import os
from itertools import repeat
from math import comb, isqrt
from operator import mul
from typing import Iterable, NamedTuple

from .beatty_floor import epsilon
from .fib_lucas import fib

DEFAULT_BRUTE_GUARD = 10**6
GUARD_ENV_VAR = "NICOM_BRUTE_GUARD"


class BruteForceGuardError(Exception):
    """Raised when a literal summation would exceed the term guard."""


def brute_guard() -> int:
    """Current term guard for brute-force sums (env override allowed)."""
    raw = os.environ.get(GUARD_ENV_VAR)
    limit = DEFAULT_BRUTE_GUARD if raw is None else int(raw)
    if limit < 0:
        raise ValueError(f"{GUARD_ENV_VAR} must be a nonnegative term count, got {raw}")
    return limit


class MomentKey(NamedTuple):
    k: int
    s: int
    j: int


def _validate(k: int, s: int, j: int) -> None:
    if k < 1:
        raise ValueError(f"moment index k must be >= 1, got {k}")
    if s < 0 or j < 0:
        raise ValueError(f"moment powers must be nonnegative, got s={s}, j={j}")


class MomentTable:
    """Memoized recursive engine for A(k, s, j).

    The table fills iteratively in k; a target (K, S, J) materializes every
    cell with k <= K and s + j <= S + J, so the cache stays polynomial in
    the target indices.  Not internally synchronized: confine an instance
    to one thread.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple[int, int, int], int] = {}

    def __len__(self) -> int:
        return len(self._cache)

    def a(self, k: int, s: int, j: int) -> int:
        _validate(k, s, j)
        if k <= 2:
            return 0  # empty sums: F_1 - 1 = F_2 - 1 = 0
        key = (k, s, j)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        self._fill(k, s + j)
        return self._cache[key]

    def _fill(self, k_max: int, total_max: int) -> None:
        cache = self._cache
        pairs = [
            (s, j)
            for total in range(total_max + 1)
            for s in range(total + 1)
            for j in (total - s,)
        ]
        f_prev, f_cur = 1, 2  # F_2, F_3
        for k in range(3, k_max + 1):
            # step from k-1: A(k,s,j) uses F_{k-1}, F_k and eps_{k-1}
            fm1, fk = f_prev, f_cur
            eps = epsilon(k - 1)
            fm1_pow = [1]
            fk_pow = [1]
            for _ in range(total_max):
                fm1_pow.append(fm1_pow[-1] * fm1)
                fk_pow.append(fk_pow[-1] * fk)
            for s, j in pairs:
                if (k, s, j) in cache:
                    continue
                prev = cache.get((k - 1, s, j), 0)
                boundary = 0
                for i in range(s + 1):
                    # (-eps)^(s-i), with 0^0 = 1 when i = s
                    if eps == 0:
                        coef = 1 if i == s else 0
                    else:
                        coef = -1 if (s - i) & 1 else 1
                    if coef:
                        boundary += coef * comb(s, i) * fm1_pow[j] * fk_pow[i]
                tail = 0
                if k >= 4:
                    for l in range(j + 1):
                        cjl = comb(j, l) * fm1_pow[l]
                        for i in range(s + 1):
                            sub = cache.get((k - 2, s - i, j - l), 0)
                            if sub:
                                tail += cjl * comb(s, i) * fk_pow[i] * sub
                cache[(k, s, j)] = prev + boundary + tail
            f_prev, f_cur = f_cur, f_prev + f_cur


class Moment(NamedTuple):
    """sum n^j * floor(alpha*n)^s, with alpha = phi^2 if ``prime`` else phi."""
    s: int
    j: int = 0
    prime: bool = False


_BLOCK = 4096  # floors held at once by the brute engine


class BruteEngine:
    """Literal summation in one resumable pass over n = 1, 2, ...

    Each floor(phi*n) is computed once, by the isqrt formula of
    ``beatty_floor``, and added to every moment requested so far
    (floor(phi^2*n) = n + floor(phi*n)).  A request continues the pass, so
    a sweep over m = F_k - 1, k <= K, sums F_K - 1 terms; a request behind
    the pass, or with a moment not yet summed, restarts it.  ``terms``
    counts the floors computed.  Independent of ``MomentTable`` and the
    closed forms; confine an instance to one thread.
    """

    def __init__(self, guard: int | None = None) -> None:
        if guard is not None and guard < 0:
            raise ValueError(f"brute-force guard must be nonnegative, got {guard}")
        self.guard = guard  # None: read NICOM_BRUTE_GUARD at each request
        self.terms = self._n = 0  # the running sums cover n = 1 .. self._n
        self._sums: dict[Moment, int] = {}

    def sums(self, m: int, moments: Iterable[Moment]) -> list[int]:
        """sum_{n=1}^{m} n^j * floor(alpha*n)^s for each requested moment."""
        moments = list(moments)
        if m < 0 or any(mo.s < 0 or mo.j < 0 for mo in moments):
            raise ValueError(f"need m >= 0 and nonnegative powers, got m={m}, {moments}")
        limit = brute_guard() if self.guard is None else self.guard
        if m > limit:
            terms = m if m < 10**30 else "over 10^30"  # no decimal text of a huge m
            raise BruteForceGuardError(f"the literal sum has {terms} terms, too large for brute "
                                       f"force (guard {limit}; raise {GUARD_ENV_VAR} to override)")
        if m < self._n or not self._sums.keys() >= set(moments):
            self._n, self._sums = 0, dict.fromkeys([*self._sums, *moments], 0)
        self._advance(m)
        return [self._sums[mo] for mo in moments]

    def a(self, m: int, s: int, j: int = 0) -> int:
        return self.sums(m, [Moment(s, j)])[0]

    def a_prime(self, m: int, s: int) -> int:
        return self.sums(m, [Moment(s, prime=True)])[0]

    def _advance(self, m: int) -> None:
        """Add the terms n = self._n + 1 .. m to every running sum."""
        primed = any(mo.prime for mo in self._sums)
        for lo in range(self._n + 1, m + 1, _BLOCK):
            ns = range(lo, min(lo + _BLOCK, m + 1))
            floors = [(n + isqrt(5 * n * n)) >> 1 for n in ns]
            floors2 = [n + f for n, f in zip(ns, floors)] if primed else None
            for mo in self._sums:
                terms = floors2 if mo.prime else floors
                terms = terms if mo.s == 1 else map(pow, terms, repeat(mo.s))
                if mo.j:
                    terms = map(mul, map(pow, ns, repeat(mo.j)), terms)
                self._sums[mo] += sum(terms)
            self.terms += len(ns)
        self._n = m


def a_brute(key: MomentKey, guard: int | None = None) -> int:
    """A(k, s, j) by literal summation over n = 1 .. F_k - 1."""
    k, s, j = key
    _validate(k, s, j)
    return BruteEngine(guard).a(fib(k) - 1, s, j)


def a_prime_brute(k: int, s: int, guard: int | None = None) -> int:
    """A'(k, s) by literal summation of floor(phi^2 * n)^s."""
    _validate(k, s, 0)
    return BruteEngine(guard).a_prime(fib(k) - 1, s)


def a_recursive(key: MomentKey, table: MomentTable) -> int:
    """A(k, s, j) by the two-step reduction, memoized into ``table``."""
    return table.a(*key)


def a_prime(k: int, s: int, table: MomentTable) -> int:
    """A'(k, s) = sum_i binom(s, i) * A(k, s - i, i)."""
    _validate(k, s, 0)
    return sum(comb(s, i) * table.a(k, s - i, i) for i in range(s + 1))


def order_bound(s: int, j: int) -> int:
    """Upper bound 4(s + j) + 6 on the linear-recurrence order of A(., s, j)."""
    if s < 0 or j < 0:
        raise ValueError(f"moment powers must be nonnegative, got s={s}, j={j}")
    return 4 * (s + j) + 6

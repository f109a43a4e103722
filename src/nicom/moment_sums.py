"""The moment sums A(k, s, j) = sum_{n=1}^{F_k - 1} n^j * floor(phi*n)^s.

Two engines are provided, each with one entry point:

* ``BruteEngine.sums(m, moments)`` evaluates the defining sums over
  n = 1..m term by term in one resumable pass (guarded, since the range
  F_k - 1 grows exponentially in k);
* ``MomentTable.a(k, s, j, prime)`` reduces A(k, s, j) to values at k-1
  and k-2, one step per k, which makes indices like k = 1000 (where the
  sum has ~10^208 terms) computable in milliseconds.

A ``Moment(s, j, prime)`` with ``prime`` set, and ``MomentTable.a`` with
``prime`` set, give A'(k, s, j) = sum n^j * floor(phi^2*n)^s, which follows
the same reduction with F_{k+1} in place of F_k.
"""

from __future__ import annotations

import os
from itertools import repeat
from math import comb
from operator import itemgetter, mul
from typing import Iterable, NamedTuple

from .beatty_floor import epsilon, phi_floors

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


class MomentTable:
    """Memoized recursive engine for A(k, s, j) and A'(k, s, j).

    Splitting 1 <= n < F_k at n = F_{k-1} gives, with step = F_k:

        A(k, s, j) = A(k-1, s, j) + F_{k-1}^j * (step - eps_{k-1})^s
            + sum_{l,i} C(j,l) C(s,i) F_{k-1}^l step^i A(k-2, s-i, j-l),

    because floor(phi*F_{k-1}) = F_k - eps_{k-1} and
    floor(phi*(F_{k-1} + n')) = F_k + floor(phi*n') for 1 <= n' < F_{k-2}.
    The primed sums A'(k, s, j) = sum n^j * floor(phi^2*n)^s follow the same
    step with A' in place of A and step = F_{k+1}, since floor(phi^2*n) =
    n + floor(phi*n).  Each moment (s, j, prime) is one column, a list
    indexed by k; a miss extends only the columns of its downset
    {(s', j', prime): s' <= s, j' <= j}, each from where it stopped, so
    every cell is computed once.  Not internally synchronized: confine an
    instance to one thread.
    """

    def __init__(self) -> None:
        self._cols: dict[tuple[int, int, bool], list[int]] = {}
        # (s_max, j_max, prime) -> a fill's lists; they hold columns, which only grow
        self._plans: dict[tuple[int, int, bool], tuple] = {}

    def __len__(self) -> int:
        # every column starts with the empty sums at k = 0, 1, 2
        return sum(len(col) - 3 for col in self._cols.values())

    def a(self, k: int, s: int, j: int = 0, prime: bool = False) -> int:
        """sum_{n=1}^{F_k - 1} n^j * floor(alpha*n)^s, alpha = phi^2 if ``prime`` else phi."""
        if k < 1:
            raise ValueError(f"moment index k must be >= 1, got {k}")
        if s < 0 or j < 0:
            raise ValueError(f"moment powers must be nonnegative, got s={s}, j={j}")
        if k <= 2:
            return 0  # empty sums: F_1 - 1 = F_2 - 1 = 0
        col = self._cols.get((s, j, prime))
        if col is None or len(col) <= k:
            self._fill(k, s, j, prime)
            col = self._cols[(s, j, prime)]
        return col[k]

    def _fill(self, k_max: int, s_max: int, j_max: int, prime: bool) -> None:
        """Extend every column (s, j, prime), s <= s_max and j <= j_max, to k_max.

        A column only ever grows together with its downset, so no column is
        longer than one below it: the last column of the fill is the
        shortest, and so is the last column of each row.
        """
        plan = self._plans.get((s_max, j_max, prime))
        if plan is None:
            cols = [[self._cols.setdefault((s, j, prime), [0, 0, 0]) for j in range(j_max + 1)]
                    for s in range(s_max + 1)]
            # below[s][j]: the columns (s - i, j), i = 0..s, that row s reads at k - 2
            below = [[[cols[s - i][j] for i in range(s + 1)] for j in range(j_max + 1)]
                     for s in range(s_max + 1)]
            binom = [[comb(n, i) for i in range(n + 1)] for n in range(max(s_max, j_max) + 1)]
            plan = self._plans[s_max, j_max, prime] = cols, below, binom
        cols, below, binom = plan
        k0 = len(cols[-1][-1])
        # F_{k-1} and F_k from the (0, 0) column, the longest one:
        # A(k, 0, 0) = A'(k, 0, 0) = F_k - 1
        count = cols[0][0]
        f_prev = count[k0 - 1] + 1
        f_cur = f_prev + count[k0 - 2] + 1
        for k in range(k0, k_max + 1):
            # a step reads only cells at k - 1 and k - 2, so the columns
            # may be extended in any order
            step = f_prev + f_cur if prime else f_cur
            step_pow = _powers(step, s_max)
            bound_pow = _powers(step - epsilon(k - 1), s_max)
            fm1_pow = _powers(f_prev, j_max)
            at = itemgetter(k - 2)
            for s, row in enumerate(cols):
                if len(row[-1]) > k:
                    continue
                # inner[j] = sum_i C(s,i) step^i A(k-2, s-i, j), shared by every column j' >= j
                inner = [sum(map(mul, binom[s], map(mul, step_pow, map(at, sub))))
                         for sub in below[s]]
                for j, col in enumerate(row):
                    if len(col) == k:
                        tail = inner[j]
                        for l in range(1, j + 1):
                            tail += binom[j][l] * fm1_pow[l] * inner[j - l]
                        col.append(col[k - 1] + fm1_pow[j] * bound_pow[s] + tail)
            f_prev, f_cur = f_cur, f_prev + f_cur


def _powers(x: int, n: int) -> list[int]:
    """[x^0, x^1, ..., x^n]."""
    out = [1]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


class Moment(NamedTuple):
    """sum n^j * floor(alpha*n)^s, with alpha = phi^2 if ``prime`` else phi."""
    s: int
    j: int = 0
    prime: bool = False


_BLOCK = 4096  # floors held at once by the brute engine


class BruteEngine:
    """Literal summation in one resumable pass over n = 1, 2, ...

    Each floor(phi*n) is computed once, by ``beatty_floor.phi_floors`` one
    block at a time, and added to every moment requested so far
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

    def _advance(self, m: int) -> None:
        """Add the terms n = self._n + 1 .. m to every running sum."""
        primed = any(mo.prime for mo in self._sums)
        for lo in range(self._n + 1, m + 1, _BLOCK):
            ns = range(lo, min(lo + _BLOCK, m + 1))
            floors = phi_floors(ns)
            floors2 = [n + f for n, f in zip(ns, floors)] if primed else None
            for mo in self._sums:
                terms = floors2 if mo.prime else floors
                terms = terms if mo.s == 1 else map(pow, terms, repeat(mo.s))
                if mo.j:
                    terms = map(mul, map(pow, ns, repeat(mo.j)), terms)
                self._sums[mo] += sum(terms)
            self.terms += len(ns)
        self._n = m

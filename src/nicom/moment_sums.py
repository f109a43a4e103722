"""The moment sums A(k, s, j) = sum_{n=1}^{F_k - 1} n^j * floor(phi*n)^s.

Every engine answers ``at(k, moments)``: the sums of a list of ``Moment``s
at m = F_k - 1.  Two live here, the closed engine in ``closed_forms``; the
registry ``ENGINES`` names all three, and ``make_engine`` builds one by name,
where a name comes in; every function below that point takes engines.

* ``BruteEngine`` sums term by term in one resumable pass, guarded as F_k - 1
  grows exponentially in k; its ``sums(m, moments)`` takes any m;
* ``MomentTable`` reduces A(k, s, j) to values at k-1 and k-2, one step per
  k, which makes indices like k = 1000 (~10^208 terms) computable in
  milliseconds, in memory linear in k; its ``a(k, s, j, prime)`` reads one
  moment.

A primed ``Moment`` gives A'(k, s, j) = sum n^j * floor(phi^2*n)^s, which
follows the same reduction with F_{k+1} in place of F_k.
"""

from __future__ import annotations

import os
from itertools import repeat
from math import comb
from operator import add, mul
from typing import Iterable, NamedTuple

from .beatty_floor import phi_floors
from .closed_forms import ClosedEngine
from .fib_lucas import fib

DEFAULT_BRUTE_GUARD = 10**6
GUARD_ENV_VAR = "NICOM_BRUTE_GUARD"


class BruteForceGuardError(Exception):
    """Raised when a literal summation would exceed the term guard."""


def brute_guard() -> int:
    """Current term guard for brute-force sums (env override allowed)."""
    raw = os.environ.get(GUARD_ENV_VAR)
    if raw is None:
        return DEFAULT_BRUTE_GUARD
    try:
        limit = int(raw)
        if limit < 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"{GUARD_ENV_VAR} must be a nonnegative integer term count, "
                         f"got {raw!r}") from None
    return limit


class MomentTable:
    """Recursive engine for A(k, s, j) and A'(k, s, j), in memory linear in k.

    Splitting 1 <= n < F_k at n = F_{k-1} leaves the block n = F_{k-1} + n',
    0 <= n' < F_{k-2}, where floor(phi*n) = F_k + g(n'), g(n') = floor(phi*n')
    for n' >= 1 and g(0) = -eps_{k-1}, as floor(phi*F_{k-1}) = F_k - eps_{k-1}.
    The moments of g over the block are B(k-2, s, j) = A(k-2, s, j) +
    [j = 0] (-eps_{k-1})^s, with 0^0 = 1, so with step = F_k

        A(k, s, j) = A(k-1, s, j)
            + sum_l C(j,l) F_{k-1}^l sum_i C(s,i) step^i B(k-2, s-i, j-l),

    both sums evaluated by Horner's rule, in F_{k-1} and in step.  The primed
    sums A'(k, s, j) = sum n^j * floor(phi^2*n)^s follow the same step with A'
    in place of A and step = F_{k+1}, since floor(phi^2*n) = n + floor(phi*n).
    Each kind, A or A', keeps one frontier: the rows at k - 1 and k of a fill
    plan (s_max, j_max) that steps the moments (s, j), s <= s_max and j <= j_max,
    together, and covers every moment of that kind read so far.  A read at the
    frontier's k - 1 or k is served, a read past k advances it, and a read
    behind it or outside it restarts it from k = 2, widened to cover the read,
    as ``BruteEngine``'s pass does.  ``len(table)`` counts the cells computed, a
    recomputed cell again.  Not internally synchronized: confine to one thread.
    """

    def __init__(self) -> None:
        self._cells = 0
        # prime -> frontier [k, row at k - 1, row at k, F_{k-1}, F_k, (s_max, j_max), steps]
        self._fronts: dict[bool, list] = {}

    def __len__(self) -> int:
        return self._cells

    def a(self, k: int, s: int, j: int = 0, prime: bool = False) -> int:
        """sum_{n=1}^{F_k - 1} n^j * floor(alpha*n)^s, alpha = phi^2 if ``prime`` else phi."""
        if k < 1:
            raise ValueError(f"moment index k must be >= 1, got {k}")
        if s < 0 or j < 0:
            raise ValueError(f"moment powers must be nonnegative, got s={s}, j={j}")
        if k <= 2:
            return 0  # empty sums: F_1 - 1 = F_2 - 1 = 0
        front = self._fronts.get(prime)
        s_max, j_max = front[5] if front else (s, j)
        if not front or k < front[0] - 1 or s > s_max or j > j_max:
            s_max, j_max = max(s, s_max), max(j, j_max)
            front = self._fronts[prime] = _start(s_max, j_max)
        if k > front[0]:
            self._advance(front, k, prime)
        return front[k - front[0] + 2][s * (j_max + 1) + j]

    def at(self, k: int, moments: Iterable[Moment]) -> list[int]:
        """A(k, s, j), or A'(k, s, j) for a primed moment, for each of ``moments``."""
        moments = list(moments)
        sums = [0] * len(moments)
        # the widest moment is read first, so nested moments fill one plan per kind
        for i in sorted(range(len(moments)), key=moments.__getitem__, reverse=True):
            s, j, prime = moments[i]
            sums[i] = self.a(k, s, j, prime)
        return sums

    def _advance(self, front: list, k_max: int, prime: bool) -> None:
        """Step ``front`` from its k to k_max; a row holds cell (s, j) at s * (j_max + 1) + j."""
        k0, older, old, f_prev, f_cur, _, (bounds, shifts, reads) = front
        older, old = older[:], old[:]  # so an interrupted fill leaves the frontier as it was
        for k in range(k0 + 1, k_max + 1):
            f_prev, f_cur = f_cur, f_prev + f_cur  # F_{k-1}, F_k
            step = f_prev + f_cur if prime else f_cur
            block = older  # the row at k - 2 becomes B(k-2), then the row at k
            for p, term in bounds[k & 1]:  # eps_{k-1} = k & 1
                block[p] += term
            for p, first, terms in shifts:
                u = block[first]
                for c, q in terms:
                    u = u * f_prev + c * block[q]
                block[p] = u
            for p, first, terms in reads:
                u = block[first]
                for c, q in terms:
                    u = u * step + c * block[q]
                block[p] = old[p] + u
            older, old = old, block
        front[:5] = k_max, older, old, f_prev, f_cur
        self._cells += len(old) * (k_max - k0)


def _start(s_max: int, j_max: int) -> list:
    """A frontier of the plan (s_max, j_max) at k = 2, with its step's positions."""
    w = j_max + 1
    # (position, (-eps)^s) of the cells j = 0, indexed by eps
    bounds = [(0, 1)], [(s * w, (-1) ** s) for s in range(s_max + 1)]
    # Horner sums: a leading position, then (coefficient, position) pairs. n' ->
    # F_{k-1} + n' makes (s, j) sum_l C(j,l) F_{k-1}^l (s, j-l), in place, j descending
    shifts = [(s * w + j, s * w, [(comb(j, t), s * w + t) for t in range(1, j + 1)])
              for j in range(j_max, 0, -1) for s in range(s_max + 1)]
    # cell (s, j) adds sum_i C(s,i) step^i (s-i, j) of the block, in place, s descending
    reads = [(s * w + j, j, [(comb(s, t), t * w + j) for t in range(1, s + 1)])
             for s in range(s_max, -1, -1) for j in range(w)]
    zeros = [0] * (s_max + 1) * w  # the rows at k = 1, 2 hold empty sums
    return [2, zeros, zeros, 1, 1, (s_max, j_max), (bounds, shifts, reads)]


class Moment(NamedTuple):
    """sum n^j * floor(alpha*n)^s, with alpha = phi^2 if ``prime`` else phi."""
    s: int
    j: int = 0
    prime: bool = False


_BLOCK = 4096  # floors held at once by the brute engine


class BruteEngine:
    """Literal summation in one resumable pass over n = 1, 2, ...

    Each block of n gets the floors the moments requested so far with
    s >= 1 read, floor(phi*n) or floor(phi^2*n), from one
    ``beatty_floor.phi_floors`` call, or, when they read both kinds,
    floor(phi^2*n) = n + floor(phi*n) from the floor(phi*n) block, and is
    added to every one of them; a moment with s = 0 sums n^j alone.  A
    request continues the pass, so a sweep over m = F_k - 1, k <= K, sums
    F_K - 1 terms; a request behind the pass, or with a moment not yet
    summed, restarts it.  ``terms`` counts the n summed.  Independent of
    ``MomentTable`` and the closed forms; confine an instance to one thread.
    """

    def __init__(self) -> None:
        self.terms = self._n = 0  # the running sums cover n = 1 .. self._n
        self._sums: dict[Moment, int] = {}

    def sums(self, m: int, moments: Iterable[Moment]) -> list[int]:
        """sum_{n=1}^{m} n^j * floor(alpha*n)^s for each requested moment.

        Past ``brute_guard()``, read at each request, it raises
        BruteForceGuardError before any term is summed.
        """
        moments = list(moments)
        if m < 0 or any(mo.s < 0 or mo.j < 0 for mo in moments):
            raise ValueError(f"need m >= 0 and nonnegative powers, got m={m}, {moments}")
        limit = brute_guard()
        if m > limit:
            terms = m if m < 10**30 else "over 10^30"  # no decimal text of a huge m
            raise BruteForceGuardError(f"the literal sum has {terms} terms, too large for brute "
                                       f"force (guard {limit}; raise {GUARD_ENV_VAR} to override)")
        if m < self._n or not self._sums.keys() >= set(moments):
            self._n, self._sums = 0, dict.fromkeys([*self._sums, *moments], 0)
        self._advance(m)
        return [self._sums[mo] for mo in moments]

    def at(self, k: int, moments: Iterable[Moment]) -> list[int]:
        """The sums over n = 1..F_k - 1: ``sums(F_k - 1, moments)``."""
        return self.sums(fib(k) - 1, moments)

    def _advance(self, m: int) -> None:
        """Add the terms n = self._n + 1 .. m to every running sum."""
        primes = {mo.prime for mo in self._sums if mo.s}  # the floor kinds read; s = 0 reads none
        for lo in range(self._n + 1, m + 1, _BLOCK):
            ns = range(lo, min(lo + _BLOCK, m + 1))
            floors = {False: phi_floors(ns)} if False in primes else {}
            if True in primes:  # floor(phi^2 n) = n + floor(phi n), as phi^2 = phi + 1
                floors[True] = list(map(add, ns, floors[False])) if floors else phi_floors(ns, True)
            for mo in self._sums:
                s, j, prime = mo
                if not s:  # n^j alone
                    self._sums[mo] += sum(map(pow, ns, repeat(j))) if j else len(ns)
                    continue
                terms = floors[prime] if s == 1 else map(pow, floors[prime], repeat(s))
                if j:
                    terms = map(mul, map(pow, ns, repeat(j)), terms)
                self._sums[mo] += sum(terms)
            self.terms += len(ns)
        self._n = m


# Every engine answers at(k, moments); the one place an engine name is read.
ENGINES = {"brute": BruteEngine, "recursive": MomentTable, "closed": ClosedEngine}


def make_engine(name: str, supported: Iterable[str] = ENGINES, context: str = ""):
    """A new engine named ``name``, one of ``supported``.

    ``context``, such as " for lemma2", follows the name in the error.
    """
    if name in supported:
        return ENGINES[name]()
    raise ValueError(f"unknown engine {name!r}{context}; supported: {', '.join(supported)}")

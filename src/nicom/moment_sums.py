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
  moment.  Each fill plan's step is straight-line code, generated as source
  and compiled at the plan's first fill, once per process.

A primed ``Moment`` gives A'(k, s, j) = sum n^j * floor(phi^2*n)^s, which
follows the same reduction with F_{k+1} in place of F_k.
"""

from __future__ import annotations

import os
from functools import cache
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
    as ``BruteEngine``'s pass does.  A plan's step is one function whose loop
    is straight-line code over local variables.  ``_compiled_step`` generates
    and compiles it at the plan's first fill: a ``functools.cache`` keyed by
    plan and kind that holds code and no values, so importing the module
    compiles nothing and every table on the plan shares the code.  A fill
    writes the frontier only after its step returns, so an interrupted fill
    leaves the frontier and ``len(table)`` as they were.  ``len(table)``
    counts the cells computed, a recomputed cell again.  Not internally
    synchronized: confine to one thread.
    """

    def __init__(self) -> None:
        self._cells = 0
        # prime -> frontier [k, row at k - 1, row at k, F_{k-1}, F_k, (s_max, j_max), step]
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
            zeros = [0] * (s_max + 1) * (j_max + 1)  # the rows at k = 1, 2 hold empty sums
            front = self._fronts[prime] = [2, zeros, zeros, 1, 1, (s_max, j_max),
                                           _compiled_step(s_max, j_max, prime)]
        if k > front[0]:
            self._advance(front, k)
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

    def _advance(self, front: list, k_max: int) -> None:
        """Step ``front`` from its k to k_max by its plan's compiled step."""
        k0, older, old, f_prev, f_cur, _, step = front
        front[:5] = k_max, *step(k0, k_max, older, old, f_prev, f_cur)
        self._cells += len(old) * (k_max - k0)


@cache
def _compiled_step(s_max: int, j_max: int, prime: bool):
    """The step of the plan (s_max, j_max) of one kind, compiled from generated source.

    ``step(k0, k_max, older, old, f_prev, f_cur)`` takes the rows at k0 - 1 and
    k0, which hold cell (s, j) at s * (j_max + 1) + j, with F_{k0-1} and F_{k0},
    and returns them at k_max as new lists; it writes nothing it was passed.
    Its loop keeps the rows at k - 2 and k - 1 in locals b<s>_<j> and a<s>_<j>,
    and each k
      * adds the boundary term (-eps_{k-1})^s, eps_{k-1} = k & 1, to b<s>_0;
      * shifts n' -> F_{k-1} + n' in place, j descending: b<s>_<j> becomes
        sum_l C(j,l) F_{k-1}^(j-l) b<s>_<l>, by Horner's rule from h<s> = b<s>_0 * F_{k-1};
      * reads in place, s descending: b<s>_<j> becomes a<s>_<j> plus
        sum_i C(s,i) step^(s-i) b<i>_<j>, by Horner's rule from p<j> = b0_<j> * step,
        so each column forms b0_<j> * step once;
      * swaps the a and b names, the new row becoming the row at k - 1.
    A Horner sum past its first product is a chain of statements on ``u``,
    as nested parentheses would meet the parser's limit at s or j >= 200.
    """
    w = j_max + 1
    cells = [f"{s}_{j}" for s in range(s_max + 1) for j in range(w)]
    row_a = ", ".join(f"a{c}" for c in cells)
    row_b = ", ".join(f"b{c}" for c in cells)
    body = ["f_prev, f_cur = f_cur, f_prev + f_cur",
            f"step = {'f_prev + f_cur' if prime else 'f_cur'}",
            "b0_0 += 1"]
    if s_max:
        body += ["if k & 1:"] + [f"    b{s}_0 {'+-'[s & 1]}= 1" for s in range(1, s_max + 1)]

    def horner(cell, head, x, terms, base=""):
        """Lines setting ``cell`` to base + ((head + t_1) * x + t_2) * x ... + t_n."""
        lines, u = [], head
        for i, (c, name) in enumerate(terms):
            if i:
                lines.append(f"u = {u}")
                u = f"u * {x}"
            u += f" + {c} * {name}" if c != 1 else f" + {name}"
        return lines + [f"{cell} = {base}{u}"]

    if j_max:
        body += [f"h{s} = b{s}_0 * f_prev" for s in range(s_max + 1)]
    for j in range(j_max, 0, -1):
        for s in range(s_max + 1):
            terms = [(comb(j, l), f"b{s}_{l}") for l in range(1, j + 1)]
            body += horner(f"b{s}_{j}", f"h{s}", "f_prev", terms)
    if s_max:
        body += [f"p{j} = b0_{j} * step" for j in range(w)]
    for s in range(s_max, -1, -1):
        for j in range(w):
            terms = [(comb(s, i), f"b{i}_{j}") for i in range(1, s + 1)]
            body += horner(f"b{s}_{j}", f"p{j}" if s else f"b0_{j}", "step", terms, f"a{s}_{j} + ")
    body.append(f"{row_a}, {row_b} = {row_b}, {row_a}")
    source = "\n".join([
        "def step(k0, k_max, older, old, f_prev, f_cur):",
        f"    {row_b}, = older",
        f"    {row_a}, = old",
        "    for k in range(k0 + 1, k_max + 1):",
        *(f"        {line}" for line in body),
        f"    return [{row_b}], [{row_a}], f_prev, f_cur"])
    namespace: dict = {}
    exec(compile(source, f"<MomentTable step {s_max, j_max, prime}>", "exec"), namespace)
    return namespace["step"]


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
        if m < 0:
            raise ValueError(f"need m >= 0, got m={m}")
        for s, j, _ in moments:
            if s < 0 or j < 0:
                raise ValueError(f"moment powers must be nonnegative, got s={s}, j={j}")
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
        if k < 1:
            raise ValueError(f"moment index k must be >= 1, got {k}")
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

    ``context``, such as " for lemma2", follows the name in the error, which
    calls a name outside ``ENGINES`` unknown and a registered one unsupported.
    """
    if name in supported:
        return ENGINES[name]()
    problem = "unsupported" if name in ENGINES else "unknown"
    raise ValueError(f"{problem} engine {name!r}{context}; supported: {', '.join(supported)}")

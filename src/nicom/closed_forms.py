"""Closed-form evaluators for the first and third Beatty moment sums.

Each evaluator expresses a moment sum (or a ratio built from moment sums)
as a product of Fibonacci and Lucas numbers, so it is usable at indices
far beyond brute-force range.  Each evaluator takes its index and one run
of consecutive Fibonacci numbers, and reads every F it needs from the run
and every L from L_n = F_{n-1} + F_{n+1} = 2F_{n+1} - F_n or, for the
doubled indices, L_{2n} = L_n^2 - 2(-1)^n.  All divisions are exact and
asserted; a remainder would mean a transcription bug, not a rounding issue.

``ClosedEngine`` is the one place a closed form is evaluated: it serves the
moments as ``at(k, moments)``, Theorem 1's num/den, Theorem 6's right side
and the F_n - 1 factorizations, each from one run of its one
``FibonacciWalk``, so a sweep in the index pays additions, not a doubling
per value; a caller with two index streams keeps one engine per stream.
The engine registry ``moment_sums.ENGINES`` names it next to the other
two.  The public lemma functions read a fresh engine, at most one fast
doubling each.  An engine built on another ring's one evaluates the same
evaluators in that ring.  The module is a leaf: it reads ``fib_lucas``
and no other part of nicom.
"""

from __future__ import annotations

from typing import Iterable

from .fib_lucas import FibonacciWalk


def _exact_div(n: int, d: int) -> int:
    q, r = divmod(n, d)
    if r:
        raise ArithmeticError(f"expected {n} to be divisible by {d}")
    return q


# Below, fN names F_{k+N}, fmN names F_{k-N} and lN names L_{k+N}.


def _a1(k: int, f: list[int]) -> int:
    _, f0, f1, _, _, _ = f
    return _exact_div((f1 - 1) * (f0 - 1), 2)


def _a1_prime(k: int, f: list[int]) -> int:
    _, f0, _, f2, _, _ = f
    return _exact_div((f2 - 1) * (f0 - 1), 2)


def _a3(k: int, f: list[int]) -> int:
    fm1, f0, f1, f2, f3, _ = f
    if k % 2 == 0:
        return _exact_div((fm1 - 1) * (f1 - 1) ** 2 * (f2 - 1), 4)
    l1 = f0 + f2  # L_{k+1}
    # L_{2k+2} = L_{k+1}^2 - 2 for odd k; L_{k+2} = F_{k+1} + F_{k+3}
    num = (f0 - 1) * (f1 - 1) * (l1 * l1 - 2 - 3 * (f1 + f3) - l1 + 3)
    return _exact_div(num, 20)


def _a3_prime(k: int, f: list[int]) -> int:
    _, f0, f1, f2, f3, f4 = f
    l2 = f1 + f3  # L_{k+2}
    # L_{2k+4} = L_{k+2}^2 - 2(-1)^k; L_{k+3} = F_{k+2} + F_{k+4}
    tail = l2 * l2 - 5 * (f2 + f4) + (11 if k % 2 == 0 else 9)
    return _exact_div((f0 - 1) * (f2 - 1) * tail, 20)


# (s, prime) -> evaluator(k, run at k): the moments with j = 0 the closed engine covers
_EVALUATORS = {(0, False): lambda k, f: f[1] - 1, (1, False): _a1, (1, True): _a1_prime,
               (3, False): _a3, (3, True): _a3_prime}
_EVALUATORS[0, True] = _EVALUATORS[0, False]  # A'(k, 0) = A(k, 0) = F_k - 1


def _theorem1_num_den(K: int, f: list[int]) -> tuple[int, int]:
    fm2, fm1, f0, f1, f2, f3 = f  # F_{k-2}, ..., F_{k+3} with k = ceil(K/2)
    # L_{k+2} = f1 + f3, L_{k+1} = f0 + f2, L_k = fm1 + f1, L_{k-1} = fm2 + f0,
    # L_{k-2} = 2 fm1 - fm2; with K >= 3 each factor of den is an F_j or L_j, j >= 1
    if K % 4 == 0:
        return 1, f1 * f1 * (f1 + f3) * (fm2 + f0)
    if K % 4 == 2:
        return 1, (f0 + f2) ** 2 * f2 * fm1
    if K % 4 == 3:
        return fm2, f1 * f0 * f0 * (fm2 + f0) ** 2
    return 2 * fm1 - fm2, (f0 + f2) * (fm1 + f1) ** 2 * fm1 * fm1


def _theorem6_rhs(k: int, f: list[int]) -> int:
    fm1, f0, f1, f2, f3, _ = f
    # L_{k+2} = f1 + f3, L_{k+1} = f0 + f2, L_k = fm1 + f1, L_{k-1} = 2 f0 - fm1
    if k % 2 == 0:
        return _exact_div(f1 * f0 * (f1 + f3) * (f0 + f2) * (2 * f0 - fm1), 2)
    return _exact_div(f2 * f1 * fm1 * (f0 + f2) * (fm1 + f1), 2)


def _fib_minus_one_factors(n: int, f: list[int]) -> tuple[int, int]:
    g0, g1, g2, g3 = f  # F_{2l}, ..., F_{2l+3} with n = 4l + r
    # L_{2l-1} = 2 F_{2l} - F_{2l-1} = 3 F_{2l} - F_{2l+1}, L_{2l+1} = g0 + g2, L_{2l+2} = g1 + g3
    r = n % 4
    if r == 0:
        return g1, 3 * g0 - g1
    if r == 1:
        return g0, g0 + g2
    if r == 2:
        return g0, g1 + g3
    return g2, g0 + g2


def moment_bits(k: int, s: int) -> int:
    """An upper bound on the bit length of A(k, s) and A'(k, s), for k >= 1 and s >= 0.

    Both sums have F_k - 1 terms, each at most F_{k+3}^s: n < F_k, and
    floor(phi n) <= floor(phi^2 n) < phi^2 F_k = F_{k+2} - psi^k < F_{k+2} + 1
    <= F_{k+3}, with psi = -1/phi.  So both are below F_{k+3}^(s+1).  And
    F_n <= phi^(n-1) < 2^(0.6943 n), as log2(phi) = 0.69424..., so F_n has at
    most floor(0.6943 n) + 1 bits.
    """
    return (s + 1) * ((k + 3) * 6943 // 10000 + 1)


class ClosedEngine:
    """The closed engine: F_k - 1 and Lemmas 2-4 as moment sums at m = F_k - 1.

    It covers j = 0 and s in {0, 1, 3} of the (s, j, prime) triples, such
    as ``moment_sums.Moment``, and reads every moment of a call from one
    run at k.  It also serves Theorem 1's num/den, Theorem 6's right side
    and the F_n - 1 factorizations.  It keeps one ``FibonacciWalk``, so a
    sweep at rising indices slides its run, one addition per new value; a
    caller with two index streams, such as ``at(K)`` and num/den near K/2,
    keeps one engine per stream.  Confine an instance to one thread.

    ``one`` is the ring's one, passed to the walk: the default gives ints,
    and an integral ``Decimal`` one, with every call made in an exact
    ``Decimal`` context, gives the same values as ``Decimal``s, whose decimal
    text ``str`` copies out in linear time.  The evaluators are the same in
    both rings; ``_exact_div``'s ``divmod`` is exact on integral ``Decimal``s.
    ``moment_bits(k, s)`` bounds a moment's size before it is evaluated.
    """

    def __init__(self, one=1) -> None:
        self._walk = FibonacciWalk(one)

    def _moment_run(self, k: int) -> list:
        """[F_{k-1}, ..., F_{k+4}]: every Fibonacci number a moment at k reads."""
        if k < 1:
            raise ValueError(f"index must be >= 1, got {k}")
        return self._walk.run(k - 1, 6)

    def at(self, k: int, moments: Iterable[tuple[int, int, bool]]) -> list:
        """A(k, s, j), or A'(k, s, j) for a primed moment, for each of ``moments``."""
        moments = list(moments)
        for s, j, prime in moments:
            if j != 0 or (s, prime) not in _EVALUATORS:
                raise ValueError(f"closed engine supports j = 0 and s in {{0, 1, 3}}, "
                                 f"got s = {s}, j = {j}")
        f = self._moment_run(k)
        return [_EVALUATORS[s, prime](k, f) for s, _, prime in moments]

    def theorem1_num_den(self, K: int) -> tuple[int, int]:
        """Numerator and denominator of the defect 1 - Q-difference at m = F_K - 1.

        The branch depends on K mod 4 (write K = 2k or K = 2k - 1 and split on
        the parity of k), and every branch reads one run of F near k:

            K = 2k,   k even (K = 0 mod 4):  (1,       F_{k+1}^2 L_{k+2} L_{k-1})
            K = 2k,   k odd  (K = 2 mod 4):  (1,       L_{k+1}^2 F_{k+2} F_{k-1})
            K = 2k-1, k even (K = 3 mod 4):  (F_{k-2}, F_{k+1} F_k^2 L_{k-1}^2)
            K = 2k-1, k odd  (K = 1 mod 4):  (L_{k-2}, L_{k+1} L_k^2 F_{k-1}^2)
        """
        if K < 3:
            raise ValueError(f"Q-difference closed form needs K >= 3 (m = F_K - 1 >= 1), got {K}")
        return _theorem1_num_den(K, self._moment_run((K + 1) // 2 - 1))

    def theorem6_rhs(self, k: int) -> int:
        """Closed form for LCM(A(2k, 1), A'(2k, 1)).

        Even k: F_{k+1} F_k L_{k+2} L_{k+1} L_{k-1} / 2
        Odd k:  F_{k+2} F_{k+1} F_{k-1} L_{k+1} L_k / 2
        """
        return _theorem6_rhs(k, self._moment_run(k))

    def fib_minus_one_factors(self, n: int) -> tuple[int, int]:
        """Split F_n - 1 into its (Fibonacci, Lucas) factor pair.

        The branch depends on n mod 4, and every branch reads one run at 2l,
        writing n = 4l + r:

            r = 0:  F_n - 1 = F_{2l+1} * L_{2l-1}
            r = 1:  F_n - 1 = F_{2l}   * L_{2l+1}
            r = 2:  F_n - 1 = F_{2l}   * L_{2l+2}
            r = 3:  F_n - 1 = F_{2l+2} * L_{2l+1}

        Requires n >= 3 so every index above is nonnegative.
        """
        if n < 3:
            raise ValueError(f"fib_minus_one_factors: index must be >= 3, got {n}")
        return _fib_minus_one_factors(n, self._walk.run(n // 4 * 2, 4))


def lemma2_a(k: int) -> int:
    """First moment A(k, 1) = (F_{k+1} - 1)(F_k - 1) / 2."""
    return ClosedEngine().at(k, [(1, 0, False)])[0]


def lemma2_a_prime(k: int) -> int:
    """First moment A'(k, 1) = (F_{k+2} - 1)(F_k - 1) / 2."""
    return ClosedEngine().at(k, [(1, 0, True)])[0]


def lemma3_a3(k: int) -> int:
    """Third moment A(k, 3), split on the parity of the index k.

    Even k:  (F_{k-1} - 1)(F_{k+1} - 1)^2 (F_{k+2} - 1) / 4
    Odd k:   (F_k - 1)(F_{k+1} - 1)(L_{2k+2} - 3 L_{k+2} - L_{k+1} + 3) / 20
    """
    return ClosedEngine().at(k, [(3, 0, False)])[0]


def lemma4_a_prime3(k: int) -> int:
    """Third moment A'(k, 3), split on the parity of the index k.

    Both branches share the shape
    (F_k - 1)(F_{k+2} - 1)(L_{2k+4} - 5 L_{k+3} + c) / 20
    with c = 13 for even k and c = 7 for odd k.
    """
    return ClosedEngine().at(k, [(3, 0, True)])[0]

"""Arbitrary-precision Fibonacci and Lucas numbers.

Everything here is exact integer arithmetic, on Python ints unless a
caller passes another ring's one (an integral ``Decimal``).  ``fib`` and
``lucas`` cost one fast doubling, a loop over the bits of the index, so
closed-form evaluation stays cheap even at indices in the tens of
thousands.  A ``FibonacciWalk`` returns runs of consecutive Fibonacci
numbers, from which a closed form reads every F and L it needs: it slides
the last run it returned near the index, adding one value per new one,
and makes one fast doubling only on a jump, so a sweep pays additions,
not a doubling per index.
"""

from __future__ import annotations


def _fib_pair(n: int, one=1):
    """Return (F_n, F_{n+1}) by fast doubling, from the top bit of n down.

    The loop holds (F_{m-1}, F_m), m the number the bits of n read so far
    spell, from (F_{-1}, F_0) = (one, one - one), and doubles m by two
    squarings:

        F_{2m-1} = F_{m-1}^2 + F_m^2,
        F_{2m+1} = 4 F_m^2 - F_{m-1}^2 + 2(-1)^m,

    and F_{2m} = F_{2m+1} - F_{2m-1}.  Both follow from the matrix
    Q = [[1, 1], [1, 0]], whose powers are Q^m = [[F_{m+1}, F_m], [F_m, F_{m-1}]]
    for m >= 0 (Q^0 is the identity as F_{-1} = 1 = F_1 - F_0).  The bottom
    right entry of Q^(a+b) = Q^a Q^b is F_{a+b-1} = F_a F_b + F_{a-1} F_{b-1};
    at a = b = m it gives F_{2m-1} = F_m^2 + F_{m-1}^2, and at a = b = m + 1
    it gives F_{2m+1} = F_{m+1}^2 + F_m^2.  The determinant of Q^m is Cassini's
    F_{m+1} F_{m-1} - F_m^2 = (-1)^m; put F_{m+1} = F_m + F_{m-1} in it and
    F_m F_{m-1} = F_m^2 - F_{m-1}^2 + (-1)^m, so
    F_{m+1}^2 = F_m^2 + 2 F_m F_{m-1} + F_{m-1}^2 = 3 F_m^2 - F_{m-1}^2 + 2(-1)^m,
    and F_{2m+1} = 4 F_m^2 - F_{m-1}^2 + 2(-1)^m.

    The loop uses only +, - and * (with int operands), so ``one`` picks the
    ring: the int 1 gives ints, and an integral ``Decimal`` one, in an exact
    context, gives the same numbers as ``Decimal`` values.
    """
    a, b, sign = one, one - one, 2  # F_{m-1}, F_m, 2(-1)^m at m = 0
    for bit in bin(n)[2:]:
        a, b = a * a, b * b
        lo, hi = a + b, 4 * b - a + sign  # F_{2m-1}, F_{2m+1}
        if bit == "1":  # m -> 2m + 1
            a, b, sign = hi - lo, hi, -2
        else:  # m -> 2m
            a, b, sign = lo, hi - lo, 2
    return b, a + b


def fib(n: int) -> int:
    """Fibonacci number F_n (F_0 = 0, F_1 = 1)."""
    if n < 0:
        raise ValueError(f"fib: index must be nonnegative, got {n}")
    return _fib_pair(n)[0]


class FibonacciWalk:
    """Runs of consecutive Fibonacci numbers for one index stream, mostly by additions.

    ``run(n, count)`` returns a new list [F_n, ..., F_{n+count-1}].  The
    walk keeps one place (i, [F_i, F_{i+1}, ...]), at least two values, the
    run of the last call; a fresh walk stands at (0, [F_0, F_1]).  A run at
    n >= i steps the kept run on by additions, one per missing value, and
    keeps it from F_n on; it makes one fast doubling instead when n < i or
    n - i exceeds ``n.bit_length()``.  So a stream that moves up by small
    steps pays additions only, and a caller that reads two streams, such as
    K - 1 and one near K/2, keeps one walk, or one ``ClosedEngine``, for
    each.  ``one`` is the ring's one, as in ``_fib_pair``: the default
    gives ints.  Confine an instance to one thread.
    """

    def __init__(self, one=1) -> None:
        self._one = one
        self._i, self._kept = 0, [one - one, one]  # (i, run from F_i)

    def run(self, n: int, count: int) -> list:
        """[F_n, F_{n+1}, ..., F_{n+count-1}]."""
        if n < 0:
            raise ValueError(f"FibonacciWalk.run: index must be nonnegative, got {n}")
        i, kept = self._i, self._kept
        if n < i or n - i > n.bit_length():
            i, kept = n, list(_fib_pair(n, self._one))
        a, b = kept[-2], kept[-1]
        for _ in range(n - i + max(count, 2) - len(kept)):  # on to F_{n+count-1}, at least F_{n+1}
            a, b = b, a + b
            kept.append(b)
        del kept[:n - i]
        self._i, self._kept = n, kept
        return kept[:count]


def lucas(n: int) -> int:
    """Lucas number L_n (L_0 = 2, L_1 = 1)."""
    if n < 0:
        raise ValueError(f"lucas: index must be nonnegative, got {n}")
    a, b = _fib_pair(n)
    # L_n = F_{n-1} + F_{n+1} = 2*F_{n+1} - F_n
    return 2 * b - a

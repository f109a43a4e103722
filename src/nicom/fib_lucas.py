"""Arbitrary-precision Fibonacci and Lucas numbers.

Everything here is exact integer arithmetic on Python ints.  ``fib`` and
``lucas`` cost one fast doubling, a loop over the bits of the index, so
closed-form evaluation stays cheap even at indices in the tens of
thousands.  ``fib_run`` returns a run of consecutive Fibonacci numbers for
the same one doubling plus an addition per extra term; a closed form reads
every F and L it needs from one run.  The ``F_n - 1`` factorizations split a
Fibonacci number minus one into a Fibonacci times a Lucas factor according
to the index class modulo 4.
"""

from __future__ import annotations


def _fib_pair(n: int) -> tuple[int, int]:
    """Return (F_n, F_{n+1}) by fast doubling, from the top bit of n down."""
    a, b = 0, 1
    for bit in bin(n)[2:]:
        c = a * (2 * b - a)
        d = a * a + b * b
        a, b = (d, c + d) if bit == "1" else (c, d)
    return a, b


def fib(n: int) -> int:
    """Fibonacci number F_n (F_0 = 0, F_1 = 1)."""
    if n < 0:
        raise ValueError(f"fib: index must be nonnegative, got {n}")
    return _fib_pair(n)[0]


def fib_run(n: int, count: int) -> list[int]:
    """[F_n, F_{n+1}, ..., F_{n+count-1}] from one fast doubling."""
    if n < 0:
        raise ValueError(f"fib_run: index must be nonnegative, got {n}")
    a, b = _fib_pair(n)
    run = []
    for _ in range(count):
        run.append(a)
        a, b = b, a + b
    return run


def lucas(n: int) -> int:
    """Lucas number L_n (L_0 = 2, L_1 = 1)."""
    if n < 0:
        raise ValueError(f"lucas: index must be nonnegative, got {n}")
    a, b = _fib_pair(n)
    # L_n = F_{n-1} + F_{n+1} = 2*F_{n+1} - F_n
    return 2 * b - a


def fib_minus_one_factors(n: int) -> tuple[int, int]:
    """Split F_n - 1 into its (Fibonacci, Lucas) factor pair.

    The branch depends on n mod 4; writing n = 4l + r:

        r = 0:  F_n - 1 = F_{2l+1} * L_{2l-1}
        r = 1:  F_n - 1 = F_{2l}   * L_{2l+1}
        r = 2:  F_n - 1 = F_{2l}   * L_{2l+2}
        r = 3:  F_n - 1 = F_{2l+2} * L_{2l+1}

    Requires n >= 3 so every index above is nonnegative.
    """
    if n < 3:
        raise ValueError(f"fib_minus_one_factors: index must be >= 3, got {n}")
    l, r = divmod(n, 4)
    if r == 0:
        return fib(2 * l + 1), lucas(2 * l - 1)
    if r == 1:
        return fib(2 * l), lucas(2 * l + 1)
    if r == 2:
        return fib(2 * l), lucas(2 * l + 2)
    return fib(2 * l + 2), lucas(2 * l + 1)

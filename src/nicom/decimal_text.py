"""Exact decimal text of integers and rationals of any size.

Since Python 3.11 (and in the 3.10 security releases), ``str`` of an int
with more than ``sys.get_int_max_str_digits()`` digits (4300 by default)
raises ValueError.  ``decimal_str`` never hands ``str`` more than
``_LEAF_DIGITS`` digits, below the smallest limit the interpreter accepts
(640): it splits the value by the cached powers 10^(_LEAF_DIGITS * 2^i)
and joins the zero-padded pieces.  The interpreter's limit is left alone.
"""

from __future__ import annotations

_LEAF_DIGITS = 512
_POWERS = [10**_LEAF_DIGITS]  # _POWERS[i] = 10 ** (_LEAF_DIGITS * 2**i)


def _power(i: int) -> int:
    while len(_POWERS) <= i:
        _POWERS.append(_POWERS[-1] * _POWERS[-1])
    return _POWERS[i]


def _padded(n: int, i: int) -> str:
    """The digits of 0 <= n < _power(i), zero-padded to _LEAF_DIGITS * 2**i."""
    if i == 0:
        return str(n).zfill(_LEAF_DIGITS)
    hi, lo = divmod(n, _power(i - 1))
    return _padded(hi, i - 1) + _padded(lo, i - 1)


def decimal_str(value: int) -> str:
    """str(value) for an int of any size, without the interpreter's digit limit."""
    if value < 0:
        return "-" + decimal_str(-value)
    if value < _POWERS[0]:
        return str(value)
    i = 0
    while _power(i + 1) <= value:
        i += 1
    hi, lo = divmod(value, _power(i))  # _power(i) <= value < _power(i)**2
    return decimal_str(hi) + _padded(lo, i)


def exact_str(value) -> str:
    """str(value) for a bool, an int or a Fraction of any size."""
    if isinstance(value, bool):
        return str(value)
    num, den = value.numerator, value.denominator
    return decimal_str(num) if den == 1 else f"{decimal_str(num)}/{decimal_str(den)}"

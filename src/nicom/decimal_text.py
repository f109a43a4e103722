"""Exact decimal text of integers of any size.

Since Python 3.11 (and in the 3.10 security releases), ``str`` of an int
with more than ``sys.get_int_max_str_digits()`` digits (4300 by default)
raises ValueError.  ``decimal_str`` never hands ``str`` more than
``_LEAF_DIGITS`` digits, below the smallest limit the interpreter accepts
(640), and leaves the interpreter's limit alone.  It has two regimes:

* up to ``_JOIN_BITS`` bits (about 14,800 digits) it splits the value by
  the int powers 10^(_LEAF_DIGITS * 2^i) and joins the zero-padded
  pieces.  Each ``divmod`` is quadratic, which is cheap at this size;
* above it, it splits the value into binary halves at the widths
  _LEAF_BITS * 2^i, down to leaves of at most ``_LEAF_BITS`` bits (about
  4,900 digits), converts each leaf by the first regime into a
  ``Decimal``, and joins the halves as ``lo + hi * 2^w`` in an exact
  ``Decimal`` context.  libmpdec multiplies large operands by a
  number-theoretic transform, so the whole is subquadratic.  This is the
  method of CPython 3.12's ``_pylong.int_to_decimal_string``.  Below
  ``_JOIN_BITS`` libmpdec's multiplies cost more than the divmods they
  would replace.

Both power caches, ``_POWERS`` and ``_JOINS``, hold one entry per width:
O(log) entries in the largest value converted.

``exact_context`` is the one exact ``Decimal`` context, shared by the
second regime and the CLI's large closed forms, whose ``Decimal`` values
``str`` copies out with no binary-to-decimal conversion at all.

``decimal_digest`` gives the digit count and the leading and trailing
``DIGEST_WIDTH`` digits of a value without its decimal text, by one power
of 5 and one division.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from decimal import Decimal

_LEAF_DIGITS = 512
_POWERS = [10**_LEAF_DIGITS]  # _POWERS[i] = 10 ** (_LEAF_DIGITS * 2**i)
_JOIN_BITS = 3 * 2**14  # above this size decimal_str joins Decimal halves
_LEAF_BITS = 2**14
_JOINS: list[Decimal] = []  # _JOINS[i] = Decimal(2 ** (_LEAF_BITS * 2**i))
DIGEST_WIDTH = 8  # the leading and trailing digits decimal_digest gives


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


def _join(i: int) -> Decimal:
    """2 ** (_LEAF_BITS * 2**i); only called in the exact context."""
    from decimal import Decimal

    while len(_JOINS) <= i:
        _JOINS.append(_JOINS[-1] * _JOINS[-1] if _JOINS else Decimal(2) ** _LEAF_BITS)
    return _JOINS[i]


def _decimal(n: int) -> Decimal:
    """Decimal(n) for 0 <= n, split at the largest width _LEAF_BITS * 2**i below its size."""
    from decimal import Decimal

    bits = n.bit_length()
    if bits <= _LEAF_BITS:
        return Decimal(decimal_str(n))
    i = ((bits - 1) // _LEAF_BITS).bit_length() - 1
    w = _LEAF_BITS << i  # w < bits <= 2w
    hi = n >> w
    return _decimal(n - (hi << w)) + _decimal(hi) * _join(i)


def exact_context():
    """A context manager whose block runs in an exact ``Decimal`` context.

    There, precision and exponent range are the largest libmpdec allows,
    and ``Inexact`` is trapped, so arithmetic on integral ``Decimal``s is
    exact or raises.  It is the module's one exact context: ``decimal_str``
    joins its halves in it, and the CLI evaluates large closed forms in it.
    """
    from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Inexact, getcontext, localcontext

    ctx = getcontext().copy()
    ctx.prec, ctx.Emax, ctx.Emin = MAX_PREC, MAX_EMAX, MIN_EMIN
    ctx.traps[Inexact] = True
    return localcontext(ctx)


def decimal_str(value: int) -> str:
    """str(value) for an int of any size, without the interpreter's digit limit."""
    if value < 0:
        return "-" + decimal_str(-value)
    if value < _POWERS[0]:
        return str(value)
    if value.bit_length() > _JOIN_BITS:
        with exact_context():
            return str(_decimal(value))
    i = 0
    while _power(i + 1) <= value:
        i += 1
    hi, lo = divmod(value, _power(i))  # _power(i) <= value < _power(i)**2
    return decimal_str(hi) + _padded(lo, i)


def decimal_digest(value: int) -> tuple[int, str, str]:
    """(len(t), t[:w], t[-w:]) for t = decimal_str(abs(value)) and w = DIGEST_WIDTH, without building t.

    Every part is exact: the tail is n % 10^w, and the head is
    floor(n / 10^e) = (n >> e) // 5^e, with e raised until the head has w
    digits, which makes the count e + w.
    """
    w = DIGEST_WIDTH
    n = abs(value)
    if n < _POWERS[0]:
        t = str(n)
        return len(t), t[:w], t[-w:]
    # 10^lo <= n, as 0.301029995 < log10(2) and 2^(bits - 1) <= n
    lo = (n.bit_length() - 1) * 301029995 // 10**9
    e = lo + 1 - w  # floor(n / 10^e) >= 10^(w - 1)
    head = (n >> e) // 5**e
    while head >= 10**w:
        head //= 10
        e += 1
    return e + w, str(head), str(n % 10**w).zfill(w)


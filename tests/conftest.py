from math import isqrt

import pytest

from nicom import fib_lucas
from nicom.fib_lucas import fib
from nicom.moment_sums import BruteEngine, Moment


@pytest.fixture
def doublings(monkeypatch):
    """The index of every fast doubling made, ``fib_lucas._fib_pair``'s argument."""
    made = []
    pair = fib_lucas._fib_pair
    monkeypatch.setattr(fib_lucas, "_fib_pair", lambda n, *one: made.append(n) or pair(n, *one))
    return made


def beatty(n, prime=False):
    """Independent oracle: floor(alpha*n), alpha = phi^2 if ``prime`` else phi, for n >= 0.

    phi*n = (n + sqrt(5n^2)) / 2 and phi^2*n = (3n + sqrt(5n^2)) / 2, and
    floor((c + x) / 2) = (c + floor(x)) >> 1 for an integer c and a real x.
    """
    return ((3 * n if prime else n) + isqrt(5 * n * n)) >> 1


def literal(m, s, j=0, prime=False):
    """Independent oracle: the defining sum over n = 1..m, written out."""
    return sum(n**j * beatty(n, prime) ** s for n in range(1, m + 1))


def brute_sum(k, s, j=0, prime=False):
    """The literal-sum engine over n = 1..F_k - 1, fresh for each call."""
    return BruteEngine().sums(fib(k) - 1, [Moment(s, j, prime)])[0]

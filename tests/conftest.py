import pytest

from nicom import fib_lucas
from nicom.beatty_floor import floor_phi
from nicom.fib_lucas import fib
from nicom.moment_sums import BruteEngine, Moment


@pytest.fixture
def doublings(monkeypatch):
    """The index of every fast doubling made, ``fib_lucas._fib_pair``'s argument."""
    made = []
    pair = fib_lucas._fib_pair
    monkeypatch.setattr(fib_lucas, "_fib_pair", lambda n, *one: made.append(n) or pair(n, *one))
    return made


def floor_phi2(n):
    """floor(phi^2*n) = n + floor(phi*n), as phi^2 = phi + 1."""
    return n + floor_phi(n)


def literal(m, s, j=0, prime=False):
    """Independent oracle: the defining sum over n = 1..m, written out."""
    floor = floor_phi2 if prime else floor_phi
    return sum(n**j * floor(n) ** s for n in range(1, m + 1))


def brute_sum(k, s, j=0, prime=False):
    """The literal-sum engine over n = 1..F_k - 1, fresh for each call."""
    return BruteEngine().sums(fib(k) - 1, [Moment(s, j, prime)])[0]

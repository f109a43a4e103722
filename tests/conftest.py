import pytest

from nicom import fib_lucas


@pytest.fixture
def doublings(monkeypatch):
    """The index of every fast doubling made, ``fib_lucas._fib_pair``'s argument."""
    made = []
    pair = fib_lucas._fib_pair
    monkeypatch.setattr(fib_lucas, "_fib_pair", lambda n: made.append(n) or pair(n))
    return made

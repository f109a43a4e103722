"""The one engine interface: every registered engine answers at(k, moments)."""

import pytest

from nicom import closed_forms as cf
from nicom.fib_lucas import fib_run
from nicom.moment_sums import ENGINES, BruteEngine, Moment, make_engine
from nicom.qratio import q_diff, theorem1_identity_sides
from nicom.verify_suite import CLAIMS

# every moment with s + j <= 4, plain and primed
MOMENTS = [Moment(s, j, prime) for prime in (False, True) for s in range(5) for j in range(5 - s)]
# the engines that cover fewer moments; the others cover all of MOMENTS
COVERED = {"closed": [mo for mo in MOMENTS if mo.j == 0 and mo.s in (0, 1, 3)]}


@pytest.mark.parametrize("name", list(ENGINES))
def test_every_engine_agrees_with_the_literal_sums(name):
    moments = COVERED.get(name, MOMENTS)
    assert len(moments) > 1
    engine, literal = make_engine(name), BruteEngine()
    for k in range(1, 21):
        assert engine.at(k, moments) == literal.at(k, moments), (name, k)


@pytest.fixture
def runs(monkeypatch):
    """The first index of every fib_run the closed forms make."""
    starts = []

    def counted(n, count):
        starts.append(n)
        return fib_run(n, count)

    monkeypatch.setattr(cf, "fib_run", counted)
    return starts


@pytest.mark.parametrize("K", [50, 51, 52, 53])
def test_one_fibonacci_run_per_closed_call(runs, K):
    q_diff(K, "closed")
    assert runs == [K - 1]
    runs.clear()
    # a theorem6 row on the closed engine reads A(2K, 1) and A'(2K, 1), then its
    # right-hand side near K
    (lhs, rhs), = CLAIMS["theorem6"].rows(K, cf.ClosedEngine())
    assert lhs == rhs
    assert runs == [2 * K - 1, K - 1]
    runs.clear()
    lhs, rhs = theorem1_identity_sides(K)
    assert lhs == rhs
    # one run at K for the four moments, one near K/2 for num/den
    assert len(runs) == 2 and runs[1] == K - 1 and runs[0] < K // 2


def test_an_uncovered_moment_raises_before_any_run(runs):
    for moments in ([Moment(2)], [Moment(1), Moment(1, 1)], [Moment(3, prime=True), Moment(4)]):
        with pytest.raises(ValueError, match="closed engine supports"):
            cf.ClosedEngine().at(30, moments)
    assert runs == []

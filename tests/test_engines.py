"""The one engine interface: every registered engine answers at(k, moments)."""

import pytest

from nicom import closed_forms as cf
from nicom import qratio, verify_suite
from nicom.moment_sums import ENGINES, BruteEngine, Moment, make_engine
from nicom.qratio import q_diff, theorem1_identity_sides
from nicom.verify_suite import CLAIMS, prove_claim, verify_claim

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


@pytest.mark.parametrize("name", list(ENGINES))
@pytest.mark.parametrize("k", [0, -1])
def test_every_engine_rejects_an_index_below_one_by_name(name, k):
    with pytest.raises(ValueError, match=rf"index (k )?must be >= 1, got {k}$"):
        make_engine(name).at(k, [Moment(1)])


@pytest.mark.parametrize("K", [50, 51, 52, 53])
def test_one_fibonacci_run_per_closed_call(doublings, K):
    q_diff(K, "closed")
    assert doublings == [K - 1]
    doublings.clear()
    # a theorem6 row on a fresh closed engine reads A(2K, 1) and A'(2K, 1), then
    # its right-hand side near K, from the engine's walk
    engine = cf.ClosedEngine()
    (lhs, rhs), = CLAIMS["theorem6"].rows(K, engine, engine)
    assert lhs == rhs
    assert doublings == [2 * K - 1, K - 1]
    doublings.clear()
    engine = cf.ClosedEngine()
    lhs, rhs = theorem1_identity_sides(K, engine, engine)
    assert lhs == rhs
    # one run near K/2 for num/den, one at K for the four moments
    assert len(doublings) == 2 and doublings[0] < K // 2 and doublings[1] == K - 1


@pytest.mark.parametrize("claim, k_max, engines", [
    ("theorem1", 300, ("closed",)),
    ("theorem1", 250, ("recursive",)),
    ("case4l", 300, None),
    ("theorem6", 400, None),
    ("lemma3", 250, ("recursive",)),
    ("fact-identities", 50, None),
])
def test_a_closed_sweep_doubles_only_on_a_jump(doublings, claim, k_max, engines):
    assert verify_claim(claim, k_max, engines).passed
    assert len(doublings) <= 8


def test_prove_theorem1_doubles_once_per_stream_and_section(doublings):
    certs = prove_claim("theorem1")
    assert all(c.certified for c in certs)
    # the factor lists' Lucas numbers, 42 of them, and two streams (K - 1 and one
    # near K/2), read in one ascending pass over the four residue sections
    assert len(doublings) <= 42 + 2


def _runs(claim):
    """verify of ``claim`` by default, --deep and on each supported engine, then prove if it can."""
    entry = CLAIMS[claim]
    yield lambda: verify_claim(claim).passed
    yield lambda: verify_claim(claim, deep=True).passed
    for name in entry.supported:
        yield lambda name=name: verify_claim(claim, engines=(name,)).passed
    if entry.sections:
        yield lambda: all(c.certified for c in prove_claim(claim))


@pytest.mark.parametrize("claim", list(CLAIMS))
def test_every_closed_engine_of_a_claim_reads_one_index_stream(monkeypatch, claim):
    logs = []  # per ClosedEngine built, the start index of each run its walks return

    class Walk(cf.FibonacciWalk):
        """A walk that logs each run's start in the log of the engine that builds it."""

        def __init__(self, *one):
            super().__init__(*one)
            self.log = logs[-1]

        def run(self, n, count):
            self.log.append(n)
            return super().run(n, count)

    init = cf.ClosedEngine.__init__

    def logged(engine, *one):
        logs.append([])
        init(engine, *one)

    monkeypatch.setattr(cf, "FibonacciWalk", Walk)
    monkeypatch.setattr(cf.ClosedEngine, "__init__", logged)
    for run in _runs(claim):
        logs.clear()
        assert run(), claim
        assert logs, claim  # each call builds its own closed engine, at least
        # one stream moves up: each run starts at or past the one before it
        assert all(log == sorted(log) for log in logs), (claim, logs)


def test_an_uncovered_moment_raises_before_any_run(doublings):
    for moments in ([Moment(2)], [Moment(1), Moment(1, 1)], [Moment(3, prime=True), Moment(4)]):
        with pytest.raises(ValueError, match="closed engine supports"):
            cf.ClosedEngine().at(30, moments)
    assert doublings == []


def test_an_engine_name_becomes_an_engine_once_where_it_enters(monkeypatch):
    built = []
    make = verify_suite.make_engine

    def counted(name, *args):
        built.append(name)
        return make(name, *args)

    def refused(name, *args):
        raise AssertionError(f"qratio called make_engine({name!r}); it takes engines")

    monkeypatch.setattr(verify_suite, "make_engine", counted)
    monkeypatch.setattr(qratio, "make_engine", refused)
    for claim in ("theorem1", "case4l", "nicomachus"):
        report = verify_claim(claim, 12)
        assert report.passed, claim
        assert built == list(report.engines), claim
        built.clear()
    assert all(c.certified for c in prove_claim("theorem1"))
    assert built == ["closed"]

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nicom import moment_sums, verify_suite
from nicom.beatty_floor import phi_floors
from nicom.fib_lucas import fib
from nicom.moment_sums import BruteEngine, BruteForceGuardError, Moment, MomentTable
from nicom.qratio import q_value

from conftest import literal


def test_sweep_matches_moment_table():
    table = MomentTable()
    engine = BruteEngine()
    plain = [Moment(s, total - s) for total in range(5) for s in range(total + 1)]
    primed = [Moment(s, prime=True) for s in range(5)]
    for k in range(1, 21):
        values = engine.sums(fib(k) - 1, plain + primed)
        want = [table.a(k, mo.s, mo.j) for mo in plain]
        want += [table.a(k, mo.s, 0, True) for mo in primed]
        assert values == want, k
    assert engine.terms == fib(20) - 1


def test_q_value_off_fibonacci_indices():
    for m in (4, 5, 6, 10, 11, 100, 999, 1000):
        for alpha, prime in (("phi", False), ("phi2", True)):
            want = Fraction(literal(m, 3, prime=prime), literal(m, 1, prime=prime) ** 2)
            assert q_value(alpha, m) == want, (alpha, m)
            assert q_value(alpha, m, engine="brute") == want, (alpha, m)
    with pytest.raises(ValueError, match="F_K - 1"):
        q_value("phi", 5, engine="recursive")


def test_resume_then_add_a_moment_mid_stream():
    engine = BruteEngine()
    assert engine.sums(10, [Moment(1)]) == [literal(10, 1)]
    assert engine.terms == 10
    assert engine.sums(100, [Moment(1)]) == [literal(100, 1)]
    assert engine.terms == 100  # resumed from n = 11, not restarted
    # a new moment restarts the pass, which then carries every moment
    assert engine.sums(100, [Moment(3, 2)]) == [literal(100, 3, 2)]
    assert engine.terms == 200
    assert engine.sums(150, [Moment(1)]) == [literal(150, 1)]
    assert engine.terms == 250
    assert engine.sums(150, [Moment(1), Moment(3, 2), Moment(2, prime=True)]) == [
        literal(150, 1), literal(150, 3, 2), literal(150, 2, prime=True)]
    assert engine.terms == 400
    assert engine.sums(160, [Moment(3, 2), Moment(1)]) == [literal(160, 3, 2), literal(160, 1)]
    assert engine.terms == 410
    # so does a request behind the pass
    assert engine.sums(40, [Moment(2, prime=True)]) == [literal(40, 2, prime=True)]
    assert engine.terms == 450
    assert engine.sums(0, [Moment(3)]) == [0]


def test_repeated_request_sums_nothing():
    engine = BruteEngine()
    assert engine.sums(100, [Moment(1), Moment(3)]) == [literal(100, 1), literal(100, 3)]
    assert engine.sums(100, [Moment(3)]) == [literal(100, 3)]
    assert engine.terms == 100
    engine = BruteEngine()
    assert engine.at(12, [Moment(3, 1)]) == [literal(fib(12) - 1, 3, 1)]
    assert engine.sums(fib(12) - 1, [Moment(3, 1)]) == [literal(fib(12) - 1, 3, 1)]
    assert engine.terms == fib(12) - 1


def test_floors_come_from_one_block_call(monkeypatch):
    blocks = []

    def counted(ns, prime=False):
        blocks.append((ns, prime))
        return phi_floors(ns, prime)

    monkeypatch.setattr(moment_sums, "phi_floors", counted)
    ranges = [range(1, 4097), range(4097, 8193), range(8193, 10001)]
    engine = BruteEngine()
    assert engine.sums(10000, [Moment(1), Moment(2, prime=True)]) == [
        literal(10000, 1), literal(10000, 2, prime=True)]
    # with both kinds read, floor(phi^2 n) = n + floor(phi n) comes from the floor(phi n) block
    assert blocks == [(ns, False) for ns in ranges]
    assert engine.terms == 10000
    # a block computes only the floor kinds its moments read; one with s = 0 reads none
    for moments, kinds in (([Moment(3, 1), Moment(0, 2)], (False,)),
                           ([Moment(1, 1, prime=True), Moment(0, prime=True)], (True,)),
                           ([Moment(0, 3), Moment(0, 1), Moment(0), Moment(0, 2, True)], ())):
        blocks.clear()
        engine = BruteEngine()
        assert engine.sums(10000, moments) == [literal(10000, *mo) for mo in moments]
        assert blocks == [(ns, prime) for ns in ranges for prime in kinds], moments
        assert engine.terms == 10000


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5 * 10**4 - 1))
def test_primed_sums_are_equal_on_both_floor_routes(m):
    # a request that reads both floor kinds adds n to the floor(phi n) block; a
    # primed-only one multiplies by floor(phi^2 2^b) directly
    both = BruteEngine().sums(m, [Moment(3), Moment(1, prime=True), Moment(3, prime=True)])
    assert both[1:] == BruteEngine().sums(m, [Moment(1, prime=True), Moment(3, prime=True)])


def test_guard_raises_before_any_term_is_summed(monkeypatch):
    monkeypatch.setenv("NICOM_BRUTE_GUARD", "10")
    engine = BruteEngine()
    assert engine.sums(10, [Moment(1)]) == [literal(10, 1)]
    with pytest.raises(BruteForceGuardError, match="guard 10"):
        engine.sums(11, [Moment(3)])
    assert engine.terms == 10
    with pytest.raises(ValueError):
        engine.sums(-1, [Moment(1)])
    monkeypatch.setenv("NICOM_BRUTE_GUARD", "0")
    with pytest.raises(BruteForceGuardError):
        BruteEngine().sums(1, [Moment(1)])
    monkeypatch.setenv("NICOM_BRUTE_GUARD", "-1")
    with pytest.raises(ValueError, match="NICOM_BRUTE_GUARD must be a nonnegative"):
        BruteEngine().sums(1, [Moment(1)])


def test_a_negative_m_is_named_in_its_error():
    engine = BruteEngine()
    with pytest.raises(ValueError, match=r"^need m >= 0, got m=-1$"):
        engine.sums(-1, [Moment(1)])
    assert engine.terms == 0


@pytest.mark.parametrize("s, j", [(1, -1), (-2, 0), (-1, -3)])
def test_a_negative_power_is_named_as_the_table_names_it(s, j):
    engine, message = BruteEngine(), rf"^moment powers must be nonnegative, got s={s}, j={j}$"
    with pytest.raises(ValueError, match=message):
        engine.sums(4, [Moment(0), Moment(s, j, prime=True)])
    assert engine.terms == 0
    with pytest.raises(ValueError, match=message):
        MomentTable().a(5, s, j)


def test_verify_lists_guarded_indices_as_skipped(monkeypatch):
    monkeypatch.setenv("NICOM_BRUTE_GUARD", str(fib(7) - 1))
    report = verify_suite.verify_claim("lemma3", k_max=9, engines=("brute",))
    assert report.passed
    assert report.skipped == [8, 9]
    report = verify_suite.verify_claim("theorem1", k_max=9, engines=("brute",))
    assert report.skipped == [8, 9]


def _count_terms(monkeypatch, claim, k_max, engines):
    engines_built = []

    class Counted(BruteEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines_built.append(self)

    monkeypatch.setitem(moment_sums.ENGINES, "brute", Counted)
    assert verify_suite.verify_claim(claim, k_max=k_max, engines=engines).passed
    assert len(engines_built) == 1
    return engines_built[0].terms


@pytest.mark.parametrize("claim", ["lemma2", "lemma3", "lemma4", "theorem1"])
def test_brute_sweep_sums_each_term_once(monkeypatch, claim):
    K = 18
    assert _count_terms(monkeypatch, claim, K, ("brute",)) == fib(K) - 1


def test_nicomachus_sweep_sums_each_term_once(monkeypatch):
    assert _count_terms(monkeypatch, "nicomachus", 1000, ("brute",)) == 1000


def test_guard_that_leaves_only_empty_sums_is_inconclusive(monkeypatch):
    monkeypatch.setenv("NICOM_BRUTE_GUARD", "0")
    report = verify_suite.verify_claim("lemma3", engines=("brute",))
    assert report.verdict == "inconclusive"
    assert not report.passed
    assert report.skipped == [3, 18]
    assert report.to_dict()["verdict"] == "inconclusive"
    # with nothing skipped, comparing only the empty sums is inconclusive too
    report = verify_suite.verify_claim("lemma3", k_max=2, engines=("brute",))
    assert (report.verdict, report.skipped) == ("inconclusive", [])


def test_guard_trip_skips_only_the_brute_rows(monkeypatch):
    monkeypatch.setenv("NICOM_BRUTE_GUARD", "200")  # F_13 - 1 = 232 trips it
    reports = [verify_suite.verify_claim("theorem1", k_max=16, engines=engines)
               for engines in [("brute", "recursive"), ("recursive", "brute")]]
    checked = [sorted((r.index, r.lhs) for r in report.rows) for report in reports]
    assert checked[0] == checked[1]
    # both engines at K = 3..12, the recursive one alone at K = 13..16
    assert [K for K, _ in checked[0]] == sorted(2 * [*range(3, 13)]) + [13, 14, 15, 16]
    assert all(report.passed and report.skipped == [13, 16] for report in reports)


@pytest.mark.parametrize("claim, k_max, engines", [
    ("lemma3", 20, ("brute", "recursive")),
    ("theorem1", 20, ("brute",)),
    ("theorem6", 12, ("brute", "closed")),
    ("nicomachus", 1100, ("brute",)),
])
def test_guard_trips_once_per_run(monkeypatch, claim, k_max, engines):
    monkeypatch.setenv("NICOM_BRUTE_GUARD", "1000")
    trips = []
    sums = BruteEngine.sums

    def counted(self, m, moments):
        try:
            return sums(self, m, moments)
        except BruteForceGuardError:
            trips.append(m)
            raise

    monkeypatch.setattr(BruteEngine, "sums", counted)
    report = verify_suite.verify_claim(claim, k_max=k_max, engines=engines)
    assert report.passed
    assert len(trips) == 1, trips
    assert len(report.skipped) == 2 and report.skipped[1] == k_max


def test_sweep_ends_once_every_engine_has_tripped(monkeypatch):
    monkeypatch.setenv("NICOM_BRUTE_GUARD", "1000")
    indices, swept = [], []
    entry = verify_suite.CLAIMS["nicomachus"]
    monkeypatch.setitem(verify_suite.CLAIMS, "nicomachus", entry._replace(
        rows=lambda m, engine, closed: indices.append(m) or entry.rows(m, engine, closed)))

    def recorded_range(*args):  # the indices the sweep walks, called or not
        for idx in range(*args):
            swept.append(idx)
            yield idx

    monkeypatch.setattr(verify_suite, "range", recorded_range, raising=False)
    report = verify_suite.verify_claim("nicomachus", k_max=200000)
    assert (report.verdict, report.skipped) == ("pass", [1001, 200000])
    assert [r.index for r in report.rows] == list(range(1, 1001))
    assert indices == list(range(1, 1002))
    assert swept == list(range(1, 1002))  # the trip at 1001 ends the sweep


def test_theorem6_brute_sweep_sums_each_term_once(monkeypatch):
    assert _count_terms(monkeypatch, "theorem6", 9, ("brute", "closed")) == fib(18) - 1


def test_guard_message_for_a_sum_past_the_digit_limit():
    # F_30000 - 1 has over 6000 digits; the guard error must not render it
    with pytest.raises(BruteForceGuardError, match="over 10\\^30 terms"):
        BruteEngine().sums(fib(30000) - 1, [Moment(1)])

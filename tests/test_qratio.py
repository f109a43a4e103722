import random
import sys
import threading
from fractions import Fraction
from math import gcd, isqrt

import pytest

from nicom import fib_lucas
from nicom.closed_forms import ClosedEngine
from nicom.fib_lucas import fib
from nicom.moment_sums import BruteEngine, BruteForceGuardError, Moment, MomentTable, make_engine
from nicom.qratio import (
    _fib_index_of,
    q_diff,
    q_value,
    theorem1_identity_sides,
)
from nicom.verify_suite import CLAIMS


def sqrt5_interval(digits):
    """Rational bracket lo < sqrt(5) < hi, accurate to ~``digits`` decimals."""
    scale = 10**digits
    r = isqrt(5 * scale * scale)
    return Fraction(r, scale), Fraction(r + 1, scale)


def phi_interval(digits):
    """Rational bracket lo < phi < hi, accurate to ~``digits`` decimals."""
    lo, hi = sqrt5_interval(digits)
    return (1 + lo) / 2, (1 + hi) / 2


def test_q_value_examples():
    assert q_value("phi", 2) == Fraction(7, 4)
    assert q_value("phi2", 2) == Fraction(133, 49)
    assert q_value("phi", 1) == 1


def test_q_value_rejects_zero():
    with pytest.raises(ValueError, match="undefined"):
        q_value("phi", 0)
    with pytest.raises(ValueError):
        q_value("tau", 5)


def test_q_value_engines_agree_at_fib_indices():
    for K in range(3, 20):
        m = fib(K) - 1
        brute = q_value("phi", m, engine="brute")
        assert q_value("phi", m, engine="recursive") == brute
        assert q_value("phi", m, engine="closed") == brute
        brute2 = q_value("phi2", m, engine="brute")
        assert q_value("phi2", m, engine="recursive") == brute2
        assert q_value("phi2", m, engine="closed") == brute2


def test_q_diff_examples():
    assert q_diff(4) == Fraction(27, 28)
    assert q_diff(6) == Fraction(244, 245)
    assert q_diff(3) == 1


@pytest.mark.parametrize("engine, kmax", [("recursive", 200), ("closed", 200), ("brute", 22)])
def test_q_diff_is_the_difference_of_the_two_ratios(engine, kmax):
    e = make_engine(engine)
    for K in range(3, kmax + 1):
        c2, p2 = e.at(K, [Moment(3, prime=True), Moment(1, prime=True)])
        c1, p1 = e.at(K, [Moment(3), Moment(1)])
        assert q_diff(K, engine) == Fraction(c2, p2**2) - Fraction(c1, p1**2), (engine, K)


def test_identity_sides_make_one_at_call(monkeypatch):
    calls = []
    at = MomentTable.at

    def counted(self, k, moments):
        calls.append(k)
        return at(self, k, moments)

    monkeypatch.setattr(MomentTable, "at", counted)
    lhs, rhs = theorem1_identity_sides(40, MomentTable(), ClosedEngine())
    assert lhs == rhs
    assert calls == [40]


def test_q_diff_from_threads():
    # each call fills its own table, so a thread switch in the middle of a
    # fill cannot leave another thread's columns half extended
    rng = random.Random(7)
    indices = [rng.sample(range(3, 201), 20) for _ in range(4)]
    results = [None] * len(indices)
    start = threading.Barrier(len(indices))

    def run(i):
        start.wait()
        results[i] = [q_diff(K) for K in indices[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(indices))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    num_den = ClosedEngine().theorem1_num_den
    for Ks, values in zip(indices, results):
        assert values is not None  # the thread raised
        wrong = [K for K, v in zip(Ks, values) if v != 1 - Fraction(*num_den(K))]
        assert not wrong, wrong


def test_q_diff_rejects_small_indices():
    for K in (0, 1, 2):
        with pytest.raises(ValueError):
            q_diff(K)


@pytest.mark.parametrize("engine", ["clsoed", "rec", ""])
def test_q_value_and_q_diff_reject_an_unknown_engine(engine):
    with pytest.raises(ValueError, match=f"unknown engine {engine!r}"):
        q_diff(10, engine=engine)
    with pytest.raises(ValueError, match=f"unknown engine {engine!r}"):
        q_value("phi", fib(10) - 1, engine=engine)


def test_nicomachus():
    rows = CLAIMS["nicomachus"].rows
    engine = BruteEngine()
    for m, side in ((1, 1), (3, 36), (1000, 500500**2)):
        assert list(rows(m, engine, None)) == [(side, side)], m


def test_fraction_arithmetic_always_reduced():
    # exactness/reduction spot check: subtraction round-trips against
    # cross-multiplied comparison
    rng = random.Random(20260823)
    for _ in range(10_000):
        a, b = rng.randint(-10**9, 10**9), rng.randint(1, 10**9)
        c, d = rng.randint(-10**9, 10**9), rng.randint(1, 10**9)
        x = Fraction(a, b) - Fraction(c, d)
        assert x.denominator > 0
        assert gcd(abs(x.numerator), x.denominator) == 1
        # cross-multiplied comparison against the unreduced difference
        assert x.numerator * (b * d) == (a * d - c * b) * x.denominator


def test_phi_interval_brackets():
    lo, hi = sqrt5_interval(30)
    assert lo < hi
    assert lo * lo < 5 < hi * hi
    plo, phi_hi = phi_interval(30)
    assert plo * plo < plo + 1  # phi is the positive root of x^2 = x + 1
    assert phi_hi * phi_hi > phi_hi + 1


def test_q_converges_to_phi():
    # |Q(phi, F_20 - 1) - phi| < 1/100, with the error shrinking by F_25 - 1;
    # asserted through exact rational interval comparisons only
    lo, hi = phi_interval(40)
    q20 = q_value("phi", fib(20) - 1, engine="recursive")
    q25 = q_value("phi", fib(25) - 1, engine="recursive")
    tol = Fraction(1, 100)
    assert lo - tol < q20 < hi + tol
    assert not (lo <= q20 <= hi)  # q20 is well outside the tight bracket
    err20_lower = min(abs(q20 - lo), abs(q20 - hi))
    err25_upper = max(abs(q25 - lo), abs(q25 - hi))
    assert err25_upper < err20_lower


def test_q_diff_convergence_rate():
    assert abs(q_diff(20) - 1) < Fraction(1, 10**8)


def test_fib_index_of_agrees_with_a_walk_over_the_fibonacci_numbers():
    index_of, f, g = {}, 2, 3  # F_K - 1 -> K, walked by addition from K = 3
    for K in range(3, 2003):
        index_of[f - 1] = K
        f, g = g, f + g
    ms = [*range(10**4), *(fib(K) - 1 + d for K in range(1, 2001) for d in (-1, 0, 1))]
    for m in ms:
        if m >= 0:
            assert _fib_index_of(m) == index_of.get(m), m
    # a bracket constant over log_phi(2) by 2.5e-5 would start the walk past K = 10^5
    for K in (10**4, 10**5):
        m = fib(K) - 1
        assert [_fib_index_of(m + d) for d in (-1, 0, 1)] == [None, K, None], K


def test_q_value_far_past_the_guard_makes_one_doubling(monkeypatch):
    doublings = []
    pair = fib_lucas._fib_pair
    monkeypatch.setattr(fib_lucas, "_fib_pair", lambda n, *one: doublings.append(n) or pair(n, *one))
    m = 10**200000  # 200,001 digits, not of the form F_K - 1
    with pytest.raises(BruteForceGuardError, match="over 10\\^30 terms"):
        q_value("phi", m)
    assert len(doublings) <= 2

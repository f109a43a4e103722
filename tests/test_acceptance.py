"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on stdout.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm

import pytest

from nicom import closed_forms as cf
from nicom.beatty_floor import phi_floors
from nicom.fib_lucas import fib, lucas
from nicom.moment_sums import MomentTable
from nicom.qratio import q_diff, q_value, theorem1_identity_sides
from nicom.recurrence_prover import (
    SIGNED_PHI_POWERS,
    RootSetSpec,
    _factors,
    certify_identity,
)
from nicom.verify_suite import prove_claim, verify_claim

from conftest import beatty, brute_sum, phi_interval


@contextmanager
def criterion(n, desc):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {n:2d} ({desc}): FAIL")
        raise
    else:
        elapsed = time.perf_counter() - start
        print(f"[acceptance] criterion {n:2d} ({desc}): PASS ({elapsed:.2f}s)")


def test_criterion_1_first_moment_closed_forms():
    with criterion(1, "first-moment closed forms vs brute, k=1..25"):
        start = time.perf_counter()
        for k in range(1, 26):
            assert cf.lemma2_a(k) == brute_sum(k, 1)
            assert cf.lemma2_a_prime(k) == brute_sum(k, 1, prime=True)
        assert time.perf_counter() - start < 5.0


def test_criterion_2_third_moment_closed_forms():
    with criterion(2, "third-moment closed forms vs brute, K=1..25"):
        evens = odds = 0
        for K in range(1, 26):
            assert cf.lemma3_a3(K) == brute_sum(K, 3)
            assert cf.lemma4_a_prime3(K) == brute_sum(K, 3, prime=True)
            if K % 2 == 0:
                evens += 1
            else:
                odds += 1
        assert evens >= 12 and odds >= 12
        assert cf.lemma3_a3(4) == 28
        assert cf.lemma4_a_prime3(4) == 133
        assert cf.lemma4_a_prime3(3) == 8


def test_criterion_3_q_difference_closed_form():
    with criterion(3, "Q-difference equals closed form, K=3..30 (brute to 22)"):
        closed = {K: 1 - Fraction(*cf.ClosedEngine().theorem1_num_den(K)) for K in range(3, 31)}
        for K in range(3, 31):
            assert q_diff(K) == closed[K]
        for name, kmax in (("recursive", 30), ("closed", 30), ("brute", 22)):
            for K in range(3, kmax + 1):
                assert q_diff(K, name) == closed[K], (name, K)
        assert q_diff(4) == Fraction(27, 28)
        assert q_diff(5) == Fraction(111, 112)
        for K in (1, 2):
            with pytest.raises(ValueError):
                q_diff(K)


def test_criterion_4_denominator_free_identity():
    with criterion(4, "denominator-free identity, l=1..21 and deep l=1..100"):
        start = time.perf_counter()
        engine = cf.ClosedEngine()
        for l in range(1, 22):
            lhs, rhs = theorem1_identity_sides(4 * l, engine, engine)
            assert lhs == rhs
        report = verify_claim("case4l", deep=True)
        assert report.passed and report.range == (1, 100)
        assert time.perf_counter() - start < 30.0


def test_criterion_5_lcm_formula():
    with criterion(5, "LCM of first moments equals closed form, k=1..60"):
        theorem6_rhs = cf.ClosedEngine().theorem6_rhs
        for k in range(1, 61):
            assert lcm(cf.lemma2_a(2 * k), cf.lemma2_a_prime(2 * k)) == theorem6_rhs(k)
        for k in range(1, 13):
            brute = lcm(brute_sum(2 * k, 1), brute_sum(2 * k, 1, prime=True))
            assert theorem6_rhs(k) == brute
        assert theorem6_rhs(2) == 28
        assert theorem6_rhs(3) == 210


def test_criterion_6_proof_certificates():
    with criterion(6, "finite recurrence certificates"):
        lemma2 = prove_claim("lemma2")
        assert [c.degree for c in lemma2] == [10, 10]
        assert all(c.certified and c.window == 2 * c.degree for c in lemma2)
        for claim in ("lemma3", "lemma4"):
            certs = prove_claim(claim)
            assert [c.degree for c in certs] == [9, 9]
            assert all(c.certified and c.window == 2 * c.degree for c in certs)
        theorem1 = prove_claim("theorem1")
        assert all(c.certified and c.window == 2 * c.degree for c in theorem1)
        # the residue classes 0 and 2 mod 4 certify on the 21-element set
        # {phi^(4l): |l| <= 10}; classes 1 and 3 have characteristic roots
        # at odd multiples of phi^2 and need the 22-element set
        # {phi^(2l): l odd, |l| <= 21}
        assert {c.claim: c.degree for c in theorem1} == {
            "theorem1/mod4=0": 21,
            "theorem1/mod4=1": 22,
            "theorem1/mod4=2": 21,
            "theorem1/mod4=3": 22,
        }
        # every characteristic polynomial is a product of integer factors
        # whose degrees sum to its documented degree (_factors raises otherwise)
        for certs in (lemma2, theorem1):
            for c in certs:
                factors = _factors(RootSetSpec(c.shape, c.bound))
                assert sum(len(f) - 1 for f in factors) == c.degree
                assert all(isinstance(x, int) for f in factors for x in f)
        # a mutated closed form must be refuted within the first d terms
        table = MomentTable()
        broken = certify_identity(
            "first-moment-broken",
            lambda k: (table.a(k, 1, 0), cf.lemma2_a(k) + (1 if k == 7 else 0)),
            RootSetSpec(SIGNED_PHI_POWERS, 2),
        )
        assert not broken.certified
        assert int(broken.verdict.rsplit(" ", 1)[1]) <= broken.degree


def test_criterion_7_engine_equivalence():
    with criterion(7, "recursive engine equals brute on the full grid"):
        table = MomentTable()
        for k in range(1, 19):
            for s in range(5):
                for j in range(5 - s):
                    assert table.a(k, s, j) == brute_sum(k, s, j)
            for s in range(4):
                assert table.a(k, s, 0, True) == brute_sum(k, s, prime=True)


def test_criterion_8_scale():
    with criterion(8, "recursive and closed engines agree at k = 1000"):
        t0 = time.perf_counter()
        table = MomentTable()
        rec = {
            "a1": table.a(1000, 1, 0),
            "a3": table.a(1000, 3, 0),
            "ap1": table.a(1000, 1, 0, True),
            "ap3": table.a(1000, 3, 0, True),
        }
        rec_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        closed = {
            "a1": cf.lemma2_a(1000),
            "a3": cf.lemma3_a3(1000),
            "ap1": cf.lemma2_a_prime(1000),
            "ap3": cf.lemma4_a_prime3(1000),
        }
        closed_time = time.perf_counter() - t0
        assert rec == closed
        assert len(str(rec["a3"])) > 400  # hundreds of digits
        assert rec_time < 1.0 and closed_time < 1.0


def test_criterion_9_structural_identities():
    with criterion(9, "structural floor and factorization identities"):
        ns = range(1, 100_001)
        assert phi_floors(ns, True) == [n + f for n, f in zip(ns, phi_floors(ns))]
        for k in range(1, 91):
            assert beatty(fib(k)) == fib(k + 1) - (1 - (k & 1))
        for k in range(3, 26):
            fk, fk1 = fib(k), fib(k + 1)
            for n in range(1, fib(k - 1)):
                assert beatty(fk + n) == fk1 + beatty(n)
        fs, ls = [0, 1], [2, 1]  # F_n and L_n by iteration, n = 0..204
        while len(fs) < 205:
            fs.append(fs[-1] + fs[-2])
            ls.append(ls[-1] + ls[-2])
        for n in range(3, 204):
            l, r = divmod(n, 4)
            i, j = ((2 * l + 1, 2 * l - 1), (2 * l, 2 * l + 1), (2 * l, 2 * l + 2),
                    (2 * l + 2, 2 * l + 1))[r]  # F_n - 1 = F_i L_j
            f, lu = cf.ClosedEngine().fib_minus_one_factors(n)
            assert (f, lu) == (fs[i], ls[j]), n
            assert f * lu == fs[n] - 1
        for l in range(1, 51):
            assert gcd(lucas(2 * l + 1), lucas(2 * l + 2)) == 1


def test_criterion_10_convergence():
    with criterion(10, "exact-rational convergence bounds"):
        assert abs(q_diff(20) - 1) < Fraction(1, 10**8)
        lo, hi = phi_interval(40)
        q20 = q_value("phi", fib(20) - 1, engine="recursive")
        q25 = q_value("phi", fib(25) - 1, engine="recursive")
        assert lo - Fraction(1, 100) < q20 < hi + Fraction(1, 100)
        assert not (lo <= q20 <= hi)
        err20_lower = min(abs(q20 - lo), abs(q20 - hi))
        err25_upper = max(abs(q25 - lo), abs(q25 - hi))
        assert err25_upper < err20_lower

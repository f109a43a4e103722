import random

import pytest

from nicom import closed_forms as cf
from nicom.beatty_floor import floor_phi, floor_phi2
from nicom.fib_lucas import fib
from nicom.moment_sums import (
    BruteForceGuardError,
    MomentKey,
    MomentTable,
    a_brute,
    a_prime,
    a_prime_brute,
    a_recursive,
    order_bound,
)
from nicom.recurrence_prover import (
    SIGNED_PHI_POWERS,
    RootSetSpec,
    annihilates,
    char_poly,
)


def literal_a(k, s, j):
    """Independent oracle: the defining sum, written out."""
    return sum(n**j * floor_phi(n) ** s for n in range(1, fib(k)))


def literal_a_prime(k, s):
    return sum(floor_phi2(n) ** s for n in range(1, fib(k)))


def test_brute_examples():
    assert a_brute(MomentKey(5, 1, 0)) == 14
    assert a_brute(MomentKey(2, 3, 0)) == 0
    assert a_brute(MomentKey(4, 3, 0)) == 28


def test_brute_guard():
    with pytest.raises(BruteForceGuardError, match="guard"):
        a_brute(MomentKey(40, 1, 0))
    with pytest.raises(BruteForceGuardError):
        a_prime_brute(40, 1)


def test_guard_env_override(monkeypatch):
    monkeypatch.setenv("NICOM_BRUTE_GUARD", "3")
    with pytest.raises(BruteForceGuardError):
        a_brute(MomentKey(5, 1, 0))
    monkeypatch.setenv("NICOM_BRUTE_GUARD", "1000000")
    assert a_brute(MomentKey(5, 1, 0)) == 14


def test_recursive_examples():
    table = MomentTable()
    assert a_recursive(MomentKey(5, 1, 0), table) == 14
    assert a_recursive(MomentKey(1, 7, 3), table) == 0
    assert a_recursive(MomentKey(6, 0, 0), table) == 7


def test_recursive_base_cases():
    table = MomentTable()
    for s in range(4):
        for j in range(4):
            assert table.a(1, s, j) == 0
            assert table.a(2, s, j) == 0


def test_recursive_matches_brute_on_grid():
    table = MomentTable()
    for k in range(1, 19):
        for s in range(5):
            for j in range(5 - s):
                assert table.a(k, s, j) == literal_a(k, s, j), (k, s, j)


def test_a_prime_examples():
    table = MomentTable()
    assert a_prime(5, 1, table) == 24
    assert a_prime(3, 3, table) == 8
    assert a_prime(2, 3, table) == 0


def test_a_prime_matches_literal():
    table = MomentTable()
    for k in range(1, 19):
        for s in range(4):
            assert a_prime(k, s, table) == literal_a_prime(k, s), (k, s)


def test_zeroth_moment_is_fib_minus_one():
    table = MomentTable()
    for k in range(1, 61):
        assert table.a(k, 0, 0) == fib(k) - 1


def test_monotone_in_k():
    table = MomentTable()
    for s in range(4):
        for j in range(4 - s):
            prev = 0
            for k in range(1, 19):
                cur = table.a(k, s, j)
                assert cur >= prev >= 0
                prev = cur


def test_invalid_keys_rejected():
    table = MomentTable()
    with pytest.raises(ValueError):
        table.a(0, 1, 0)
    with pytest.raises(ValueError):
        table.a(3, -1, 0)
    with pytest.raises(ValueError):
        a_brute(MomentKey(3, 0, -2))


def test_order_bound():
    assert order_bound(1, 0) == 10
    assert order_bound(3, 0) == 18
    assert order_bound(0, 0) == 6
    # degree of the signed root-set polynomial at B = s + j + 1 matches
    for s in range(3):
        for j in range(3):
            spec = RootSetSpec(SIGNED_PHI_POWERS, s + j + 1)
            assert char_poly(spec).degree == order_bound(s, j)


def test_sequences_live_in_claimed_span():
    # {A(k,s,j)}_k is annihilated by the characteristic polynomial of the
    # signed phi-power set with bound s + j + 1
    table = MomentTable()
    for s in range(3):
        for j in range(3 - s):
            p = char_poly(RootSetSpec(SIGNED_PHI_POWERS, s + j + 1))
            terms = [table.a(k, s, j) for k in range(1, 3 * p.degree + 1)]
            assert annihilates(p, terms), (s, j)


def test_columns_match_literal_sums():
    table = MomentTable()
    for k in range(1, 19):
        ns = range(1, fib(k))
        for prime, floor in ((False, floor_phi), (True, floor_phi2)):
            floors = [floor(n) for n in ns]
            for s in range(5):
                for j in range(5 - s):
                    want = sum(n**j * f**s for n, f in zip(ns, floors))
                    assert table.a(k, s, j, prime) == want, (k, s, j, prime)


def test_cold_fill_creates_only_the_downset():
    K = 40
    table = MomentTable()
    table.a(K, 3, 0)
    assert set(table._cols) == {(s, 0, False) for s in range(4)}
    assert len(table) == 4 * (K - 2)
    table = MomentTable()
    a_prime(K, 3, table)
    assert set(table._cols) == {(s, 0, True) for s in range(4)}
    table.a(K, 1, 2, True)
    assert set(table._cols) == {(s, 0, True) for s in range(4)} | {(s, j, True)
                                                                   for s in range(2)
                                                                   for j in (1, 2)}


def test_sweep_fills_each_cell_once():
    K = 120
    cold = MomentTable()
    cold.a(K, 3, 0)
    for prime in (False, True):
        swept = MomentTable()
        for k in range(1, K + 1):
            swept.a(k, 3, 0, prime)
        assert len(swept) == len(cold)


def test_fill_order_does_not_matter():
    # a miss extends columns of different lengths, each from where it stopped
    rng = random.Random(7)
    shared = MomentTable()
    for _ in range(60):
        k, s, j, prime = rng.randrange(1, 90), rng.randrange(4), rng.randrange(3), rng.random() < 0.5
        assert shared.a(k, s, j, prime) == MomentTable().a(k, s, j, prime), (k, s, j, prime)


def test_recursive_matches_closed_forms_at_k_2000():
    table = MomentTable()
    k = 2000
    assert table.a(k, 1) == cf.lemma2_a(k)
    assert table.a(k, 3) == cf.lemma3_a3(k)
    assert a_prime(k, 1, table) == cf.lemma2_a_prime(k)
    assert a_prime(k, 3, table) == cf.lemma4_a_prime3(k)

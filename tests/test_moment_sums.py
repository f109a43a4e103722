import copy
import importlib
import pkgutil
import random
import tracemalloc
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import nicom
from nicom import closed_forms as cf
from nicom.fib_lucas import fib
from nicom.moment_sums import BruteEngine, BruteForceGuardError, Moment, MomentTable
from nicom.recurrence_prover import (
    SIGNED_PHI_POWERS,
    RootSetSpec,
    certify_identity,
)

from conftest import beatty, brute_sum, literal


def test_brute_examples():
    assert brute_sum(5, 1) == 14
    assert brute_sum(2, 3) == 0
    assert brute_sum(4, 3) == 28


def test_brute_guard():
    with pytest.raises(BruteForceGuardError, match="guard"):
        brute_sum(40, 1)
    with pytest.raises(BruteForceGuardError):
        brute_sum(40, 1, prime=True)


def test_guard_env_override(monkeypatch):
    monkeypatch.setenv("NICOM_BRUTE_GUARD", "3")
    with pytest.raises(BruteForceGuardError):
        brute_sum(5, 1)
    monkeypatch.setenv("NICOM_BRUTE_GUARD", "1000000")
    assert brute_sum(5, 1) == 14


def test_recursive_examples():
    table = MomentTable()
    assert table.a(5, 1, 0) == 14
    assert table.a(1, 7, 3) == 0
    assert table.a(6, 0, 0) == 7


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
                assert table.a(k, s, j) == literal(fib(k) - 1, s, j), (k, s, j)


def test_a_prime_examples():
    table = MomentTable()
    assert table.a(5, 1, 0, True) == 24
    assert table.a(3, 3, 0, True) == 8
    assert table.a(2, 3, 0, True) == 0


def test_a_prime_matches_literal():
    table = MomentTable()
    for k in range(1, 19):
        for s in range(4):
            assert table.a(k, s, 0, True) == literal(fib(k) - 1, s, prime=True), (k, s)


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
        brute_sum(3, 0, -2)


def test_sequences_live_in_claimed_span():
    # {A(k,s,j)}_k is annihilated by the characteristic polynomial of the
    # signed phi-power set with bound s + j + 1: certify_identity on the
    # sequence paired with itself checks that over 3d terms
    table = MomentTable()
    for s in range(3):
        for j in range(3 - s):
            spec = RootSetSpec(SIGNED_PHI_POWERS, s + j + 1)
            cert = certify_identity("span", lambda k: (table.a(k, s, j),) * 2, spec)
            assert cert.certified, (s, j)


def test_columns_match_literal_sums():
    table = MomentTable()
    for k in range(1, 19):
        ns = range(1, fib(k))
        for prime in (False, True):
            floors = [beatty(n, prime) for n in ns]
            for s in range(5):
                for j in range(5 - s):
                    want = sum(n**j * f**s for n, f in zip(ns, floors))
                    assert table.a(k, s, j, prime) == want, (k, s, j, prime)


def test_cold_fill_creates_only_the_downset():
    # a cold read starts its kind's frontier on the moment's own plan, whose rows hold its downset
    K = 40
    table = MomentTable()
    table.a(K, 3, 0)
    assert set(table._fronts) == {False}
    assert frontier(table, False)[5] == (3, 0)
    assert [len(row) for row in frontier(table, False)[1:3]] == [4, 4]
    assert len(table) == 4 * (K - 2)
    table = MomentTable()
    table.a(K, 3, 0, True)
    assert set(table._fronts) == {True}
    table.a(K, 1, 0, True)  # covered by (3, 0) at K: a hit
    table.a(K - 1, 2, 0, True)
    assert len(table) == 4 * (K - 2)
    table.a(K, 1, 2, True)  # outside (3, 0): the frontier restarts, widened to (3, 2)
    assert set(table._fronts) == {True}
    assert frontier(table, True)[5] == (3, 2)
    assert len(table) == 4 * (K - 2) + 12 * (K - 2)


def test_sweep_fills_each_cell_once():
    K = 120
    cold = MomentTable()
    cold.a(K, 3, 0)
    for prime in (False, True):
        swept = MomentTable()
        for k in range(1, K + 1):
            swept.a(k, 3, 0, prime)
        assert len(swept) == len(cold)


def frontier(table, prime):
    """A kind's frontier: k, the rows at k - 1 and k, F_{k-1}, F_k and the plan (s_max, j_max)."""
    return table._fronts[prime][:6]


def test_fill_order_does_not_matter():
    # a read is served by, advances or restarts its kind's one frontier
    rng = random.Random(7)
    shared = MomentTable()
    for _ in range(300):
        k, s, j = rng.randrange(1, 150), rng.randrange(4), rng.randrange(4)
        prime = rng.random() < 0.5
        assert shared.a(k, s, j, prime) == MomentTable().a(k, s, j, prime), (k, s, j, prime)
    # and every frontier is a cold fill's, so a wrong cell no request read shows too
    for prime, front in shared._fronts.items():
        cold = MomentTable()
        cold.a(front[0], *front[5], prime)
        assert frontier(cold, prime) == frontier(shared, prime), prime


def test_non_nested_reads_restart_once_per_widening():
    # moments whose downsets do not nest, read in turn at k = 21 and then 22
    moments = [(3, 0), (0, 4), (1, 3), (2, 2)]
    for prime in (False, True):
        want = {k: BruteEngine().at(k, [Moment(s, j, prime) for s, j in moments])
                for k in (21, 22)}
        for order in permutations(range(len(moments))):
            table = MomentTable()
            plans = []  # each plan the frontier took, in turn
            for k in (21, 22):
                for i in order:
                    assert table.a(k, *moments[i], prime) == want[k][i], (k, moments[i], prime)
                    if not plans or frontier(table, prime)[5] != plans[-1]:
                        plans.append(frontier(table, prime)[5])
            # each restart widens the plan, all of them at k = 21, and k = 22 is one step
            assert all(p[0] <= q[0] and p[1] <= q[1] for p, q in zip(plans, plans[1:]))
            assert plans[-1] == (3, 4)
            assert len(table) == 19 * sum((s + 1) * (j + 1) for s, j in plans) + 20, order


MOMENTS = st.tuples(st.integers(0, 4), st.integers(0, 4), st.booleans()).filter(
    lambda mo: mo[0] + mo[1] <= 4)
ORDERS = st.sampled_from([sorted, lambda ks: sorted(ks, reverse=True), list])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_reads_match_fresh_tables(data):
    # each moment's reads ascend, descend or wander in k, and the moments take turns
    series = []
    for mo in data.draw(st.lists(MOMENTS, min_size=1, max_size=3)):
        ks = data.draw(st.lists(st.integers(1, 150), min_size=1, max_size=8))
        series.append([(k, *mo) for k in data.draw(ORDERS)(ks)])
    table = MomentTable()
    while series:
        reads = series[data.draw(st.integers(0, len(series) - 1))]
        k, s, j, prime = reads.pop(0)
        assert table.a(k, s, j, prime) == MomentTable().a(k, s, j, prime), (k, s, j, prime)
        series = [left for left in series if left]


WIDE_MOMENTS = st.builds(Moment, st.integers(0, 6), st.integers(0, 6), st.booleans()).filter(
    lambda mo: mo.s + mo.j <= 6)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 22), st.lists(WIDE_MOMENTS, min_size=1, max_size=6))
def test_at_matches_literal_sums_to_degree_6(k, moments):
    assert MomentTable().at(k, moments) == BruteEngine().at(k, moments), (k, moments)


class Interrupt(Exception):
    pass


class FuseInt(int):
    """An int whose sums stay FuseInts; the ``fuse``-th sum raises ``Interrupt``."""
    fuse = 0

    def __add__(self, other):
        FuseInt.fuse -= 1
        if not FuseInt.fuse:
            raise Interrupt
        return FuseInt(int(self) + other)

    __radd__ = __add__


@pytest.mark.parametrize("prime", [False, True])
def test_interrupted_fill_leaves_the_frontier(prime):
    table = MomentTable()
    table.a(30, 3, 1, prime)
    front = table._fronts[prime]
    front[4] = FuseInt(front[4])  # F_k, which each k's step adds to once or twice
    before, cells = copy.deepcopy(front[:6]), len(table)
    FuseInt.fuse = 20
    with pytest.raises(Interrupt):  # some k past 30 and before 60
        table.a(60, 3, 1, prime)
    assert table._fronts[prime] is front and front[:6] == before
    assert len(table) == cells
    front[4] = int(front[4])
    assert table.a(60, 3, 1, prime) == MomentTable().a(60, 3, 1, prime)


def test_at_costs_the_same_in_any_moment_order():
    K = 60
    moments = [Moment(1), Moment(3), Moment(0, 2), Moment(2, 1, True)]
    cold = MomentTable()
    want = dict(zip(moments, cold.at(K, moments)))
    for order in permutations(moments):
        table = MomentTable()
        assert table.at(K, order) == [want[mo] for mo in order], order
        assert len(table) == len(cold), order


def test_table_keeps_only_the_frontier():
    tracemalloc.start()
    try:
        table = MomentTable()
        before = tracemalloc.get_traced_memory()[0]
        assert table.a(4000, 3) == cf.lemma3_a3(4000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 0.5 * 2**20, held


def unfolded_columns(k_max, n_max, prime):
    """Independent oracle: the step with the boundary term n = F_{k-1} kept apart.

    A(k, s, j) = A(k-1, s, j) + F_{k-1}^j * floor(alpha*F_{k-1})^s
        + sum_{l,i} C(j,l) C(s,i) F_{k-1}^l step^i A(k-2, s-i, j-l),
    step = F_{k+1} if prime else F_k, with every power formed explicitly;
    the columns (s, j), s + j <= n_max, as lists indexed by k.
    """
    cols = {(s, j): [0, 0, 0] for s in range(n_max + 1) for j in range(n_max + 1 - s)}
    for k in range(3, k_max + 1):
        f = fib(k - 1)
        step = fib(k + 1) if prime else fib(k)
        for (s, j), col in cols.items():
            block = sum(comb(j, l) * comb(s, i) * f**l * step**i * cols[s - i, j - l][k - 2]
                        for l in range(j + 1) for i in range(s + 1))
            col.append(col[k - 1] + f**j * beatty(f, prime) ** s + block)
    return cols


@pytest.mark.parametrize("prime", [False, True])
def test_folded_step_matches_unfolded_oracle(prime):
    K = 300
    table = MomentTable()
    for (s, j), col in unfolded_columns(K, 5, prime).items():
        assert [table.a(k, s, j, prime) for k in range(1, K + 1)] == col[1:], (s, j)


@pytest.mark.parametrize("k0", [40, 41])  # g(0) = -eps_{k0-1}: 0 at even k0, -1 at odd k0
@pytest.mark.parametrize("prime", [False, True])
def test_resumed_fill_matches_cold_fill(k0, prime):
    K = 120
    resumed = MomentTable()
    resumed.a(k0 - 1, 3, 2, prime)
    assert frontier(resumed, prime)[0] == k0 - 1  # the next fill starts at k0
    assert len(resumed) == 12 * (k0 - 3)
    resumed.a(K, 3, 2, prime)
    cold = MomentTable()
    cold.a(K, 3, 2, prime)
    assert frontier(resumed, prime) == frontier(cold, prime)
    assert len(resumed) == len(cold)


def test_no_module_holds_an_engine():
    # an engine instance at module level would be state shared by every caller
    for info in pkgutil.iter_modules(nicom.__path__):
        module = importlib.import_module(f"nicom.{info.name}")
        held = [name for name, value in vars(module).items()
                if isinstance(value, (MomentTable, BruteEngine))]
        assert not held, (info.name, held)


def test_recursive_matches_closed_forms_at_k_2000():
    table = MomentTable()
    k = 2000
    assert table.a(k, 1) == cf.lemma2_a(k)
    assert table.a(k, 3) == cf.lemma3_a3(k)
    assert table.a(k, 1, 0, True) == cf.lemma2_a_prime(k)
    assert table.a(k, 3, 0, True) == cf.lemma4_a_prime3(k)

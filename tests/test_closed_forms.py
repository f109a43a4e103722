import ast
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from nicom import closed_forms as cf
from nicom.moment_sums import Moment, MomentTable
from nicom.qratio import q_diff, theorem1_identity_sides

from conftest import brute_sum


def test_lemma2_examples():
    assert cf.lemma2_a(5) == 14
    assert cf.lemma2_a(1) == 0
    assert cf.lemma2_a(6) == 42
    assert cf.lemma2_a_prime(5) == 24
    assert cf.lemma2_a_prime(2) == 0
    assert cf.lemma2_a_prime(6) == 70


def test_lemma2_matches_brute():
    for k in range(1, 26):
        assert cf.lemma2_a(k) == brute_sum(k, 1)
        assert cf.lemma2_a_prime(k) == brute_sum(k, 1, prime=True)


def test_lemma3_examples():
    assert cf.lemma3_a3(4) == 28
    assert cf.lemma3_a3(3) == 1
    assert cf.lemma3_a3(2) == 0


def test_lemma4_examples():
    assert cf.lemma4_a_prime3(4) == 133
    assert cf.lemma4_a_prime3(3) == 8
    assert cf.lemma4_a_prime3(2) == 0


def test_third_moments_match_brute():
    for k in range(1, 26):
        assert cf.lemma3_a3(k) == brute_sum(k, 3), k
        assert cf.lemma4_a_prime3(k) == brute_sum(k, 3, prime=True), k


def test_index_guards():
    for fn in (cf.lemma2_a, cf.lemma2_a_prime, cf.lemma3_a3, cf.lemma4_a_prime3,
               cf.ClosedEngine().theorem6_rhs):
        with pytest.raises(ValueError):
            fn(0)


def test_moment_matches_the_recurrence_engine():
    table = MomentTable()
    for k in range(1, 301):
        for s in (0, 1, 3):
            for prime in (False, True):
                mo = [Moment(s, 0, prime)]
                assert cf.ClosedEngine().at(k, mo) == table.at(k, mo), (k, s, prime)


def test_moment_bits_bounds_every_moment():
    engine = cf.ClosedEngine()
    for k in [*range(1, 301), 4095, 4096, 20000, 20001]:
        for s, prime in cf._EVALUATORS:
            value = engine.at(k, [Moment(s, 0, prime)])[0]
            assert value.bit_length() <= cf.moment_bits(k, s), (k, s, prime)


def test_decimal_engine_matches_the_int_engine():
    from decimal import Decimal

    from nicom.decimal_text import exact_context

    moments = [Moment(s, 0, prime) for s, prime in sorted(cf._EVALUATORS)]
    ints = cf.ClosedEngine()
    with exact_context():
        decimals = cf.ClosedEngine(Decimal(1))
        # a sweep that slides the run, then jumps past its bit length both ways
        for k in [*range(1, 101), 5000, 5001, 3000]:
            values = decimals.at(k, moments)
            assert all(type(v) is Decimal for v in values)
            assert [int(v) for v in values] == ints.at(k, moments), k


@pytest.mark.parametrize("prime", [False, True])
def test_moment_rejects_what_it_does_not_cover(prime):
    for s, j in ((2, 0), (1, 1), (4, 0)):
        with pytest.raises(ValueError, match="closed engine supports j = 0 and s in"):
            cf.ClosedEngine().at(5, [Moment(s, j, prime)])
    for s in (0, 1, 3):
        with pytest.raises(ValueError, match="index must be >= 1"):
            cf.ClosedEngine().at(0, [Moment(s, 0, prime)])


def theorem1_rhs(K):
    """Theorem 1's closed value of the Q-difference at K, 1 - num/den."""
    return 1 - Fraction(*cf.ClosedEngine().theorem1_num_den(K))


def test_theorem1_rhs_examples():
    assert theorem1_rhs(4) == Fraction(27, 28)
    assert theorem1_rhs(5) == Fraction(111, 112)
    assert theorem1_rhs(3) == 1


def test_theorem1_rhs_rejects_degenerate():
    for K in (0, 1, 2):
        with pytest.raises(ValueError):
            cf.ClosedEngine().theorem1_num_den(K)


def test_theorem1_rhs_matches_exact_ratio():
    for K in range(3, 31):
        assert theorem1_rhs(K) == q_diff(K, engine="brute"), K


def test_theorem6_examples():
    assert cf.ClosedEngine().theorem6_rhs(2) == 28
    assert cf.ClosedEngine().theorem6_rhs(3) == 210
    assert cf.ClosedEngine().theorem6_rhs(1) == 0


def test_theorem6_matches_lcm_of_first_moments():
    for k in range(1, 61):
        expected = lcm(cf.lemma2_a(2 * k), cf.lemma2_a_prime(2 * k))
        assert cf.ClosedEngine().theorem6_rhs(k) == expected, k


def test_theorem6_cross_checked_against_brute():
    for k in range(1, 13):
        brute = lcm(brute_sum(2 * k, 1), brute_sum(2 * k, 1, prime=True))
        assert cf.ClosedEngine().theorem6_rhs(k) == brute, k


def test_identity_sides_equal_every_residue():
    engine = cf.ClosedEngine()
    for K in range(3, 104):
        lhs, rhs = theorem1_identity_sides(K, engine, engine)
        assert lhs == rhs, K


def test_large_index_evaluation_is_cheap():
    # closed forms stay usable far outside brute-force range
    v = cf.lemma3_a3(10_000)
    assert v > 0
    assert theorem1_rhs(2000) < 1


# The paper's formulas, read off plain iterated lists: oracles for the
# evaluators, which read every F and L from one run of one of the engine's walks.
ORACLE_MAX = 1200
FS, LS = [0, 1], [2, 1]
while len(FS) <= 2 * ORACLE_MAX + 5:
    FS.append(FS[-1] + FS[-2])
    LS.append(LS[-1] + LS[-2])


def oracle_div(n, d):
    assert n % d == 0
    return n // d


def oracle_moments(k):
    """A(k,1), A'(k,1), A(k,3), A'(k,3) as the paper's Lemmas 2-4 state them."""
    F, L = FS, LS
    a1 = oracle_div((F[k + 1] - 1) * (F[k] - 1), 2)
    a1p = oracle_div((F[k + 2] - 1) * (F[k] - 1), 2)
    if k % 2 == 0:
        a3 = oracle_div((F[k - 1] - 1) * (F[k + 1] - 1) ** 2 * (F[k + 2] - 1), 4)
    else:
        a3 = oracle_div((F[k] - 1) * (F[k + 1] - 1)
                        * (L[2 * k + 2] - 3 * L[k + 2] - L[k + 1] + 3), 20)
    c = 13 if k % 2 == 0 else 7
    a3p = oracle_div((F[k] - 1) * (F[k + 2] - 1) * (L[2 * k + 4] - 5 * L[k + 3] + c), 20)
    return a1, a1p, a3, a3p


def oracle_num_den(K):
    F, L = FS, LS
    if K % 2 == 0:
        k = K // 2
        if k % 2 == 0:
            return 1, F[k + 1] ** 2 * L[k + 2] * L[k - 1]
        return 1, L[k + 1] ** 2 * F[k + 2] * F[k - 1]
    k = (K + 1) // 2
    if k % 2 == 0:
        return F[k - 2], F[k + 1] * F[k] ** 2 * L[k - 1] ** 2
    return L[k - 2], L[k + 1] * L[k] ** 2 * F[k - 1] ** 2


def oracle_theorem6(k):
    F, L = FS, LS
    if k % 2 == 0:
        return oracle_div(F[k + 1] * F[k] * L[k + 2] * L[k + 1] * L[k - 1], 2)
    return oracle_div(F[k + 2] * F[k + 1] * F[k - 1] * L[k + 1] * L[k], 2)


def oracle_sides(K):
    num, den = oracle_num_den(K)
    a1, a1p, a3, a3p = oracle_moments(K)
    return den * (a3p * a1 * a1 - a3 * a1p * a1p), a1 * a1 * a1p * a1p * (den - num)


def test_moments_match_the_paper_on_iterated_lists():
    for k in range(1, ORACLE_MAX + 1):
        got = cf.lemma2_a(k), cf.lemma2_a_prime(k), cf.lemma3_a3(k), cf.lemma4_a_prime3(k)
        assert got == oracle_moments(k), k


def test_theorem6_matches_the_paper_on_iterated_lists():
    for k in range(1, ORACLE_MAX + 1):
        assert cf.ClosedEngine().theorem6_rhs(k) == oracle_theorem6(k), k


def test_theorem1_forms_match_the_paper_on_iterated_lists():
    # K up to 1200 covers both parities of k in both parities of K
    engine = cf.ClosedEngine()
    for K in range(3, ORACLE_MAX + 1):
        assert cf.ClosedEngine().theorem1_num_den(K) == oracle_num_den(K), K
        assert theorem1_identity_sides(K, engine, engine) == oracle_sides(K), K


def test_edge_indices_where_the_run_starts_at_f0():
    # k = 1, 2: the moment run starts at F_0 and F_1; every moment is an empty sum
    for k in (1, 2):
        assert oracle_moments(k) == (0, 0, 0, 0)
        assert (cf.lemma2_a(k), cf.lemma2_a_prime(k), cf.lemma3_a3(k),
                cf.lemma4_a_prime3(k)) == (0, 0, 0, 0)
    assert cf.ClosedEngine().theorem6_rhs(1) == oracle_theorem6(1) == 0  # run starts at F_0
    assert cf.ClosedEngine().theorem6_rhs(2) == oracle_theorem6(2) == 28  # run starts at F_0
    # K = 3, 4 (k = 2) and K = 5 (k = 3): num/den's run starts at F_0
    assert cf.ClosedEngine().theorem1_num_den(3) == oracle_num_den(3) == (0, 2)
    assert cf.ClosedEngine().theorem1_num_den(4) == oracle_num_den(4) == (1, 28)
    assert cf.ClosedEngine().theorem1_num_den(5) == oracle_num_den(5) == (1, 112)
    engine = cf.ClosedEngine()
    assert theorem1_identity_sides(3, engine, engine) == oracle_sides(3) == (8, 8)
    assert theorem1_identity_sides(4, engine, engine) == oracle_sides(4) == (21168, 21168)


def test_closed_engine_serves_two_streams_from_two_walks(doublings):
    engine = cf.ClosedEngine()
    for K in range(600, 700):  # Theorem 1's streams: the moments' run at K - 1, num/den's near K/2
        assert engine.at(K, [Moment(0)]) == [FS[K] - 1]
        # twice, as a recursive,closed sweep reads num/den once per engine
        assert engine.theorem1_num_den(K) == engine.theorem1_num_den(K) == oracle_num_den(K)
    assert doublings == [599, 298]


def test_factor_and_moment_reads_agree_in_either_order(doublings):
    seen = []
    for factors_first in (True, False):
        engine, rows = cf.ClosedEngine(), []
        for n in range(300, 400):  # the factors' run at 2l, with n = 4l + r, and A(n, 0)'s at n - 1
            if factors_first:
                f, lu = engine.fib_minus_one_factors(n)
                a0, = engine.at(n, [Moment(0)])
            else:
                a0, = engine.at(n, [Moment(0)])
                f, lu = engine.fib_minus_one_factors(n)
            assert f * lu == a0 == FS[n] - 1, n
            rows.append((f, lu, a0))
        seen.append((rows, sorted(doublings)))
        doublings.clear()
    assert seen[0] == seen[1]
    assert seen[0][1] == [150, 299]  # one jump per stream, then additions


def test_closed_forms_is_a_leaf_of_formulas():
    from_nicom = set()  # a relative or absolute import from nicom, by module name
    for node in ast.walk(ast.parse(Path(cf.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("nicom")):
            from_nicom.add(node.module)
        elif isinstance(node, ast.Import):
            from_nicom |= {alias.name for alias in node.names if alias.name.startswith("nicom")}
    assert from_nicom == {"fib_lucas"}
    for name in ("ENGINES", "make_engine", "theorem1_identity_sides"):
        assert not hasattr(cf, name), name

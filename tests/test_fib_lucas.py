from decimal import Decimal
from itertools import count
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from nicom import fib_lucas
from nicom.closed_forms import ClosedEngine
from nicom.fib_lucas import FibonacciWalk, fib, lucas


def naive_fib_lucas(n_max):
    """Slow iterative oracle: lists of F_0..F_n and L_0..L_n."""
    fs, ls = [0, 1], [2, 1]
    for _ in range(n_max - 1):
        fs.append(fs[-1] + fs[-2])
        ls.append(ls[-1] + ls[-2])
    return fs, ls


FS, LS = naive_fib_lucas(2500)  # past the largest index two_streams draws, 2486


def test_fib_base_cases():
    assert fib(0) == 0
    assert fib(1) == 1
    assert fib(10) == 55


def test_lucas_base_cases():
    assert lucas(0) == 2
    assert lucas(1) == 1
    assert lucas(12) == 322


def test_fast_doubling_matches_iteration():
    for n in range(1001):
        assert fib(n) == FS[n]


def test_lucas_matches_iteration():
    for n in range(1001):
        assert lucas(n) == LS[n]


def test_fresh_walk_run_matches_iteration():
    for n in range(990):
        for count in (0, 1, 2, 6, 11):
            assert FibonacciWalk().run(n, count) == FS[n:n + count], (n, count)


def test_walk_rejects_negative_start():
    with pytest.raises(ValueError):
        FibonacciWalk().run(-1, 3)


def three_product_doubling(n):
    """(F_n, F_{n+1}) by F_{2m} = F_m (2F_{m+1} - F_m) and F_{2m+1} = F_m^2 + F_{m+1}^2."""
    a, b = 0, 1
    for bit in bin(n)[2:]:
        c, d = a * (2 * b - a), a * a + b * b
        a, b = (d, c + d) if bit == "1" else (c, d)
    return a, b


@given(st.integers(0, 10**5))
@example(4095)
@example(4096)
@example(65537)
@example(96000)
def test_fast_doubling_matches_the_three_product_doubling(n):
    assert fib_lucas._fib_pair(n) == three_product_doubling(n)


@st.composite
def two_streams(draw):
    """(n, count) requests of two interleaved index streams, each moving by gaps of either sign.

    A gap of 11 or 12 is just past n.bit_length() for n < 2048, and a stream
    that steps below 0 stays at 0.
    """
    at = [draw(st.integers(0, 2000)), draw(st.integers(0, 2000))]
    requests = []
    moves = st.tuples(st.integers(0, 1), st.integers(-12, 12), st.integers(0, 7))
    for stream, gap, count in draw(st.lists(moves, max_size=40)):
        at[stream] = max(0, at[stream] + gap)
        requests.append((at[stream], count))
    return requests


@given(two_streams())
def test_walk_runs_match_iteration(requests):
    walk = FibonacciWalk()
    for n, count in requests:
        assert walk.run(n, count) == FS[n:n + count], (n, count)


@given(two_streams())
@example([(0, 2), (11, 6), (5000, 6), (5003, 6)])  # a step, a jump past the bit length, a slide
def test_walk_in_the_decimal_ring_matches_the_int_walk(requests):
    from nicom.decimal_text import exact_context

    ints = FibonacciWalk()
    with exact_context():
        walk = FibonacciWalk(Decimal(1))
        for n, count in requests:
            run = walk.run(n, count)
            assert all(type(f) is Decimal and f == f.to_integral_value() for f in run)
            assert [int(f) for f in run] == ints.run(n, count), (n, count)


@pytest.mark.parametrize("n", [0, 1, 2, 9, 1000, 1023, 1024])
def test_walk_doubles_only_past_the_bit_length(doublings, n):
    # the first index whose gap from n exceeds its own bit length
    far = next(f for f in count(n) if f - n > f.bit_length())
    for target, doubled in ((n, False), (far - 1, False), (far, True)):
        walk = FibonacciWalk()  # which stands at 0
        assert walk.run(n, 3) == FS[n:n + 3]
        assert doublings == ([n] if n > n.bit_length() else [])
        doublings.clear()
        assert walk.run(target, 2) == FS[target:target + 2]
        assert doublings == ([target] if doubled else []), target
        doublings.clear()
        # back to n: a run behind the kept place doubles
        assert walk.run(n, 2) == FS[n:n + 2]
        assert doublings == ([n] if target > n else []), target
        doublings.clear()


@pytest.mark.parametrize("n", [300, 1000])  # each gap below m.bit_length(), so no doubling
def test_walk_slides_a_kept_run_at_every_gap(doublings, n):
    for count in range(9):
        for gap in range(count + 2):  # from every kept value, one past the run and two
            for next_count in range(9):
                walk = FibonacciWalk()
                assert walk.run(n, count) == FS[n:n + count]
                m = n + gap
                assert walk.run(m, next_count) == FS[m:m + next_count], (count, gap, next_count)
                assert walk.run(m, next_count) == FS[m:m + next_count]  # from the slid run
    assert set(doublings) == {n}  # only each fresh walk's jump to n


def test_a_mutated_run_leaves_the_walk_intact():
    walk = FibonacciWalk()
    for n in range(0, 60, 2):
        run = walk.run(n, 6)
        assert run == FS[n:n + 6]
        run[:] = [-1] * 6  # the overlap with the next run included
    assert walk.run(60, 0) == []
    walk.run(60, 1).append(-1)
    assert walk.run(60, 3) == FS[60:63]


def test_lucas_is_fib_neighbour_sum():
    # L_n = F_{n-1} + F_{n+1}
    for n in range(1, 501):
        assert lucas(n) == fib(n - 1) + fib(n + 1)


def test_binet_cross_check():
    # 5 F_n^2 - L_n^2 = 4 * (-1)^(n+1)
    for n in range(501):
        assert 5 * fib(n) ** 2 - lucas(n) ** 2 == 4 * (-1) ** (n + 1)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        fib(-1)
    with pytest.raises(ValueError):
        lucas(-3)


def test_factor_examples():
    # n = 3 reads its run from F_0, and n = 4..6 from F_2
    assert ClosedEngine().fib_minus_one_factors(3) == (1, 1)
    assert ClosedEngine().fib_minus_one_factors(4) == (2, 1)
    assert ClosedEngine().fib_minus_one_factors(5) == (1, 4)
    assert ClosedEngine().fib_minus_one_factors(6) == (1, 7)


def test_factor_product_is_fib_minus_one():
    sweep = ClosedEngine()  # one walk for every n, as a verify sweep reads it
    for n in range(3, 204):
        l, r = divmod(n, 4)
        i, j = ((2 * l + 1, 2 * l - 1), (2 * l, 2 * l + 1), (2 * l, 2 * l + 2),
                (2 * l + 2, 2 * l + 1))[r]  # F_n - 1 = F_i L_j
        assert ClosedEngine().fib_minus_one_factors(n) == (FS[i], LS[j]), n
        assert sweep.fib_minus_one_factors(n) == (FS[i], LS[j]), n
        assert FS[i] * LS[j] == FS[n] - 1, n


def test_factor_branches_explicitly():
    for l in range(1, 51):
        assert fib(4 * l) - 1 == fib(2 * l + 1) * lucas(2 * l - 1)
        assert fib(4 * l + 1) - 1 == fib(2 * l) * lucas(2 * l + 1)
        assert fib(4 * l + 2) - 1 == fib(2 * l) * lucas(2 * l + 2)
        assert fib(4 * l + 3) - 1 == fib(2 * l + 2) * lucas(2 * l + 1)


def test_factor_guard():
    with pytest.raises(ValueError):
        ClosedEngine().fib_minus_one_factors(2)


def test_adjacent_lucas_coprime():
    for l in range(1, 51):
        assert gcd(lucas(2 * l + 1), lucas(2 * l + 2)) == 1


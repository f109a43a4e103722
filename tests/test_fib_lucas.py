from math import gcd

import pytest

from nicom.fib_lucas import fib, fib_minus_one_factors, fib_run, lucas


def naive_fib_lucas(n_max):
    """Slow iterative oracle: lists of F_0..F_n and L_0..L_n."""
    fs, ls = [0, 1], [2, 1]
    for _ in range(n_max - 1):
        fs.append(fs[-1] + fs[-2])
        ls.append(ls[-1] + ls[-2])
    return fs, ls


FS, LS = naive_fib_lucas(1000)


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


def test_fib_run_matches_iteration():
    for n in range(990):
        for count in (0, 1, 2, 6, 11):
            assert fib_run(n, count) == FS[n:n + count], (n, count)


def test_fib_run_rejects_negative_start():
    with pytest.raises(ValueError):
        fib_run(-1, 3)


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
    assert fib_minus_one_factors(4) == (2, 1)
    assert fib_minus_one_factors(5) == (1, 4)
    assert fib_minus_one_factors(6) == (1, 7)


def test_factor_product_is_fib_minus_one():
    for n in range(3, 204):
        f, lu = fib_minus_one_factors(n)
        assert f * lu == fib(n) - 1


def test_factor_branches_explicitly():
    for l in range(1, 51):
        assert fib(4 * l) - 1 == fib(2 * l + 1) * lucas(2 * l - 1)
        assert fib(4 * l + 1) - 1 == fib(2 * l) * lucas(2 * l + 1)
        assert fib(4 * l + 2) - 1 == fib(2 * l) * lucas(2 * l + 2)
        assert fib(4 * l + 3) - 1 == fib(2 * l + 2) * lucas(2 * l + 1)


def test_factor_guard():
    with pytest.raises(ValueError):
        fib_minus_one_factors(2)


def test_adjacent_lucas_coprime():
    for l in range(1, 51):
        assert gcd(lucas(2 * l + 1), lucas(2 * l + 2)) == 1


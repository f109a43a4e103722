from hypothesis import given, strategies as st

from nicom.beatty_floor import phi_floors
from nicom.fib_lucas import fib
from nicom.moment_sums import BruteEngine, Moment

from conftest import beatty


def floor_one(n, prime=False):
    """floor(alpha*n), alpha = phi^2 if ``prime`` else phi, through a one-element block."""
    return phi_floors(range(n, n + 1), prime)[0]


def assert_block(ns):
    for prime in (False, True):
        assert phi_floors(ns, prime) == [beatty(n, prime) for n in ns], prime


@given(st.integers(1, 10**30))
def test_floor_phi_defining_property(n):
    # k = floor(phi*n) iff 2k - n <= n*sqrt(5) < 2(k+1) - n, checked by
    # squaring (phi*n is irrational, so no boundary case exists).
    k = floor_one(n)
    lo, hi = 2 * k - n, 2 * (k + 1) - n
    assert lo >= 0 and lo * lo < 5 * n * n  # equality impossible
    assert hi * hi > 5 * n * n


@given(st.integers(1, 10**30))
def test_floor_phi2_defining_property(n):
    # k = floor(phi^2*n) iff 2k - 3n <= n*sqrt(5) < 2(k+1) - 3n, as phi^2 = (3 + sqrt(5)) / 2
    k = floor_one(n, prime=True)
    lo, hi = 2 * k - 3 * n, 2 * (k + 1) - 3 * n
    assert lo >= 0 and lo * lo < 5 * n * n
    assert hi * hi > 5 * n * n


def test_phi_floors_blocks():
    assert phi_floors(range(1, 9)) == [1, 3, 4, 6, 8, 9, 11, 12]
    assert phi_floors(range(1, 9), prime=True) == [2, 5, 7, 10, 13, 15, 18, 20]
    assert phi_floors(range(5, 5)) == phi_floors(range(5, 5), prime=True) == []
    n = 10**40
    for prime in (False, True):
        assert phi_floors(range(n, n + 3), prime) == [floor_one(n + i, prime) for i in range(3)]


def test_phi_floors_exhaustive_below_2_17():
    ns = range(1, 2**17)
    for prime in (False, True):
        expected = [beatty(n, prime) for n in ns]
        assert phi_floors(ns, prime) == expected
        assert [f for lo in range(1, 2**17, 4096)
                for f in phi_floors(range(lo, min(lo + 4096, 2**17)), prime)] == expected
        assert [floor_one(n, prime) for n in ns] == expected


def test_phi_floors_next_to_fibonacci_numbers():
    # {phi*n} is smallest, about 1/(sqrt(5)*n), at n = F_k for odd k
    for k in range(2, 301):
        fk = fib(k)
        for start in (fk - 1, fk, fk + 1):
            for length in (1, 2, 3, 64):
                assert_block(range(start, start + length))
        assert_block(range(max(1, fk - 63), fk + 1))


def test_phi_floors_across_powers_of_two():
    # b grows with the block's largest n, one bit length at a time
    for e in range(1, 81):
        for half in (1, 2, 5, 64):
            assert_block(range(max(1, 2**e - half), 2**e + half))


@given(st.integers(1, 10**40), st.integers(0, 40),
       st.one_of(st.integers(1, 9), st.integers(1, 10**40)), st.booleans())
def test_phi_floors_random_ranges(start, length, step, descending):
    ns = range(start, start + length * step, step)
    assert_block(ns[::-1] if descending else ns)  # length 0 gives an empty range


def test_brute_prime_floors_are_n_plus_floor_phi():
    m = 3 * 4096 + 5  # over several of the brute engine's blocks
    s1, s2 = BruteEngine().sums(m, [Moment(1, prime=True), Moment(2, prime=True)])
    assert s1 == sum(n + beatty(n) for n in range(1, m + 1))
    assert s2 == sum((n + beatty(n)) ** 2 for n in range(1, m + 1))


def test_floor_phi_examples():
    assert floor_one(1) == 1
    assert floor_one(4) == 6
    assert floor_one(8) == 12  # = F_7 - 1 at n = F_6, 6 even


def test_floor_phi2_examples():
    assert floor_one(1, prime=True) == 2
    assert floor_one(2, prime=True) == 5
    assert floor_one(7, prime=True) == 18


def test_floor_phi_at_fibonacci_indices():
    # floor(phi*F_k) = F_{k+1} - 1 for even k, F_{k+1} for odd k
    for k in range(1, 91):
        assert floor_one(fib(k)) == fib(k + 1) - (1 - (k & 1))


def test_shift_identity():
    # floor(phi*(F_k + n)) = F_{k+1} + floor(phi*n) for 1 <= n <= F_{k-1} - 1
    for k in range(3, 26):
        fk, fk1 = fib(k), fib(k + 1)
        for n in range(1, fib(k - 1)):
            assert floor_one(fk + n) == fk1 + floor_one(n)


def test_beatty_complementarity():
    n_max = 10_000
    slow = set(phi_floors(range(1, n_max + 1)))
    fast = set(phi_floors(range(1, n_max + 1), prime=True))
    assert not slow & fast
    union = slow | fast
    assert set(range(1, beatty(n_max) + 1)) <= union

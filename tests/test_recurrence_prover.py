import pytest
from hypothesis import given, settings, strategies as st

from nicom import closed_forms as cf
from nicom.fib_lucas import fib, lucas
from nicom.moment_sums import MomentTable
from nicom.recurrence_prover import (
    EVEN_PHI_POWERS,
    QUARTIC_PHI_POWERS,
    SIGNED_PHI_POWERS,
    TWICE_ODD_PHI_POWERS,
    RootSetSpec,
    _SHAPES,
    _degree,
    _factors,
    certify_identity,
    term_count,
)


def char_poly(spec):
    """The spec's characteristic polynomial over Z, constant term first: its factors expanded."""
    coeffs = [1]
    for factor in _factors(spec):
        nxt = [0] * (len(coeffs) + len(factor) - 1)
        for i, c in enumerate(coeffs):
            for j, f in enumerate(factor):
                nxt[i + j] += c * f
        coeffs = nxt
    return tuple(coeffs)


def annihilated(spec, term):
    """Whether char_poly(spec), read as a shift recurrence, kills term(1), term(2), ...

    certify_identity on the sequence paired with itself checks only that,
    over 3d terms.
    """
    return certify_identity("self", lambda k: (term(k),) * 2, spec).certified


def roots(spec):
    """The spec's roots as (sign, e) for sign*phi^e: each listed pair and its conjugate."""
    out = []
    for sign, l in _SHAPES[spec.shape](spec.bound):
        out.append((sign, l))
        if l:
            # the conjugate of sign*phi^l is sign*(-1/phi)^l = sign*(-1)^l*phi^(-l)
            out.append((sign * (-1) ** l, -l))
    return out


class TestRootSetSpec:
    def test_cardinalities(self):
        for spec, size in (
            (RootSetSpec(SIGNED_PHI_POWERS, 2), 10),
            (RootSetSpec(EVEN_PHI_POWERS, 4), 9),
            (RootSetSpec(QUARTIC_PHI_POWERS, 10), 21),
            (RootSetSpec(TWICE_ODD_PHI_POWERS, 21), 22),
        ):
            assert _degree(spec) == len(roots(spec)) == size, spec

    def test_roots_match_cardinality(self):
        # 2(2B+1), 2B+1, 2B+1 and B+1 roots
        for spec, size in (
            (RootSetSpec(SIGNED_PHI_POWERS, 3), 14),
            (RootSetSpec(EVEN_PHI_POWERS, 5), 11),
            (RootSetSpec(QUARTIC_PHI_POWERS, 4), 9),
            (RootSetSpec(TWICE_ODD_PHI_POWERS, 7), 8),
        ):
            listed = roots(spec)
            assert len(listed) == size == _degree(spec)
            assert len(set(listed)) == len(listed)


class TestCharPoly:
    def test_examples(self):
        assert char_poly(RootSetSpec(EVEN_PHI_POWERS, 1)) == (-1, 4, -4, 1)
        assert char_poly(RootSetSpec(EVEN_PHI_POWERS, 0)) == (-1, 1)
        assert char_poly(RootSetSpec(SIGNED_PHI_POWERS, 0)) == (-1, 0, 1)

    def test_degree_matches_cardinality(self):
        # 2(2B+1), 2B+1, 2B+1 and B+1 roots; the twice-odd set takes odd bounds only
        for shape, size, bounds in (
            (SIGNED_PHI_POWERS, lambda b: 2 * (2 * b + 1), range(6)),
            (EVEN_PHI_POWERS, lambda b: 2 * b + 1, range(6)),
            (QUARTIC_PHI_POWERS, lambda b: 2 * b + 1, range(6)),
            (TWICE_ODD_PHI_POWERS, lambda b: b + 1, range(1, 6, 2)),
        ):
            for bound in bounds:
                spec = RootSetSpec(shape, bound)
                pairs = _SHAPES[shape](bound)
                assert len(set(pairs)) == len(pairs)
                cert = certify_identity("zero", lambda k: (0, 0), spec, extra_window=1)
                assert cert.degree == size(bound) == len(char_poly(spec)) - 1, (shape, bound)
                assert term_count(spec, extra_window=1) == cert.degree + 1

    def test_reciprocal_root_sets_give_palindromes(self):
        # roots come in reciprocal pairs with product 1, so the coefficient
        # list is palindromic up to the sign pattern; for even bounds of the
        # even-power family it is exactly palindromic
        for bound in range(5):
            coeffs = char_poly(RootSetSpec(EVEN_PHI_POWERS, bound))
            assert coeffs == tuple(reversed(coeffs)) or coeffs == tuple(
                -c for c in reversed(coeffs)
            )


def trace(sign, l):
    """k -> sign^k * L_{lk}: the power sums of sign*phi^l and its conjugate."""
    return lambda k: sign ** k * lucas(l * k)


class TestCharPolyRoots:
    # the four bounds the claims use, and a few small ones
    @pytest.mark.parametrize("shape, bound", [
        (SIGNED_PHI_POWERS, 2),
        (EVEN_PHI_POWERS, 4),
        (QUARTIC_PHI_POWERS, 10),
        (TWICE_ODD_PHI_POWERS, 21),
        *((shape, b) for shape in (SIGNED_PHI_POWERS, EVEN_PHI_POWERS, QUARTIC_PHI_POWERS)
          for b in (0, 1, 3)),
        (TWICE_ODD_PHI_POWERS, 1),
        (TWICE_ODD_PHI_POWERS, 3),
    ])
    def test_every_root_is_a_root(self, shape, bound):
        # trace(sign, l) is the power sums of a conjugate pair, so this reads both roots
        spec = RootSetSpec(shape, bound)
        for sign, l in _SHAPES[shape](bound):
            assert annihilated(spec, trace(sign, l)), (sign, l)

    @pytest.mark.parametrize("shape, bound, sign, l", [
        (SIGNED_PHI_POWERS, 2, 1, 3),
        (SIGNED_PHI_POWERS, 2, -1, 3),
        (EVEN_PHI_POWERS, 4, 1, 10),
        (EVEN_PHI_POWERS, 4, 1, 1),
        (EVEN_PHI_POWERS, 4, -1, 2),
        (QUARTIC_PHI_POWERS, 10, 1, 44),
        (QUARTIC_PHI_POWERS, 10, 1, 2),
        (TWICE_ODD_PHI_POWERS, 21, 1, 4),
        (TWICE_ODD_PHI_POWERS, 21, 1, 0),
        (TWICE_ODD_PHI_POWERS, 21, 1, 46),
    ])
    def test_a_root_just_outside_is_not(self, shape, bound, sign, l):
        assert not annihilated(RootSetSpec(shape, bound), trace(sign, l))


class TestAnnihilates:
    def test_fibonacci(self):
        # x^2 - x - 1, the roots phi and -1/phi, divides the signed set's polynomial at bound 1
        assert annihilated(RootSetSpec(SIGNED_PHI_POWERS, 1), fib)

    def test_constant(self):
        spec = RootSetSpec(EVEN_PHI_POWERS, 0)  # x - 1
        assert annihilated(spec, lambda k: 5)
        assert not annihilated(spec, lambda k: k)


class TestCertify:
    def table(self):
        return MomentTable()

    def test_first_moment_certifies(self):
        table = self.table()
        cert = certify_identity(
            "first-moment",
            lambda k: (table.a(k, 1, 0), cf.lemma2_a(k)),
            RootSetSpec(SIGNED_PHI_POWERS, 2),
        )
        assert cert.certified
        assert cert.degree == 10
        assert cert.agreed_terms == 10
        assert cert.window == 20

    def test_first_moment_closed_form_in_claimed_span(self):
        assert annihilated(RootSetSpec(SIGNED_PHI_POWERS, 2), cf.lemma2_a)

    def test_wider_window_stays_certified(self):
        table = self.table()
        for window in (25, 40, 60):
            cert = certify_identity(
                "first-moment",
                lambda k: (table.a(k, 1, 0), cf.lemma2_a(k)),
                RootSetSpec(SIGNED_PHI_POWERS, 2),
                extra_window=window,
            )
            assert cert.certified

    def test_mutated_closed_form_is_refuted(self):
        table = self.table()
        cert = certify_identity(
            "first-moment-broken",
            lambda k: (table.a(k, 1, 0), cf.lemma2_a(k) + (1 if k == 4 else 0)),
            RootSetSpec(SIGNED_PHI_POWERS, 2),
        )
        assert not cert.certified
        assert cert.verdict == "refuted at index 4"
        assert cert.agreed_terms == 3

    def test_agreement_on_d_terms_then_a_later_break_is_refuted(self):
        # F_k satisfies x^2 - x - 1, whose roots lie in the signed set, so
        # the sides agree on the first d = 10 terms and only the
        # annihilation windows see the change at k = 15.
        spec = RootSetSpec(SIGNED_PHI_POWERS, 2)
        broken = [fib(k) + (k == 15) for k in range(1, 31)]
        assert not annihilated(spec, lambda k: broken[k - 1])
        for sides in (lambda k: (fib(k), broken[k - 1]), lambda k: (broken[k - 1], fib(k))):
            cert = certify_identity("fibonacci-broken", sides, spec)
            assert not cert.certified
            assert cert.agreed_terms == cert.degree == 10
            # the first window of 11 terms that holds k = 15 starts at k = 5
            assert cert.verdict == "refuted at index 5"

    def test_mutated_coefficient_refuted_within_degree(self):
        # perturb the constant inside the third-moment closed form
        table = self.table()

        def broken(k):
            from nicom.fib_lucas import fib as F, lucas as L

            num = (F(k) - 1) * (F(k + 2) - 1) * (L(2 * k + 4) - 5 * L(k + 3) + 12)
            return num // 20

        cert = certify_identity(
            "third-moment-broken",
            lambda k: (broken(2 * k), cf.lemma4_a_prime3(2 * k)),
            RootSetSpec(EVEN_PHI_POWERS, 4),
        )
        assert not cert.certified
        refuted_at = int(cert.verdict.rsplit(" ", 1)[1])
        assert refuted_at <= cert.degree

    def test_certificate_serialization(self):
        table = self.table()
        cert = certify_identity(
            "first-moment",
            lambda k: (table.a(k, 1, 0), cf.lemma2_a(k)),
            RootSetSpec(SIGNED_PHI_POWERS, 2),
        )
        d = cert._asdict()
        assert d["claim"] == "first-moment"
        assert d["shape"] == SIGNED_PHI_POWERS
        assert d["bound"] == 2
        assert d["degree"] == 10
        assert d["verdict"] == "certified"

    @pytest.mark.parametrize("rhs, verdict, agreed", [
        (fib, "certified", 10), (lambda k: fib(k) + (k == 4), "refuted at index 4", 3)])
    def test_certificate_dict_lists_every_field_in_order(self, rhs, verdict, agreed):
        cert = certify_identity("fib", lambda k: (fib(k), rhs(k)),
                                RootSetSpec(SIGNED_PHI_POWERS, 2), extra_window=5)
        assert list(cert._asdict().items()) == [
            ("claim", "fib"), ("shape", SIGNED_PHI_POWERS), ("bound", 2), ("degree", 10),
            ("agreed_terms", agreed), ("window", 5), ("verdict", verdict),
            ("root_containment", "structural (trusted input)")]

    def test_certificate_rejects_attribute_assignment(self):
        cert = certify_identity("fib", lambda k: (fib(k),) * 2, RootSetSpec(SIGNED_PHI_POWERS, 2))
        with pytest.raises(AttributeError):
            cert.verdict = "refuted at index 1"
        assert cert.certified


def oracle(spec, lhs, rhs):
    """(verdict, agreed terms) of the finite check, by every window of the expanded polynomial."""
    p = char_poly(spec)
    d = len(p) - 1
    for i in range(d):
        if lhs[i] != rhs[i]:
            return f"refuted at index {i + 1}", i
    for side in (lhs, rhs):
        for n in range(len(side) - d):
            if sum(c * side[n + i] for i, c in enumerate(p)):
                return f"refuted at index {n + 1}", d
    return "certified", d


# every shape at small bounds
SMALL_SPECS = [RootSetSpec(shape, b) for shape, bounds in (
    (SIGNED_PHI_POWERS, (0, 1, 2)), (EVEN_PHI_POWERS, (0, 1, 2, 3)),
    (QUARTIC_PHI_POWERS, (0, 1, 2)), (TWICE_ODD_PHI_POWERS, (1, 3))) for b in bounds]


@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("after_d", [False, True])
@pytest.mark.parametrize("perturbed", ["none", "lhs", "rhs", "both", "both alike"])
@given(data=st.data())
def test_certify_matches_the_expanded_polynomial_on_every_window(perturbed, after_d, data):
    spec = data.draw(st.sampled_from(SMALL_SPECS))
    window = data.draw(st.none() | st.integers(1, 8))
    p = char_poly(spec)
    d = len(p) - 1
    total = d + (2 * d if window is None else window)
    # a sequence of the spec's recurrence, p monic: t_{n+d} = -sum_{i<d} p_i t_{n+i}
    seq = data.draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))
    while len(seq) < total:
        seq.append(-sum(c * seq[len(seq) - d + i] for i, c in enumerate(p[:-1])))
    lhs, rhs = seq[:], seq[:]
    positions = st.integers(d, total - 1) if after_d else st.integers(0, d - 1)
    deltas = st.integers(-3, 3).filter(bool)
    if perturbed == "both alike":
        at, by = data.draw(positions), data.draw(deltas)
        lhs[at] += by
        rhs[at] += by
    for side in {"lhs": (lhs,), "rhs": (rhs,), "both": (lhs, rhs)}.get(perturbed, ()):
        side[data.draw(positions)] += data.draw(deltas)
    cert = certify_identity("oracle", lambda i: (lhs[i - 1], rhs[i - 1]), spec, window)
    assert (cert.verdict, cert.agreed_terms) == oracle(spec, lhs, rhs)
    assert (cert.degree, cert.window) == (d, total - d)

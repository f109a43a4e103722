"""Finite certification of linear-recurrence identities.

The proof pattern: two integer sequences whose characteristic roots are
simple and lie in a known finite set of golden-ratio powers are identical
as soon as they agree on d consecutive terms, where d is the size of the
root set.  This module supplies

* root sets of signed golden-ratio powers, each root sign*phi^l held as
  the pair (sign, l),
* their characteristic polynomials, expanded over Z as coefficient tuples,
  constant term first: a root sign*phi^l and its conjugate
  sign*(-1)^l*phi^(-l) are the two roots of the integer quadratic
  x^2 - sign*L_l*x + (-1)^l, and
* ``certify_identity``, which reads the two sequences as one sequence of
  (lhs, rhs) pairs, checks the d initial agreements and that the
  characteristic polynomial, read as a shift recurrence, kills every
  window of both sides, and packages the outcome into a Certificate.

The containment of the roots in the specified set is structural input
(recorded on the certificate), not something re-derived here.
"""

from __future__ import annotations

from typing import NamedTuple

from .fib_lucas import lucas

SIGNED_PHI_POWERS = "signed-phi-powers"
EVEN_PHI_POWERS = "even-phi-powers"
QUARTIC_PHI_POWERS = "quartic-phi-powers"
TWICE_ODD_PHI_POWERS = "twice-odd-phi-powers"

# Root-set shapes: each maps its bound B to its roots as (sign, l) pairs.
_SHAPES = {
    # {+phi^l, -phi^l : |l| <= B}, 2(2B+1) roots
    SIGNED_PHI_POWERS: lambda b: [(sign, l) for l in range(-b, b + 1) for sign in (1, -1)],
    # {phi^(2l) : |l| <= B}, 2B+1 roots
    EVEN_PHI_POWERS: lambda b: [(1, 2 * l) for l in range(-b, b + 1)],
    # {phi^(4l) : |l| <= B}, 2B+1 roots
    QUARTIC_PHI_POWERS: lambda b: [(1, 4 * l) for l in range(-b, b + 1)],
    # {phi^(2l) : l odd, |l| <= B}, B+1 roots, B odd
    TWICE_ODD_PHI_POWERS: lambda b: [(1, 2 * l) for l in range(-b, b + 1) if l % 2],
}


class _RootSet(NamedTuple):
    shape: str
    bound: int


class RootSetSpec(_RootSet):
    """Symbolic description of a finite set of golden-ratio-power roots."""

    __slots__ = ()

    def __new__(cls, shape: str, bound: int) -> RootSetSpec:
        if shape not in _SHAPES:
            raise ValueError(f"unknown root-set shape {shape!r}")
        if bound < 0:
            raise ValueError(f"bound must be nonnegative, got {bound}")
        if shape == TWICE_ODD_PHI_POWERS and bound % 2 == 0:
            raise ValueError("twice-odd-phi-powers needs an odd bound")
        return super().__new__(cls, shape, bound)

    def roots(self) -> list[tuple[int, int]]:
        """The roots as (sign, l) pairs, each standing for sign * phi^l."""
        return _SHAPES[self.shape](self.bound)


def char_poly(spec: RootSetSpec) -> tuple[int, ...]:
    """Expand prod (x - alpha) over the spec's root set, in Z[x], constant term first.

    A root sign*phi^l with l > 0 gives the factor x^2 - sign*L_l*x + (-1)^l,
    whose other root is its conjugate (sign*(-1)^l, -l), skipped when met;
    a root sign*phi^0 gives x - sign.  A root whose conjugate is not in the
    set would leave coefficients outside Z; that means an internal bug and
    raises.
    """
    roots = spec.roots()
    present = set(roots)
    coeffs = [1]
    for sign, l in roots:
        odd = l % 2
        if (-sign if odd else sign, -l) not in present:
            raise ArithmeticError(
                f"root set {spec} is not Galois-stable: the conjugate of "
                f"{sign}*phi^{l} is missing"
            )
        if l > 0:
            factor = (-1 if odd else 1, -sign * lucas(l), 1)
        elif l == 0:
            factor = (-sign, 1)
        else:
            continue
        nxt = [0] * (len(coeffs) + len(factor) - 1)
        for i, c in enumerate(coeffs):
            for j, f in enumerate(factor):
                nxt[i + j] += c * f
        coeffs = nxt
    return tuple(coeffs)


def _first_surviving_window(p: tuple[int, ...], terms: list[int]) -> int | None:
    """The first n with sum_i p_i * terms[n + i] != 0, or None if p kills every window."""
    for n in range(len(terms) - len(p) + 1):
        if sum(c * terms[n + i] for i, c in enumerate(p)) != 0:
            return n
    return None


class Certificate(NamedTuple):
    """Auditable record of a finite identity check.

    ``verdict`` is "certified" when the first ``degree`` terms of both
    sequences agree and the characteristic polynomial kills both over
    the whole inspected window; otherwise "refuted at index i".
    """

    claim: str
    shape: str
    bound: int
    degree: int
    agreed_terms: int
    window: int
    verdict: str
    root_containment: str = "structural (trusted input)"

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def to_dict(self) -> dict:
        return self._asdict()


def certify_identity(
    claim: str,
    sides,
    spec: RootSetSpec,
    extra_window: int | None = None,
) -> Certificate:
    """Certify that two integer sequences (indexed 1, 2, ...) are identical.

    ``sides`` maps an index i to the pair (lhs_i, rhs_i) and is called once
    per index.  With d the degree of the spec's characteristic polynomial,
    the check is: term agreement for i = 1..d, then annihilation of both
    term lists over d + extra_window terms.  ``extra_window`` defaults to 2d.
    """
    p = char_poly(spec)
    d = len(p) - 1
    window = 2 * d if extra_window is None else extra_window
    if window < 1:
        raise ValueError("extra_window must be at least 1")
    total = d + window

    lhs_terms, rhs_terms = zip(*(sides(i) for i in range(1, total + 1)))

    def cert(verdict: str, agreed: int) -> Certificate:
        return Certificate(
            claim=claim,
            shape=spec.shape,
            bound=spec.bound,
            degree=d,
            agreed_terms=agreed,
            window=window,
            verdict=verdict,
        )

    for i in range(d):
        if lhs_terms[i] != rhs_terms[i]:
            return cert(f"refuted at index {i + 1}", agreed=i)

    for side in (lhs_terms, rhs_terms):
        n = _first_surviving_window(p, side)
        if n is not None:
            return cert(f"refuted at index {n + 1}", agreed=d)

    return cert("certified", agreed=d)

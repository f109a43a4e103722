"""Finite certification of linear-recurrence identities.

The proof pattern: two integer sequences whose characteristic roots are
simple and lie in a known finite set of golden-ratio powers are identical
as soon as they agree on d consecutive terms, where d is the size of the
root set.  This module supplies

* root sets of signed golden-ratio powers, closed under conjugation and
  each given by one root per conjugate pair: the pair (sign, l) with
  l >= 0 stands for sign*phi^l and its conjugate sign*(-1)^l*phi^(-l),
* their characteristic polynomials as lists of integer factors: the pair
  (sign, l) gives the quadratic x^2 - sign*L_l*x + (-1)^l, whose two roots
  those are, and (sign, 0) gives x - sign,
* ``term_count``, the number of terms a certification reads, and
* ``certify_identity``, which reads the two sequences as one sequence of
  (lhs, rhs) pairs, checks the d initial agreements and that the
  characteristic polynomial, read as a shift recurrence, kills every
  window of both sides, and packages the outcome into a Certificate.

The containment of the roots in the specified set is structural input
(recorded on the certificate), not something re-derived here.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from operator import add, mul, sub
from typing import NamedTuple, Sequence

from .fib_lucas import lucas

SIGNED_PHI_POWERS = "signed-phi-powers"
EVEN_PHI_POWERS = "even-phi-powers"
QUARTIC_PHI_POWERS = "quartic-phi-powers"
TWICE_ODD_PHI_POWERS = "twice-odd-phi-powers"

# Root-set shapes: each maps its bound B to one (sign, l) pair, l >= 0, per conjugate
# pair of roots; at l = 0 the pair is the one root sign.
_SHAPES = {
    # {+phi^l, -phi^l : |l| <= B}, 2(2B+1) roots
    SIGNED_PHI_POWERS: lambda b: [(sign, l) for l in range(b + 1) for sign in (1, -1)],
    # {phi^(2l) : |l| <= B}, 2B+1 roots
    EVEN_PHI_POWERS: lambda b: [(1, 2 * l) for l in range(b + 1)],
    # {phi^(4l) : |l| <= B}, 2B+1 roots
    QUARTIC_PHI_POWERS: lambda b: [(1, 4 * l) for l in range(b + 1)],
    # {phi^(2l) : l odd, |l| <= B}, B+1 roots for an odd B
    TWICE_ODD_PHI_POWERS: lambda b: [(1, 2 * l) for l in range(1, b + 1, 2)],
}


class RootSetSpec(NamedTuple):
    """Symbolic description of a finite set of golden-ratio-power roots: a shape and its bound."""

    shape: str
    bound: int


def _degree(spec: RootSetSpec) -> int:
    """d, the size of the spec's root set: 2 per conjugate pair, 1 at l = 0."""
    return sum(2 if l else 1 for _, l in _SHAPES[spec.shape](spec.bound))


def _factors(spec: RootSetSpec) -> list[tuple[int, ...]]:
    """The integer factors of prod (x - alpha) over the spec's root set, constant term first.

    The pair (sign, l) with l > 0 gives x^2 - sign*L_l*x + (-1)^l, whose
    roots are sign*phi^l and its conjugate; (sign, 0) gives x - sign.
    """
    return [(-1 if l % 2 else 1, -sign * lucas(l), 1) if l else (-sign, 1)
            for sign, l in _SHAPES[spec.shape](spec.bound)]


def _filter(terms: Sequence[int], factor: tuple[int, ...]) -> list[int]:
    """[sum_i c_i * terms[n + i] for each n] for a monic factor c with constant term +-1."""
    const = sub if factor[0] == -1 else add
    if len(factor) == 2:
        return list(map(const, terms[1:], terms))
    return list(map(const, map(add, terms[2:], map(mul, terms[1:], repeat(factor[1]))), terms))


def term_count(spec: RootSetSpec, extra_window: int | None = None) -> int:
    """d + window, the terms ``certify_identity`` reads: d the root count, window 2d by default."""
    d = _degree(spec)
    window = 2 * d if extra_window is None else extra_window
    if window < 1:
        raise ValueError("extra_window must be at least 1")
    return d + window


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


def certify_identity(
    claim: str,
    sides,
    spec: RootSetSpec,
    extra_window: int | None = None,
) -> Certificate:
    """Certify that two integer sequences (indexed 1, 2, ...) are identical.

    ``sides`` maps an index i to the pair (lhs_i, rhs_i) and is called once
    per index i = 1..``term_count(spec, extra_window)``.  With d the size of
    the spec's root set, the check is: term agreement for i = 1..d, then
    annihilation of both term lists by the characteristic polynomial over
    d + extra_window terms, which defaults to 2d.  The polynomial is never
    expanded: each of its integer factors, applied to a term list as a two-
    or three-tap filter, leaves one term per window of the factors applied
    so far, so after all of them entry n is the window sum
    sum_i p_i * terms[n + i], and the first nonzero one refutes at index n + 1.
    Equal term lists are filtered once.
    """
    factors = _factors(spec)
    d = _degree(spec)
    total = term_count(spec, extra_window)

    lhs_terms, rhs_terms = zip(*(sides(i) for i in range(1, total + 1)))

    def cert(verdict: str, agreed: int) -> Certificate:
        return Certificate(
            claim=claim,
            shape=spec.shape,
            bound=spec.bound,
            degree=d,
            agreed_terms=agreed,
            window=total - d,
            verdict=verdict,
        )

    for i in range(d):
        if lhs_terms[i] != rhs_terms[i]:
            return cert(f"refuted at index {i + 1}", agreed=i)

    for side in (lhs_terms,) if lhs_terms == rhs_terms else (lhs_terms, rhs_terms):
        sums = reduce(_filter, factors, side)
        if any(sums):
            return cert(f"refuted at index {next(n for n, v in enumerate(sums) if v) + 1}",
                        agreed=d)

    return cert("certified", agreed=d)

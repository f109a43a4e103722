"""Finite certification of linear-recurrence identities.

The proof pattern: two integer sequences whose characteristic roots are
simple and lie in a known finite set of golden-ratio powers are identical
as soon as they agree on d consecutive terms, where d is the size of the
root set.  This module supplies

* exact arithmetic in Z[phi] (numbers a + b*phi, phi^2 = phi + 1),
* characteristic polynomials expanded from symbolic root-set specs
  (the expansions are Galois-stable, so coefficients land in Z),
* an annihilation check (does a polynomial, read as a shift recurrence,
  kill a window of terms?), and
* ``certify_identity``, which packages the d initial agreements plus
  corroborating annihilation windows into a Certificate.

The containment of the roots in the specified set is structural input
(recorded on the certificate), not something re-derived here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Root-set shapes.  Bound B parameterizes each family:
#   signed-phi-powers:    {+phi^l, -phi^l : |l| <= B}         (2(2B+1) roots)
#   even-phi-powers:      {phi^(2l) : |l| <= B}               (2B+1 roots)
#   quartic-phi-powers:   {phi^(4l) : |l| <= B}               (2B+1 roots)
#   twice-odd-phi-powers: {phi^(2l) : l odd, |l| <= B}        (B+1 roots, B odd)
SIGNED_PHI_POWERS = "signed-phi-powers"
EVEN_PHI_POWERS = "even-phi-powers"
QUARTIC_PHI_POWERS = "quartic-phi-powers"
TWICE_ODD_PHI_POWERS = "twice-odd-phi-powers"

_SHAPES = (
    SIGNED_PHI_POWERS,
    EVEN_PHI_POWERS,
    QUARTIC_PHI_POWERS,
    TWICE_ODD_PHI_POWERS,
)


@dataclass(frozen=True)
class GoldenNumber:
    """Element a + b*phi of the ring Z[phi]."""

    a: int
    b: int

    def __add__(self, other: GoldenNumber) -> GoldenNumber:
        return GoldenNumber(self.a + other.a, self.b + other.b)

    def __sub__(self, other: GoldenNumber) -> GoldenNumber:
        return GoldenNumber(self.a - other.a, self.b - other.b)

    def __neg__(self) -> GoldenNumber:
        return GoldenNumber(-self.a, -self.b)

    def __mul__(self, other: GoldenNumber) -> GoldenNumber:
        # (a + b*phi)(c + d*phi) with phi^2 = phi + 1
        a, b, c, d = self.a, self.b, other.a, other.b
        return GoldenNumber(a * c + b * d, a * d + b * c + b * d)

    @property
    def is_integer(self) -> bool:
        return self.b == 0


GOLDEN_ZERO = GoldenNumber(0, 0)
GOLDEN_ONE = GoldenNumber(1, 0)
GOLDEN_PHI = GoldenNumber(0, 1)
GOLDEN_PHI_INV = GoldenNumber(-1, 1)  # 1/phi = phi - 1


def golden_power(l: int) -> GoldenNumber:
    """Exact phi^l in Z[phi], any integer l (phi^-1 = phi - 1)."""
    base = GOLDEN_PHI if l >= 0 else GOLDEN_PHI_INV
    e = abs(l)
    result = GOLDEN_ONE
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


@dataclass(frozen=True)
class RootSetSpec:
    """Symbolic description of a finite set of golden-ratio-power roots."""

    shape: str
    bound: int

    def __post_init__(self) -> None:
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown root-set shape {self.shape!r}")
        if self.bound < 0:
            raise ValueError(f"bound must be nonnegative, got {self.bound}")
        if self.shape == TWICE_ODD_PHI_POWERS and self.bound % 2 == 0:
            raise ValueError("twice-odd-phi-powers needs an odd bound")

    def roots(self) -> list[GoldenNumber]:
        b = self.bound
        if self.shape == SIGNED_PHI_POWERS:
            out = []
            for l in range(-b, b + 1):
                p = golden_power(l)
                out.extend((p, -p))
            return out
        if self.shape == EVEN_PHI_POWERS:
            return [golden_power(2 * l) for l in range(-b, b + 1)]
        if self.shape == QUARTIC_PHI_POWERS:
            return [golden_power(4 * l) for l in range(-b, b + 1)]
        return [golden_power(2 * l) for l in range(-b, b + 1) if l % 2]

    @property
    def cardinality(self) -> int:
        if self.shape == SIGNED_PHI_POWERS:
            return 2 * (2 * self.bound + 1)
        if self.shape == TWICE_ODD_PHI_POWERS:
            return self.bound + 1
        return 2 * self.bound + 1


@dataclass(frozen=True)
class IntPolynomial:
    """Integer-coefficient polynomial, constant term first."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs or self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def char_poly(spec: RootSetSpec) -> IntPolynomial:
    """Expand prod (x - alpha) over the spec's root set.

    The families above are stable under the conjugation phi -> 1 - phi, so
    every coefficient must have zero phi-part; a nonzero phi-part means an
    internal bug and raises.
    """
    coeffs: list[GoldenNumber] = [GOLDEN_ONE]
    for root in spec.roots():
        nxt = [GOLDEN_ZERO] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - root * c
        coeffs = nxt
    for i, c in enumerate(coeffs):
        if not c.is_integer:
            raise ArithmeticError(
                f"root set {spec} is not Galois-stable: coefficient {i} "
                f"has phi-part {c.b}"
            )
    return IntPolynomial(tuple(c.a for c in coeffs))


def annihilates(p: IntPolynomial, terms: list[int]) -> bool:
    """True iff p, read as a shift recurrence, kills every window of terms."""
    d = p.degree
    if len(terms) < d + 1:
        raise ValueError(
            f"need at least {d + 1} terms for a degree-{d} polynomial, "
            f"got {len(terms)}"
        )
    return _first_surviving_window(p, terms) is None


def _first_surviving_window(p: IntPolynomial, terms: list[int]) -> int | None:
    """The first n with sum_i c_i * terms[n + i] != 0, or None if p kills every window."""
    coeffs = p.coeffs
    for n in range(len(terms) - p.degree):
        if sum(c * terms[n + i] for i, c in enumerate(coeffs)) != 0:
            return n
    return None


@dataclass(frozen=True)
class Certificate:
    """Auditable record of a finite identity check.

    ``verdict`` is "certified" when the first ``degree`` terms of both
    sequences agree and the characteristic polynomial annihilates both
    over the whole inspected window; otherwise "refuted at index i".
    """

    claim: str
    shape: str
    bound: int
    degree: int
    agreed_terms: int
    window: int
    verdict: str
    root_containment: str = field(default="structural (trusted input)")

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "shape": self.shape,
            "bound": self.bound,
            "degree": self.degree,
            "agreed_terms": self.agreed_terms,
            "window": self.window,
            "verdict": self.verdict,
            "root_containment": self.root_containment,
        }


def certify_identity(
    claim: str,
    lhs,
    rhs,
    spec: RootSetSpec,
    extra_window: int | None = None,
) -> Certificate:
    """Certify that two integer sequences (indexed 1, 2, ...) are identical.

    ``lhs`` and ``rhs`` are callables index -> int.  With d the degree of
    the spec's characteristic polynomial, the check is: term agreement for
    i = 1..d, then annihilation of both term lists over d + extra_window
    terms.  ``extra_window`` defaults to 2d.
    """
    p = char_poly(spec)
    d = p.degree
    window = 2 * d if extra_window is None else extra_window
    if window < 1:
        raise ValueError("extra_window must be at least 1")
    total = d + window

    lhs_terms = [lhs(i) for i in range(1, total + 1)]
    rhs_terms = [rhs(i) for i in range(1, total + 1)]

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

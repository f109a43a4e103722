"""End-to-end verification and certification of the moment-sum identities.

``verify_claim`` evaluates a claim index by index with the requested
engines and reports exact equality; ``prove_claim`` runs the finite
recurrence certification.  The claim registry is data: each entry carries
the sequence generators, the root-set spec and the default index range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Callable, Iterable

from . import closed_forms as cf
from . import qratio
from .decimal_text import exact_str
from .fib_lucas import fib, fib_minus_one_factors, lucas
from .moment_sums import BruteEngine, BruteForceGuardError, Moment, MomentTable
from .recurrence_prover import (
    QUARTIC_PHI_POWERS,
    SIGNED_PHI_POWERS,
    EVEN_PHI_POWERS,
    TWICE_ODD_PHI_POWERS,
    Certificate,
    RootSetSpec,
    certify_identity,
)

CLAIM_IDS = (
    "lemma2",
    "lemma3",
    "lemma4",
    "theorem1",
    "theorem6",
    "case4l",
    "nicomachus",
    "fact-identities",
)

DEFAULT_RANGES = {
    "lemma2": 10,
    "lemma3": 18,  # 9 instances per parity class
    "lemma4": 18,
    "theorem1": 30,
    "theorem6": 60,
    "case4l": 21,
    "nicomachus": 1000,
    "fact-identities": 50,
}

DEEP_RANGES = {"case4l": 100, "theorem1": 100}

DEFAULT_ENGINES = {
    "lemma2": ("brute", "recursive", "closed"),
    "lemma3": ("brute", "recursive", "closed"),
    "lemma4": ("brute", "recursive", "closed"),
    "theorem1": ("recursive", "closed"),
    "theorem6": ("closed",),
    "case4l": ("closed",),
    "nicomachus": ("brute",),
    "fact-identities": ("closed",),
}


@dataclass
class IndexResult:
    """One compared pair at one index.

    ``lhs`` and ``rhs`` hold the exact values compared (int, Fraction or
    bool), or None on a row the guard skipped; they turn into decimal text
    only where they are printed.
    """

    index: int
    lhs: object
    rhs: object
    equal: bool
    skipped: bool = False


@dataclass
class ClaimReport:
    claim: str
    range: tuple[int, int]
    engines: tuple[str, ...]
    verdict: str
    failures: list[dict]
    skipped: list[int]
    rows: list[IndexResult] = field(repr=False, default_factory=list)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "range": list(self.range),
            "engines": list(self.engines),
            "verdict": self.verdict,
            "failures": self.failures,
            "skipped": self.skipped,
        }


_FIRST_MOMENTS = (Moment(1), Moment(1, prime=True))


def _pairs_lemma2(k: int, engines: Iterable[str], table: MomentTable, brute: BruteEngine):
    closed = cf.lemma2_a(k), cf.lemma2_a_prime(k)
    for eng in engines:
        if eng == "brute":
            yield from zip(brute.sums(fib(k) - 1, _FIRST_MOMENTS), closed)
        elif eng == "recursive":
            yield table.a(k, 1, 0), closed[0]
            yield table.a(k, 1, 0, True), closed[1]


def _pairs_lemma3(k: int, engines: Iterable[str], table: MomentTable, brute: BruteEngine):
    closed = cf.lemma3_a3(k)
    for eng in engines:
        if eng == "brute":
            yield brute.sums(fib(k) - 1, [Moment(3)])[0], closed
        elif eng == "recursive":
            yield table.a(k, 3, 0), closed


def _pairs_lemma4(k: int, engines: Iterable[str], table: MomentTable, brute: BruteEngine):
    closed = cf.lemma4_a_prime3(k)
    for eng in engines:
        if eng == "brute":
            yield brute.sums(fib(k) - 1, [Moment(3, prime=True)])[0], closed
        elif eng == "recursive":
            yield table.a(k, 3, 0, True), closed


def _pairs_theorem1(K: int, engines: Iterable[str], table: MomentTable, brute: BruteEngine):
    rhs = cf.theorem1_rhs(K)
    for eng in engines:
        yield qratio.q_diff(K, engine=eng, brute=brute), rhs


def _pairs_theorem6(k: int, engines: Iterable[str], table: MomentTable, brute: BruteEngine):
    rhs = cf.theorem6_rhs(k)
    yield lcm(cf.lemma2_a(2 * k), cf.lemma2_a_prime(2 * k)), rhs
    if "brute" in engines:
        yield lcm(*brute.sums(fib(2 * k) - 1, _FIRST_MOMENTS)), rhs


def _pairs_case4l(l: int, engines: Iterable[str], table: MomentTable, brute: BruteEngine):
    lhs, rhs = cf.case4l_sides(l)
    yield lhs, rhs
    if "recursive" in engines:
        K = 4 * l
        num, den = cf.theorem1_num_den(K)
        a1, a1p = table.a(K, 1, 0), table.a(K, 1, 0, True)
        a3, a3p = table.a(K, 3, 0), table.a(K, 3, 0, True)
        yield den * (a3p * a1 * a1 - a3 * a1p * a1p), a1 * a1 * a1p * a1p * (den - num)


def _pairs_nicomachus(m: int, engines: Iterable[str], table: MomentTable, brute: BruteEngine):
    yield qratio.nicomachus_check(m, brute), True


def _pairs_fact(l: int, engines: Iterable[str], table: MomentTable, brute: BruteEngine):
    for n in range(4 * l, 4 * l + 4):
        f, lu = fib_minus_one_factors(n)
        yield f * lu, fib(n) - 1
    yield gcd(lucas(2 * l + 1), lucas(2 * l + 2)), 1


_CHECKERS: dict[str, tuple[Callable, int]] = {
    # checker, first index
    "lemma2": (_pairs_lemma2, 1),
    "lemma3": (_pairs_lemma3, 1),
    "lemma4": (_pairs_lemma4, 1),
    "theorem1": (_pairs_theorem1, 3),
    "theorem6": (_pairs_theorem6, 1),
    "case4l": (_pairs_case4l, 1),
    "nicomachus": (_pairs_nicomachus, 1),
    "fact-identities": (_pairs_fact, 1),
}


def verify_claim(
    claim: str,
    k_max: int | None = None,
    engines: Iterable[str] | None = None,
    deep: bool = False,
) -> ClaimReport:
    """Check one claim index by index; exact equality at every index.

    The verdict is "fail" on any unequal row, "inconclusive" when no row
    checked has a nonzero side (no row at all, only the empty sums at
    k <= 2, or only those the brute-force guard left), and "pass"
    otherwise.
    """
    if claim not in CLAIM_IDS:
        raise ValueError(f"unknown claim {claim!r}; known: {', '.join(CLAIM_IDS)}")
    checker, lo = _CHECKERS[claim]
    if k_max is None:
        k_max = DEEP_RANGES.get(claim, DEFAULT_RANGES[claim]) if deep else DEFAULT_RANGES[claim]
    engines = tuple(engines) if engines is not None else DEFAULT_ENGINES[claim]
    for eng in engines:
        if eng not in ("brute", "recursive", "closed"):
            raise ValueError(f"unknown engine {eng!r}")
    if k_max < lo:
        raise ValueError(f"{claim}: empty index range {lo}..{k_max}; nothing to check")

    table = MomentTable()
    brute = BruteEngine()
    rows: list[IndexResult] = []
    failures: list[dict] = []
    skipped: list[int] = []
    nonzero = False  # some checked row has a nonzero side
    for idx in range(lo, k_max + 1):
        try:
            for lhs, rhs in checker(idx, engines, table, brute):
                nonzero = nonzero or lhs != 0 or rhs != 0
                equal = lhs == rhs
                rows.append(IndexResult(idx, lhs, rhs, equal))
                if not equal:
                    failures.append({"index": idx, "lhs": exact_str(lhs), "rhs": exact_str(rhs)})
        except BruteForceGuardError:
            skipped.append(idx)
            rows.append(IndexResult(idx, None, None, True, skipped=True))
    if failures:
        verdict = "fail"
    elif not nonzero:
        verdict = "inconclusive"  # only empty sums were compared
    else:
        verdict = "pass"
    return ClaimReport(
        claim=claim,
        range=(lo, k_max),
        engines=engines,
        verdict=verdict,
        failures=failures,
        skipped=skipped,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Certification registry
# ---------------------------------------------------------------------------

def _theorem1_side_gen(residue: int, side: int, memo: dict) -> Callable[[int], int]:
    """One side of the theorem1 identity at K = 4l + residue.

    ``memo`` maps K to both sides, so the two generators of one residue
    evaluate the identity once per K.
    """
    def gen(l: int) -> int:
        K = 4 * l + residue
        if K not in memo:
            memo[K] = cf.theorem1_identity_sides(K)
        return memo[K][side]

    return gen


def _prove_specs(table: MomentTable) -> dict[str, list[tuple]]:
    """claim id -> list of (name, lhs, rhs, spec) certification jobs.

    The first-moment identities live on the 10-element signed root set; the
    parity-split third-moment identities on the 9-element even-power set.
    The denominator-free Q-difference identity splits modulo 4: the even
    residues need the 21-element set {phi^(4l): |l| <= 10}, the odd
    residues the 22-element set {phi^(2l): l odd, |l| <= 21} (their
    characteristic roots sit at odd multiples of phi^2).
    """
    signed2 = RootSetSpec(SIGNED_PHI_POWERS, 2)
    even4 = RootSetSpec(EVEN_PHI_POWERS, 4)
    quartic10 = RootSetSpec(QUARTIC_PHI_POWERS, 10)
    twice_odd21 = RootSetSpec(TWICE_ODD_PHI_POWERS, 21)
    sides: dict[int, tuple[int, int]] = {}  # lives as long as these jobs
    return {
        "lemma2": [
            ("lemma2/A", lambda k: table.a(k, 1, 0), cf.lemma2_a, signed2),
            ("lemma2/Aprime", lambda k: table.a(k, 1, 0, True), cf.lemma2_a_prime, signed2),
        ],
        "lemma3": [
            (
                "lemma3/even",
                lambda k: table.a(2 * k, 3, 0),
                lambda k: cf.lemma3_a3(2 * k),
                even4,
            ),
            (
                "lemma3/odd",
                lambda k: table.a(2 * k - 1, 3, 0),
                lambda k: cf.lemma3_a3(2 * k - 1),
                even4,
            ),
        ],
        "lemma4": [
            (
                "lemma4/even",
                lambda k: table.a(2 * k, 3, 0, True),
                lambda k: cf.lemma4_a_prime3(2 * k),
                even4,
            ),
            (
                "lemma4/odd",
                lambda k: table.a(2 * k - 1, 3, 0, True),
                lambda k: cf.lemma4_a_prime3(2 * k - 1),
                even4,
            ),
        ],
        "theorem1": [
            ("theorem1/mod4=0", _theorem1_side_gen(0, 0, sides),
             _theorem1_side_gen(0, 1, sides), quartic10),
            ("theorem1/mod4=1", _theorem1_side_gen(1, 0, sides),
             _theorem1_side_gen(1, 1, sides), twice_odd21),
            ("theorem1/mod4=2", _theorem1_side_gen(2, 0, sides),
             _theorem1_side_gen(2, 1, sides), quartic10),
            ("theorem1/mod4=3", _theorem1_side_gen(3, 0, sides),
             _theorem1_side_gen(3, 1, sides), twice_odd21),
        ],
    }


PROVABLE_CLAIMS = ("lemma2", "lemma3", "lemma4", "theorem1")


def prove_claim(claim: str, extra_window: int | None = None) -> list[Certificate]:
    """Run the finite certification for a registered claim.

    Returns one Certificate per branch (parity class or residue class).
    """
    if claim not in PROVABLE_CLAIMS:
        raise ValueError(
            f"claim {claim!r} has no registered root-set spec; "
            f"provable claims: {', '.join(PROVABLE_CLAIMS)}"
        )
    table = MomentTable()
    jobs = _prove_specs(table)[claim]
    return [
        certify_identity(name, lhs, rhs, spec, extra_window)
        for name, lhs, rhs, spec in jobs
    ]

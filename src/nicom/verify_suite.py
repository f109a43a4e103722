"""End-to-end verification and certification of the moment-sum identities.

Each claim of the paper is one ``Claim`` in ``CLAIMS``: its index ranges,
the engines it supports, one row function ``rows(index, engine)`` that
yields the exact (lhs, rhs) pairs, ints or Fractions, compared at an index
on any of them and, for lemma2/3/4 and theorem1, its certification jobs,
which read the same sides.  ``verify_claim`` evaluates a claim index by
index with the requested engines and reports exact equality;
``prove_claim`` runs the finite recurrence certification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable

from . import closed_forms as cf
from . import qratio
from .decimal_text import exact_str
from .fib_lucas import fib, fib_minus_one_factors, lucas
from .moment_sums import BruteForceGuardError, Moment, MomentTable, make_engine
from .recurrence_prover import (
    QUARTIC_PHI_POWERS,
    SIGNED_PHI_POWERS,
    EVEN_PHI_POWERS,
    TWICE_ODD_PHI_POWERS,
    Certificate,
    RootSetSpec,
    certify_identity,
)


@dataclass
class IndexResult:
    """One compared pair at one index.

    ``lhs`` and ``rhs`` hold the exact values compared, ints or Fractions;
    they turn into decimal text only where they are printed.
    """

    index: int
    lhs: int | Fraction
    rhs: int | Fraction
    skipped: bool = False  # always False, as a guard trip adds no row; perfbench's tracer reads it


@dataclass
class ClaimReport:
    claim: str
    range: tuple[int, int]
    engines: tuple[str, ...]
    verdict: str
    skipped: list[int]  # [first, last] index the brute-force guard cut short, or []
    rows: list[IndexResult] = field(repr=False, default_factory=list)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def failures(self) -> list[dict]:
        """The unequal rows, each side as exact decimal text."""
        return [{"index": r.index, "lhs": exact_str(r.lhs), "rhs": exact_str(r.rhs)}
                for r in self.rows if r.lhs != r.rhs]

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "range": list(self.range),
            "engines": list(self.engines),
            "verdict": self.verdict,
            "failures": self.failures,
            "skipped": self.skipped,
        }


@dataclass(frozen=True)
class Claim:
    """One claim: the indices it is checked at, its engines, its certification.

    ``rows(index, engine)`` yields the exact (lhs, rhs) pairs, ints or
    Fractions, that one engine compares at an index; an engine that is the
    right-hand side, as the closed engine is in a lemma, is not one the
    claim supports.
    ``supported`` names the engines the claim runs on, ``engines`` the ones
    it runs by default.  ``prove`` is None for a claim without a root-set
    spec; otherwise ``prove()`` lists the (name, sides, spec) certification
    jobs, where ``sides(i)`` is the pair (lhs_i, rhs_i) at index i, read
    from the same function as the rows.
    """

    first: int  # first index
    kmax: int  # last index by default
    deep_kmax: int  # last index with --deep
    rows: Callable[[int, object], Iterable[tuple]]  # (index, engine) -> exact pairs
    supported: tuple[str, ...]
    engines: tuple[str, ...]
    prove: Callable[[], list[tuple]] | None = None


def _lemma_rows(k, engine, moments):
    return zip(engine.at(k, moments), cf.ClosedEngine().at(k, moments))


def _lemma(kmax: int, moments: list[Moment], spec: RootSetSpec, split: bool = False) -> Claim:
    """A lemma: each of ``moments`` at k equals its closed form.

    The closed forms are the right-hand side, and the brute and recursive
    engines each compare their sums with them.  Certification takes each
    moment as one sequence in k, or with ``split`` as its even and odd
    subsequences k -> 2k, 2k - 1; each term is that moment's row on the
    recursive engine, one table per prove run.
    """
    def prove():
        table = MomentTable()

        def job(name, mo, at):
            return name, lambda k: next(_lemma_rows(at(k), table, [mo])), spec

        if split:
            (mo,) = moments
            return [job("even", mo, lambda k: 2 * k), job("odd", mo, lambda k: 2 * k - 1)]
        return [job("Aprime" if mo.prime else "A", mo, lambda k: k) for mo in moments]

    supported = ("brute", "recursive")
    return Claim(1, kmax, kmax, lambda k, engine: _lemma_rows(k, engine, moments),
                 supported, supported, prove)


def _theorem1_jobs() -> list[tuple]:
    """The denominator-free Q-difference identity, split modulo 4.

    The even residues need the 21-element set {phi^(4l): |l| <= 10}, the
    odd residues the 22-element set {phi^(2l): l odd, |l| <= 21} (their
    characteristic roots sit at odd multiples of phi^2).
    """
    quartic10 = RootSetSpec(QUARTIC_PHI_POWERS, 10)
    twice_odd21 = RootSetSpec(TWICE_ODD_PHI_POWERS, 21)
    return [(f"mod4={r}", lambda l, r=r: qratio.theorem1_identity_sides(4 * l + r),
             twice_odd21 if r % 2 else quartic10) for r in range(4)]


def _theorem1_rows(K, engine):
    return [qratio.theorem1_identity_sides(K, engine)]


def _fact_rows(l, engine):
    for n in range(4 * l, 4 * l + 4):
        f, lu = fib_minus_one_factors(n)
        yield f * lu, fib(n) - 1
    yield gcd(lucas(2 * l + 1), lucas(2 * l + 2)), 1


_THEOREM6_MOMENTS = (Moment(1), Moment(1, prime=True))  # A(2k, 1), A'(2k, 1)

# Claim(first, kmax, deep_kmax, rows, supported engines, default engines,
# prove).  Rows look their sides up in ``cf`` and ``qratio`` when they run,
# so a rebinding of one reaches every claim and job that reads it.
CLAIMS: dict[str, Claim] = {
    # the first moments certify on the 10-element signed root set
    "lemma2": _lemma(10, [Moment(1), Moment(1, prime=True)], RootSetSpec(SIGNED_PHI_POWERS, 2)),
    # the third moments split by parity, 9 indices per class by default, and
    # certify on the 9-element even-power set
    "lemma3": _lemma(18, [Moment(3)], RootSetSpec(EVEN_PHI_POWERS, 4), split=True),
    "lemma4": _lemma(18, [Moment(3, prime=True)], RootSetSpec(EVEN_PHI_POWERS, 4), split=True),
    # Q(phi^2, F_K - 1) - Q(phi, F_K - 1) from each engine's moments against the
    # closed value, cross-multiplied to integers
    "theorem1": Claim(3, 30, 100, _theorem1_rows, ("brute", "recursive", "closed"),
                      ("recursive", "closed"), _theorem1_jobs),
    "theorem6": Claim(1, 60, 60, lambda k, engine: [
                          (lcm(*engine.at(2 * k, _THEOREM6_MOMENTS)), cf.theorem6_rhs(k))],
                      ("brute", "closed"), ("closed",)),
    # theorem1's identity at K = 4l
    "case4l": Claim(1, 21, 100, lambda l, engine: _theorem1_rows(4 * l, engine),
                    ("recursive", "closed"), ("closed",)),
    # sum n^3 against (sum n)^2 over n = 1..m
    "nicomachus": Claim(1, 1000, 1000, lambda m, engine: [qratio.nicomachus_sides(m, engine)],
                        ("brute",), ("brute",)),
    "fact-identities": Claim(1, 50, 50, _fact_rows, ("closed",), ("closed",)),
}


def verify_claim(
    claim: str,
    k_max: int | None = None,
    engines: Iterable[str] | None = None,
    deep: bool = False,
) -> ClaimReport:
    """Check one claim index by index; exact equality at every index.

    An engine the claim does not support, or one listed twice, is a
    ValueError.  The verdict is "fail" on any unequal row, "inconclusive"
    when no row checked has a nonzero side (no row at all, only the empty
    sums at k <= 2, or only those the brute-force guard left), and "pass"
    otherwise.
    """
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; known: {', '.join(CLAIMS)}")
    entry = CLAIMS[claim]
    lo = entry.first
    if k_max is None:
        k_max = entry.deep_kmax if deep else entry.kmax
    engines = entry.engines if engines is None else tuple(engines)
    live = {}  # name -> engine, one per requested name, until it trips the guard
    for eng in engines:
        live[eng] = make_engine(eng, entry.supported, f" for {claim}")
        if engines.count(eng) > 1:
            raise ValueError(f"engine {eng!r} is listed more than once for {claim}")
    if k_max < lo:
        raise ValueError(f"{claim}: empty index range {lo}..{k_max}; nothing to check")

    rows: list[IndexResult] = []
    skipped: list[int] = []
    # an engine that tripped the brute-force guard would trip at every later
    # index too, as each brute row's m (F_k - 1, F_2k - 1 or m) grows with the
    # index: it is not called again, and the sweep ends once all have tripped
    for idx in range(lo, k_max + 1):
        for eng, engine in list(live.items()):
            try:
                pairs = list(entry.rows(idx, engine))
            except BruteForceGuardError:
                del live[eng]
                skipped = skipped or [idx, k_max]
                continue
            rows += (IndexResult(idx, lhs, rhs) for lhs, rhs in pairs)
        if not live:
            break
    if any(r.lhs != r.rhs for r in rows):
        verdict = "fail"
    elif all(r.lhs == 0 and r.rhs == 0 for r in rows):
        verdict = "inconclusive"  # only empty sums were compared
    else:
        verdict = "pass"
    return ClaimReport(
        claim=claim,
        range=(lo, k_max),
        engines=engines,
        verdict=verdict,
        skipped=skipped,
        rows=rows,
    )


def prove_claim(claim: str, extra_window: int | None = None) -> list[Certificate]:
    """Run the finite certification for a registered claim.

    Returns one Certificate per branch (moment, parity class or residue
    class), named under the claim.
    """
    entry = CLAIMS.get(claim)
    if entry is None or entry.prove is None:
        provable = [c for c, e in CLAIMS.items() if e.prove]
        raise ValueError(
            f"claim {claim!r} has no registered root-set spec; "
            f"provable claims: {', '.join(provable)}"
        )
    return [
        certify_identity(f"{claim}/{name}", sides, spec, extra_window)
        for name, sides, spec in entry.prove()
    ]

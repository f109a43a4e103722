"""End-to-end verification and certification of the moment-sum identities.

Each claim of the paper is one ``Claim`` in ``CLAIMS``: its index ranges,
the engines it supports, one row function ``rows(index, engine, closed)``
that yields the exact (lhs, rhs) pairs of ints compared at an index on
any of them and, for lemma2/3/4 and theorem1, its certification sections,
sequences of pairs read from the same rows.  ``verify_claim`` evaluates a
claim index by index with the requested engines and reports exact
equality; ``prove_claim`` certifies each section by a finite check.  Each
call builds its own closed engine, apart from the engines it sweeps, which
every row reads its closed side from, so a sweep's closed values step along
that engine's Fibonacci walks, one per index stream.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Callable, Iterable, NamedTuple

from . import closed_forms as cf
from . import qratio
from .decimal_text import decimal_str
from .moment_sums import BruteForceGuardError, Moment, make_engine
from .recurrence_prover import (
    QUARTIC_PHI_POWERS,
    SIGNED_PHI_POWERS,
    EVEN_PHI_POWERS,
    TWICE_ODD_PHI_POWERS,
    Certificate,
    RootSetSpec,
    certify_identity,
    term_count,
)


class IndexResult(NamedTuple):
    """One compared pair at one index.

    ``lhs`` and ``rhs`` hold the exact ints compared; they turn into
    decimal text only where they are printed.
    """

    index: int
    lhs: int
    rhs: int
    skipped: bool = False  # always False, as a guard trip adds no row; perfbench's tracer reads it


class ClaimReport(NamedTuple):
    claim: str
    range: tuple[int, int]
    engines: tuple[str, ...]
    verdict: str
    skipped: list[int]  # [first, last] index the brute-force guard cut short, or []
    rows: list[IndexResult]

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def failures(self) -> list[dict]:
        """The unequal rows, each side as exact decimal text."""
        return [{"index": r.index, "lhs": decimal_str(r.lhs), "rhs": decimal_str(r.rhs)}
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


class Section(NamedTuple):
    """One certified sequence: term i is pair ``pair`` of ``rows(a*i + b, engine, closed)``."""

    name: str
    spec: RootSetSpec
    a: int = 1
    b: int = 0
    pair: int = 0


class Claim(NamedTuple):
    """One claim: the indices it is checked at, its engines, its certification.

    ``rows(index, engine, closed)`` yields the exact (lhs, rhs) pairs of
    ints that one engine compares at an index, and reads every closed-form
    side from ``closed``, the call's own ``ClosedEngine``; an engine that is
    the right-hand side, as the closed engine is in a lemma, is not one the
    claim supports.
    ``supported`` names the engines the claim runs on, in ``ENGINES`` order,
    slowest first, and ``engines`` the ones it runs by default.  ``prove``
    certifies each of ``sections`` from the rows of the last, fastest,
    supported engine; a claim without sections cannot be proved.
    """

    first: int  # first index
    kmax: int  # last index by default
    deep_kmax: int  # last index with --deep
    # (index, engine, closed) -> exact pairs
    rows: Callable[[int, object, cf.ClosedEngine], Iterable[tuple]]
    supported: tuple[str, ...]
    engines: tuple[str, ...]
    sections: tuple[Section, ...] = ()


def _lemma_rows(k, engine, closed, moments):
    return zip(engine.at(k, moments), closed.at(k, moments))


def _lemma(kmax: int, moments: list[Moment], sections: tuple[Section, ...]) -> Claim:
    """A lemma: each of ``moments`` at k equals its closed form.

    The closed forms are the right-hand side, and the brute and recursive
    engines each compare their sums with them.
    """
    supported = ("brute", "recursive")
    return Claim(1, kmax, kmax, lambda k, engine, closed: _lemma_rows(k, engine, closed, moments),
                 supported, supported, sections)


def _theorem1_rows(K, engine, closed):
    return [qratio.theorem1_identity_sides(K, engine, closed)]


def _theorem6_rows(k, engine, closed):
    return [(lcm(*engine.at(2 * k, _THEOREM6_MOMENTS)), closed.theorem6_rhs(k))]


_THEOREM6_MOMENTS = (Moment(1), Moment(1, prime=True))  # A(2k, 1), A'(2k, 1)


def _nicomachus_rows(m, engine, closed):
    cubes, plain = engine.sums(m, _NICOMACHUS_MOMENTS)
    return [(cubes, plain * plain)]


_NICOMACHUS_MOMENTS = (Moment(0, 3), Moment(0, 1))  # sum n^3, sum n over n = 1..m


def _fact_rows(l, engine, closed):
    lucas = []  # L_{2l-1}, L_{2l+1}, L_{2l+2}, L_{2l+1}: the Lucas factors of F_n - 1
    for n in range(4 * l, 4 * l + 4):
        f, lu = closed.fib_minus_one_factors(n)
        lucas.append(lu)
        yield f * lu, closed.at(n, [Moment(0)])[0]
    yield gcd(lucas[1], lucas[2]), 1


_SIGNED2, _EVEN4 = RootSetSpec(SIGNED_PHI_POWERS, 2), RootSetSpec(EVEN_PHI_POWERS, 4)
_BY_PARITY = (Section("even", _EVEN4, 2), Section("odd", _EVEN4, 2, -1))
# theorem1 modulo 4: the even residues on the 21 roots {phi^(4l): |l| <= 10}, the odd
# ones on the 22 roots {phi^(2l): l odd, |l| <= 21}, as theirs sit at odd multiples of phi^2
_MOD4 = tuple(Section(f"mod4={r}", RootSetSpec(TWICE_ODD_PHI_POWERS, 21) if r % 2
                      else RootSetSpec(QUARTIC_PHI_POWERS, 10), 4, r) for r in range(4))

# Claim(first, kmax, deep_kmax, rows, supported engines, default engines,
# sections).  Rows look their sides up in ``qratio`` and on ``ClosedEngine``
# when they run, so a rebinding of one reaches every claim and section that
# reads it.
CLAIMS: dict[str, Claim] = {
    # the first moments certify on the 10-element signed root set
    "lemma2": _lemma(10, [Moment(1), Moment(1, prime=True)],
                     (Section("A", _SIGNED2), Section("Aprime", _SIGNED2, pair=1))),
    # the third moments split by parity, k -> 2k and 2k - 1, 9 indices per
    # class by default, and certify on the 9-element even-power set
    "lemma3": _lemma(18, [Moment(3)], _BY_PARITY),
    "lemma4": _lemma(18, [Moment(3, prime=True)], _BY_PARITY),
    # Q(phi^2, F_K - 1) - Q(phi, F_K - 1) from each engine's moments against the
    # closed value, cross-multiplied to integers
    "theorem1": Claim(3, 30, 100, _theorem1_rows, ("brute", "recursive", "closed"),
                      ("recursive", "closed"), _MOD4),
    "theorem6": Claim(1, 60, 60, _theorem6_rows, ("brute", "closed"), ("closed",)),
    # theorem1's identity at K = 4l
    "case4l": Claim(1, 21, 100, lambda l, engine, closed: _theorem1_rows(4 * l, engine, closed),
                    ("recursive", "closed"), ("closed",)),
    # sum n^3 against (sum n)^2 over n = 1..m
    "nicomachus": Claim(1, 1000, 1000, _nicomachus_rows, ("brute",), ("brute",)),
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
    closed = cf.ClosedEngine()

    rows: list[IndexResult] = []
    skipped: list[int] = []
    # an engine that tripped the brute-force guard would trip at every later
    # index too, as each brute row's m (F_k - 1, F_2k - 1 or m) grows with the
    # index: it is not called again, and the sweep ends once all have tripped
    for idx in range(lo, k_max + 1):
        for eng, engine in list(live.items()):
            try:
                pairs = list(entry.rows(idx, engine, closed))
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

    Returns one Certificate per section (moment, parity class or residue
    class), named under the claim.  Each index's row is read once, in one
    ascending pass over the indices of every section.
    """
    entry = CLAIMS.get(claim)
    if entry is None or not entry.sections:
        provable = [c for c, e in CLAIMS.items() if e.sections]
        raise ValueError(
            f"claim {claim!r} has no registered root-set spec; "
            f"provable claims: {', '.join(provable)}"
        )
    engine = make_engine(entry.supported[-1])
    closed = cf.ClosedEngine()
    # every section's indices in one ascending pass, so a sweeping engine never reads behind
    # itself; each row is a tuple of its pairs, which gc can untrack
    wanted = {a * i + b for _, spec, a, b, _ in entry.sections
              for i in range(1, term_count(spec, extra_window) + 1)}
    read = {k: tuple(entry.rows(k, engine, closed)) for k in sorted(wanted)}
    return [certify_identity(f"{claim}/{name}", lambda i, a=a, b=b, p=p: read[a * i + b][p],
                             spec, extra_window)
            for name, spec, a, b, p in entry.sections]

"""Seeded request lists for the four benchmark workloads.

A request is one argv list for ``nicom.cli.main`` plus an ``expect`` record
that tells the checker what a correct reply is.  The same (workload, seed)
always yields the identical list: every draw comes from one
``random.Random`` seeded with a string, which does not depend on hash
randomization.

Parameters are drawn stratified: a range is cut into equal cells and each
cell gets one draw from its middle tenth.  So every seed covers the whole
range the same way, and the latency percentiles, which often sit where
cost rises steeply with k, do not move with the seed.  Requests are
ordered by the radical inverse of their stratum, which spreads each
template over the whole list.
"""

from __future__ import annotations

import random

WORKLOADS = ("compute-rec", "compute-closed", "verify-prove", "brute")

# compute-closed draws k from these grids; closed_refs.json holds one
# independent reference per (sum, k, s) on them.  The odd steps cover every
# residue of k modulo 4, on which the closed forms branch.
CLOSED_SMALL_GRID = tuple(range(1000, 5001, 19))
CLOSED_LARGE_GRID = tuple(range(20000, 100001, 1999))
CLOSED_COMBOS = tuple((kind, s) for kind in ("A", "Aprime") for s in (0, 1, 3))

# Index range each verify claim covers at its default and --deep settings.
DEFAULT_RANGES = {
    "lemma2": (1, 10),
    "lemma3": (1, 18),
    "lemma4": (1, 18),
    "theorem1": (3, 30),
    "theorem6": (1, 60),
    "case4l": (1, 21),
    "nicomachus": (1, 1000),
    "fact-identities": (1, 50),
}
DEEP_RANGES = {**DEFAULT_RANGES, "theorem1": (3, 100), "case4l": (1, 100)}


def ref_key(sum_kind: str, k: int, s: int) -> str:
    return f"{sum_kind}/{s}/{k}"


def _radical_inverse(i: int) -> float:
    out, base = 0.0, 0.5
    while i:
        if i & 1:
            out += base
        i >>= 1
        base /= 2
    return out


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[int]:
    """One integer draw in each of n equal cells of [lo, hi), from the cell's middle tenth."""
    width = (hi - lo) / n
    return [int(lo + width * (i + 0.45 + 0.1 * rng.random())) for i in range(n)]


def _from_grid(rng: random.Random, grid, n: int) -> list[int]:
    """One draw from each of n equal slices of a sorted grid."""
    return [grid[i] for i in _stratified(rng, 0, len(grid), n)]


def _interleave(rng: random.Random, series: list[list[dict]]) -> list[dict]:
    """Merge per-template request series, spreading each over the whole list."""
    keyed = []
    for requests in series:
        for i, req in enumerate(requests):
            keyed.append((_radical_inverse(i), rng.random(), req))
    keyed.sort(key=lambda item: item[:2])
    return [req for _, _, req in keyed]


def _compute(sum_kind: str, k: int, s: int, engine: str, ref: str) -> dict:
    return {
        "argv": ["compute", "--sum", sum_kind, "--k", str(k), "--s", str(s), "--engine", engine],
        "expect": {"kind": "value", "sum": sum_kind, "k": k, "s": s, "ref": ref},
    }


def _bench(k: int, s: int, engine: str, ref: str) -> dict:
    return {
        "argv": ["bench", "--k", str(k), "--s", str(s), "--engine", engine],
        "expect": {"kind": "digest", "sum": "A", "k": k, "s": s, "engine": engine, "ref": ref},
    }


def _verify(claim: str, kmax: int | None = None, engines: str | None = None,
            deep: bool = False) -> dict:
    argv = ["verify", "--claim", claim, "--format", "json"]
    if kmax is None:
        lo, hi = (DEEP_RANGES if deep else DEFAULT_RANGES)[claim]
    else:
        lo, hi = DEFAULT_RANGES[claim][0], kmax
        argv += ["--kmax", str(kmax)]
    if engines is not None:
        argv += ["--engines", engines]
    if deep:
        argv.append("--deep")
    return {
        "argv": argv,
        "expect": {"kind": "verify", "claim": claim, "range": [lo, hi],
                   "engines": engines.split(",") if engines else None},
    }


def _prove(claim: str, window: int | None = None) -> dict:
    argv = ["prove", "--claim", claim, "--format", "json"]
    if window is not None:
        argv += ["--window", str(window)]
    return {"argv": argv, "expect": {"kind": "prove", "claim": claim, "window": window}}


def _compute_rec(rng: random.Random) -> list[dict]:
    # With equal groups the median would sit where the s = 1 and s = 3
    # latencies meet; with 24 draws per s = 3 template to 10 per s = 1
    # template it falls inside the s = 3 group, where latency varies
    # smoothly with k.
    series = []
    for s, draws in ((1, 10), (3, 24)):
        for sum_kind in ("A", "Aprime"):
            series.append([_compute(sum_kind, k, s, "rec", "closed_forms")
                           for k in _stratified(rng, 300, 901, draws)])
        series.append([_bench(k, s, "rec", "closed_forms")
                       for k in _stratified(rng, 300, 901, draws)])
    return _interleave(rng, series)


def _compute_closed(rng: random.Random) -> list[dict]:
    # Per template, 19 draws from 10^3..5*10^3 and one from 2*10^4..10^5.
    # The nine large draws are stratified jointly, one to each template in
    # turn, so every seed spends the same time on them.
    large = _from_grid(rng, CLOSED_LARGE_GRID, 9)
    templates = [("compute", kind, s) for kind, s in CLOSED_COMBOS]
    templates += [("bench", "A", s) for s in (0, 1, 3)]
    series = []
    for (command, sum_kind, s), big in zip(templates, large):
        ks = _from_grid(rng, CLOSED_SMALL_GRID, 19) + [big]
        if command == "compute":
            series.append([_compute(sum_kind, k, s, "closed", "table") for k in ks])
        else:
            series.append([_bench(k, s, "closed", "table") for k in ks])
    return _interleave(rng, series)


def _verify_prove(rng: random.Random) -> list[dict]:
    series = [[_verify(claim, deep=deep) for deep in (False, True)] for claim in DEFAULT_RANGES]
    for claim in ("lemma3", "lemma4", "theorem1"):
        series.append([_verify(claim, kmax, "recursive") for kmax in _stratified(rng, 50, 251, 10)])
    for claim, lo, hi in (("case4l", 100, 351), ("theorem6", 100, 401), ("theorem1", 50, 301)):
        series.append([_verify(claim, kmax, "closed") for kmax in _stratified(rng, lo, hi, 10)])
    for claim in ("lemma2", "lemma3", "lemma4", "theorem1"):
        windows = [None, None] + _stratified(rng, 20, 101, 4)
        series.append([_prove(claim, w) for w in windows])
    return _interleave(rng, series)


def _brute(rng: random.Random) -> list[dict]:
    # Cells of a third or a half of an integer: every seed draws each k and
    # kmax equally often, as latency clusters by k here.
    series = []
    for claim in ("lemma2", "lemma3", "lemma4"):
        series.append([_verify(claim, kmax, "brute") for kmax in _stratified(rng, 20, 24, 12)])
    series.append([_verify("theorem1", kmax, "brute") for kmax in _stratified(rng, 19, 23, 12)])
    for s in (1, 3):
        for sum_kind in ("A", "Aprime"):
            series.append([_compute(sum_kind, k, s, "brute", "closed_forms")
                           for k in _stratified(rng, 18, 27, 18)])
    return _interleave(rng, series)


_GENERATORS = {
    "compute-rec": _compute_rec,
    "compute-closed": _compute_closed,
    "verify-prove": _verify_prove,
    "brute": _brute,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The request list of one workload run."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))

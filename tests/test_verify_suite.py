import importlib.util
import json
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nicom import closed_forms as cf
from nicom.cli import canonical_json
from nicom.moment_sums import ENGINES, Moment, MomentTable, make_engine
from nicom.verify_suite import CLAIMS, ClaimReport, IndexResult, prove_claim, verify_claim

PROVABLE_CLAIMS = [claim for claim, entry in CLAIMS.items() if entry.sections]


@pytest.mark.parametrize("claim", list(CLAIMS))
def test_every_registered_claim_passes_at_defaults(claim):
    report = verify_claim(claim)
    assert report.passed, report.failures


def test_unknown_claim_rejected():
    with pytest.raises(ValueError, match="unknown claim"):
        verify_claim("lemma9")
    with pytest.raises(ValueError, match="unknown engine"):
        verify_claim("lemma2", engines=("magic",))


@pytest.mark.parametrize("claim, engine", [
    (claim, engine) for claim, entry in CLAIMS.items() for engine in entry.supported])
def test_every_supported_engine_checks_the_claim_alone(claim, engine):
    k_max = min(CLAIMS[claim].kmax, 12)
    report = verify_claim(claim, k_max=k_max, engines=(engine,))
    assert report.engines == (engine,)
    assert not report.skipped
    assert report.passed, report.failures
    assert {r.index for r in report.rows} == set(range(CLAIMS[claim].first, k_max + 1))


@pytest.mark.parametrize("claim, engine", [
    (claim, engine) for claim, entry in CLAIMS.items() for engine in entry.supported])
def test_rows_are_exact_pairs_never_bools(claim, engine):
    entry = CLAIMS[claim]
    for index in range(entry.first, entry.first + 3):
        pairs = list(entry.rows(index, make_engine(engine), cf.ClosedEngine()))
        assert pairs, index
        for pair in pairs:
            assert len(pair) == 2, (index, pair)
            # type, not isinstance: a bool is an int
            assert all(type(side) is int for side in pair), (index, pair)


# the claims whose rows read a closed-form side
CLOSED_SIDE_CLAIMS = ["lemma2", "lemma3", "lemma4", "theorem1", "case4l", "theorem6",
                      "fact-identities"]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_rows_through_one_closed_engine_equal_fresh_ones(data):
    claim = data.draw(st.sampled_from(CLOSED_SIDE_CLAIMS))
    entry = CLAIMS[claim]
    name = data.draw(st.sampled_from([e for e in entry.supported if e != "brute"]))
    indices = data.draw(st.lists(st.integers(entry.first, entry.first + 150), max_size=12))
    # one closed engine for the whole sweep, apart from the swept engine even when it runs closed
    engine, closed = make_engine(name), cf.ClosedEngine()
    for index in indices:
        assert list(entry.rows(index, engine, closed)) == list(
            entry.rows(index, make_engine(name), cf.ClosedEngine())), (claim, name, index)


@pytest.mark.parametrize("claim", list(CLAIMS))
def test_supported_engines_keep_the_registry_order(claim):
    # prove reads the last supported engine as the claim's fastest
    order = iter(ENGINES)
    assert all(engine in order for engine in CLAIMS[claim].supported)


def test_unsupported_engine_names_the_supported_ones():
    with pytest.raises(ValueError, match="unknown engine 'recursive' for theorem6; "
                                         "supported: brute, closed"):
        verify_claim("theorem6", engines=("recursive",))


def test_ranges_match_the_benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert {c: (e.first, e.kmax) for c, e in CLAIMS.items()} == workloads.DEFAULT_RANGES
    assert {c: (e.first, e.deep_kmax) for c, e in CLAIMS.items()} == workloads.DEEP_RANGES


def test_readme_claims_table_matches_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 6 and cells[0].strip("`") in CLAIMS:
            claim, first, kmax, deep_kmax, engines, provable = cells
            names = engines.split(", ")
            table[claim.strip("`")] = (
                int(first), int(kmax), int(deep_kmax),
                tuple(n.strip("*") for n in names),
                tuple(n.strip("*") for n in names if n.startswith("**")),
                provable.split(",")[0])
    assert table == {c: (e.first, e.kmax, e.deep_kmax, e.supported, e.engines,
                         "yes" if e.sections else "no") for c, e in CLAIMS.items()}


def test_theorem1_sweep_fills_one_table(monkeypatch):
    tables = []
    init = MomentTable.__init__

    def counted(self):
        init(self)
        tables.append(self)

    monkeypatch.setattr(MomentTable, "__init__", counted)
    assert verify_claim("theorem1", k_max=60, engines=("recursive",)).passed
    monkeypatch.undo()
    cold = MomentTable()
    cold.a(60, 3, 0, False)
    cold.a(60, 3, 0, True)
    assert len(tables) == 1
    assert len(tables[0]) == len(cold)


def test_lemma2_brute_and_closed():
    """The brute sums against the closed right-hand side, to k = 25."""
    report = verify_claim("lemma2", k_max=25, engines=("brute",))
    assert report.passed
    assert report.range == (1, 25)
    assert not report.skipped


def test_theorem6_closed_to_depth_40():
    report = verify_claim("theorem6", k_max=40, engines=("closed",))
    assert report.passed


def test_nicomachus_to_100():
    assert verify_claim("nicomachus", k_max=100).passed


def test_deep_extends_case4l_range():
    report = verify_claim("case4l", deep=True)
    assert report.range == (1, 100)
    assert report.passed


def test_guard_exceeded_marks_skips():
    report = verify_claim("lemma2", k_max=35, engines=("brute",))
    assert report.skipped == [31, 35]  # F_31 - 1 exceeds the 10^6 term guard
    assert report.passed  # skipped indices are not failures
    assert not any(r.skipped for r in report.rows)  # a trip adds no row


def test_report_dict_schema():
    report = verify_claim("lemma2", k_max=5)
    d = report.to_dict()
    assert set(d) == {
        "claim", "range", "engines", "verdict", "failures", "skipped",
    }
    assert d["verdict"] == "pass"
    assert d["failures"] == []


def test_report_dict_renders_each_unequal_row_as_exact_text():
    rows = [IndexResult(1, 2, 3), IndexResult(2, 7, 7), IndexResult(3, -1, 5)]
    report = ClaimReport("c", (1, 3), ("brute", "recursive"), "fail", [3, 3], rows)
    assert report.to_dict() == {
        "claim": "c", "range": [1, 3], "engines": ["brute", "recursive"], "verdict": "fail",
        "failures": [{"index": 1, "lhs": "2", "rhs": "3"},
                     {"index": 3, "lhs": "-1", "rhs": "5"}],
        "skipped": [3, 3]}


def test_claims_reject_attribute_assignment():
    with pytest.raises(AttributeError):
        CLAIMS["lemma2"].kmax = 11
    assert CLAIMS["lemma2"].kmax == 10


def test_reports_are_deterministic():
    a = canonical_json(verify_claim("theorem1", k_max=20).to_dict())
    b = canonical_json(verify_claim("theorem1", k_max=20).to_dict())
    assert a == b
    # round-trip: parse and re-serialize is byte-identical
    assert canonical_json(json.loads(a)) == a


def test_prove_registry():
    with pytest.raises(ValueError, match="no registered root-set spec"):
        prove_claim("nicomachus")


@pytest.mark.parametrize("claim", PROVABLE_CLAIMS)
def test_prove_certifies(claim):
    certs = prove_claim(claim)
    assert certs
    assert all(c.certified for c in certs)


def test_prove_degrees():
    assert [c.degree for c in prove_claim("lemma2")] == [10, 10]
    assert [c.degree for c in prove_claim("lemma3")] == [9, 9]
    assert [c.degree for c in prove_claim("lemma4")] == [9, 9]
    # even residue classes need 21 roots, odd residues 22 (their
    # characteristic roots sit at odd multiples of phi^2)
    degrees = {c.claim: c.degree for c in prove_claim("theorem1")}
    assert degrees == {
        "theorem1/mod4=0": 21,
        "theorem1/mod4=1": 22,
        "theorem1/mod4=2": 21,
        "theorem1/mod4=3": 22,
    }


@pytest.mark.parametrize("claim, names, closed_indices", [
    ("lemma2", ["lemma2/A", "lemma2/Aprime"],
     {Moment(1): range(1, 31), Moment(1, prime=True): range(1, 31)}),
    # k -> 2k and k -> 2k - 1 over 27 terms each: every index 1..54 once
    ("lemma3", ["lemma3/even", "lemma3/odd"], {Moment(3): range(1, 55)}),
    ("lemma4", ["lemma4/even", "lemma4/odd"], {Moment(3, prime=True): range(1, 55)}),
])
def test_lemma_certificates_cover_each_index_once(monkeypatch, claim, names, closed_indices):
    calls = defaultdict(list)  # moment -> the indices the closed engine evaluated it at
    at = cf.ClosedEngine.at

    def counted(self, k, moments):
        moments = list(moments)
        for mo in moments:
            calls[mo].append(k)
        return at(self, k, moments)

    monkeypatch.setattr(cf.ClosedEngine, "at", counted)
    assert [c.claim for c in prove_claim(claim)] == names
    assert {mo: sorted(ks) for mo, ks in calls.items()} == {
        mo: list(ks) for mo, ks in closed_indices.items()}


def test_prove_custom_window():
    certs = prove_claim("lemma4", extra_window=30)
    assert all(c.certified and c.window == 30 for c in certs)

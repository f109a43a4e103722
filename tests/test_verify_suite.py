import json

import pytest

from nicom.cli import canonical_json
from nicom.verify_suite import (
    CLAIM_IDS,
    PROVABLE_CLAIMS,
    prove_claim,
    verify_claim,
)


@pytest.mark.parametrize("claim", CLAIM_IDS)
def test_every_registered_claim_passes_at_defaults(claim):
    report = verify_claim(claim)
    assert report.passed, report.failures


def test_unknown_claim_rejected():
    with pytest.raises(ValueError, match="unknown claim"):
        verify_claim("lemma9")
    with pytest.raises(ValueError, match="unknown engine"):
        verify_claim("lemma2", engines=("magic",))


def test_lemma2_brute_and_closed():
    report = verify_claim("lemma2", k_max=25, engines=("brute", "closed"))
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
    assert report.skipped  # F_31 - 1 exceeds the 10^6 term guard
    assert report.passed  # skipped indices are not failures
    assert all(i > 30 for i in report.skipped)


def test_report_dict_schema():
    report = verify_claim("lemma2", k_max=5)
    d = report.to_dict()
    assert set(d) == {
        "claim", "range", "engines", "verdict", "failures", "skipped",
    }
    assert d["verdict"] == "pass"
    assert d["failures"] == []


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


def test_prove_custom_window():
    certs = prove_claim("lemma4", extra_window=30)
    assert all(c.certified and c.window == 30 for c in certs)

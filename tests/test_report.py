import json

import pytest

from shimura4.report import (
    Check,
    FAIL,
    FLAGGED,
    PASS,
    Suite,
    VerificationReport,
)


def test_check_status_validation():
    with pytest.raises(ValueError):
        Check("x", "maybe", "1", "1")


def test_check_equal_and_predicate():
    c = Check.equal("a", 5, 5)
    assert c.status == PASS
    c = Check.equal("a", 5, 6)
    assert c.status == FAIL
    c = Check.predicate("b", False, "yes", "no")
    assert c.status == FAIL


def test_counts_and_failed():
    a, b, c = Check("a", PASS, "1", "1"), Check("b", FLAGGED, "1", "2"), Check("c", FAIL, "1", "3")
    rep = VerificationReport("0.0.0", (Suite("s", (a, b)),))
    assert rep.counts() == {PASS: 1, FAIL: 0, FLAGGED: 1}
    assert not rep.failed
    rep = VerificationReport("0.0.0", (Suite("s", (a, b)), Suite("t", (c,))))
    assert rep.counts() == {PASS: 1, FAIL: 1, FLAGGED: 1}
    assert rep.failed


def test_json_shape_and_determinism():
    rep = VerificationReport("0.1.0", (Suite("s", (Check("a", PASS, "1", "1"),)),))
    j1 = rep.to_json()
    j2 = rep.to_json()
    assert j1 == j2
    doc = json.loads(j1)
    assert doc["version"] == "0.1.0"
    assert doc["suites"][0]["name"] == "s"
    check = doc["suites"][0]["checks"][0]
    assert set(check) == {"id", "status", "expected", "actual", "citation"}


def test_text_summary_line():
    s = Suite("s", (Check("a", PASS, "1", "1"), Check("b", FAIL, "1", "2")))
    text = VerificationReport("0.1.0", (s,)).to_text()
    assert text.splitlines()[-1] == "1 passed, 0 flagged, 1 failed"
    assert "[FAIL] b" in text


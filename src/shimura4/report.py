"""Structured pass/fail/flagged reporting for the verification CLI.

A Check compares an expected value against a recomputed one. Status
"flagged" marks items that are correct-with-caveat or recorded-but-not-
recomputed; they are surfaced prominently but do not fail a run. The JSON
form is deterministic: fixed key order, fixed separators, no timestamps.

Checks, suites and reports are records (`shimura4.record`), built once: a
suite holds a tuple of checks and a report a tuple of suites, so each one
compares and hashes by its contents.
"""

from __future__ import annotations

import json

from .record import Record

PASS = "pass"
FAIL = "fail"
FLAGGED = "flagged"

# citation values: how the expected side was obtained
RECOMPUTED = "recomputed here"      # derived independently by this package
GIVEN = "given value, not recomputed"  # recorded input, cross-checked only


class Check(Record):
    id: str
    status: str
    expected: str
    actual: str
    citation: str = RECOMPUTED

    def __post_init__(self):
        if self.status not in (PASS, FAIL, FLAGGED):
            raise ValueError(f"bad status {self.status!r}")

    @staticmethod
    def equal(check_id: str, expected, actual,
              citation: str = RECOMPUTED) -> "Check":
        return Check(check_id, PASS if expected == actual else FAIL,
                     str(expected), str(actual), citation)

    @staticmethod
    def predicate(check_id: str, ok: bool, expected: str, actual: str,
                  citation: str = RECOMPUTED) -> "Check":
        return Check(check_id, PASS if ok else FAIL, expected, actual, citation)


class Suite(Record):
    name: str
    checks: tuple       # (Check, ...)


class VerificationReport(Record):
    version: str
    suites: tuple       # (Suite, ...)

    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, FLAGGED: 0}
        for s in self.suites:
            for c in s.checks:
                out[c.status] += 1
        return out

    @property
    def failed(self) -> bool:
        return self.counts()[FAIL] > 0

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "suites": [
                {"name": s.name,
                 "checks": [
                     {"id": c.id, "status": c.status, "expected": c.expected,
                      "actual": c.actual, "citation": c.citation}
                     for c in s.checks]}
                for s in self.suites],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, separators=(",", ": "))

    def to_text(self) -> str:
        tag = {PASS: "[PASS]", FAIL: "[FAIL]", FLAGGED: "[FLAG]"}
        lines = []
        for s in self.suites:
            lines.append(f"== {s.name} ==")
            for c in s.checks:
                lines.append(f"  {tag[c.status]} {c.id}")
                lines.append(f"         expected: {c.expected}")
                lines.append(f"         actual:   {c.actual}")
                if c.citation != RECOMPUTED:
                    lines.append(f"         note:     {c.citation}")
            lines.append("")
        n = self.counts()
        lines.append(f"{n[PASS]} passed, {n[FLAGGED]} flagged, {n[FAIL]} failed")
        return "\n".join(lines)

"""The cm-tables suite: the bundled (or replacement) CM field tables for
x7 and x9, row by row, with the checksum of the bundled input."""

from __future__ import annotations

from .. import cmtables
from ..report import GIVEN, PASS, Check, Suite

BUNDLED_SHA = {
    7: "9fe02775fe804cd25bf61dda9b27379b9e845dcb51aa860e2f914412f2ed9263",
    9: "a660f9f6491960c0d19bcce61268ffb84dc9edcb0aebd5957d3c93967e9a525b",
}


def suite_cm_tables(opts) -> Suite:
    checks = []
    for n in (7, 9):
        rep = cmtables.verify_table(n, data_dir=opts.data_dir)
        bad = [f for f in rep.findings if not f.ok]
        checks += [
            Check.equal(f"row-count-x{n}", rep.expected_row_count, rep.row_count),
            Check.predicate(f"no-duplicate-rows-x{n}", not rep.duplicates,
                            "all field labels distinct",
                            f"{len(rep.duplicates)} duplicates"),
            Check.predicate(
                f"row-consistency-x{n}", not bad,
                f"{len(rep.findings)} checks over {rep.row_count} rows all pass",
                "all pass" if not bad
                else f"{len(bad)} failures, first: {bad[0].row} {bad[0].check}"),
        ]
        if opts.data_dir is None:
            checks.append(Check.equal(f"input-checksum-x{n}", BUNDLED_SHA[n],
                                      rep.checksum, citation=GIVEN))
        else:
            checks.append(Check(f"input-checksum-x{n}", PASS, "(custom data dir)",
                                rep.checksum, citation=GIVEN))
    return Suite("cm-tables", tuple(checks))

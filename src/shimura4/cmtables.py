"""Consistency checks for the two bundled tables of octic CM fields.

Each table row is (CM field label, discriminant factorization, label of the
field of definition). Labels follow the degree.realplaces.absdisc.index
convention. Everything checkable offline is checked:

- the absolute discriminant encoded in the label equals the product of the
  stated factorization, and an independent certified factorization of that
  integer reproduces the stated one;
- every exponent is divisible by 4; the base prime (7 for the first table,
  3 for the second) appears with the fixed exponent (4 resp. 8);
- every other prime is congruent to +-1 modulo 7 resp. 9;
- the CM field labels are octic and totally imaginary, the definition
  fields have degree divisible by 3 and a plausible signature;
- no duplicate rows, fixed row counts, and a pinned file checksum.
"""

from __future__ import annotations

import hashlib
import os

from .intfactor import factor_integer, parse_factorization, recompose
from .record import Record


class CMTableError(ValueError):
    pass


class FieldLabel(Record):
    degree: int
    real_places: int
    abs_disc: int
    index: int

    @staticmethod
    def parse(text: str) -> "FieldLabel":
        parts = text.split(".")
        if len(parts) != 4:
            raise CMTableError(f"malformed field label {text!r}")
        try:
            d, r, disc, idx = (int(p) for p in parts)
        except ValueError:
            raise CMTableError(f"malformed field label {text!r}") from None
        if d < 1 or not 0 <= r <= d or disc < 1 or idx < 1:
            raise CMTableError(f"implausible field label {text!r}")
        if (d - r) % 2 != 0:
            raise CMTableError(f"odd number of complex places in {text!r}")
        return FieldLabel(d, r, disc, idx)


class CMRow(Record):
    field_label: str
    disc_factorization: str
    definition_field_label: str

    def factors(self) -> dict:
        return parse_factorization(self.disc_factorization)


class CMTable(Record):
    name: str
    base_prime: int
    base_exponent: int
    modulus: int
    rows: tuple[CMRow, ...]
    checksum: str


_TABLE_PARAMS = {7: ("cm_x7.tsv", 7, 4, 7), 9: ("cm_x9.tsv", 3, 8, 9)}
EXPECTED_ROW_COUNTS = {7: 38, 9: 20}


def data_file_name(n: int) -> str:
    if n not in _TABLE_PARAMS:
        raise CMTableError("tables are bundled for n = 7 and n = 9")
    return _TABLE_PARAMS[n][0]


def _read_bytes(n: int, data_dir: str | None) -> bytes:
    # the bundled tables are files next to this module; reading them by
    # path imports nothing (importlib.resources loads `inspect` from
    # Python 3.12 on)
    if data_dir is None:
        data_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
    with open(f"{data_dir}/{data_file_name(n)}", "rb") as fh:
        return fh.read()


def load_table(n: int, data_dir: str | None = None) -> CMTable:
    """Read table n; a row that does not parse raises CMTableError naming
    the file and line. Row values are judged by verify_table, not here."""
    raw = _read_bytes(n, data_dir)
    fname, base_p, base_e, modulus = _TABLE_PARAMS[n]
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        lineno = raw.count(b"\n", 0, e.start) + 1
        raise CMTableError(f"{fname}:{lineno}: not UTF-8 ({e.reason})") from None
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise CMTableError(f"{fname}:{lineno}: expected 3 columns")
        row = CMRow(*parts)
        try:
            FieldLabel.parse(row.field_label)
            FieldLabel.parse(row.definition_field_label)
        except CMTableError as e:
            raise CMTableError(f"{fname}:{lineno}: {e}") from None
        try:
            row.factors()
        except ValueError:
            raise CMTableError(f"{fname}:{lineno}: malformed factorization "
                               f"{row.disc_factorization!r}") from None
        rows.append(row)
    return CMTable(f"x{n}", base_p, base_e, modulus, tuple(rows),
                   hashlib.sha256(raw).hexdigest())


class RowFinding(Record):
    row: str
    check: str
    ok: bool
    detail: str


def verify_row(row: CMRow, table: CMTable) -> tuple[RowFinding, ...]:
    out = []
    lab = FieldLabel.parse(row.field_label)
    out.append(RowFinding(row.field_label, "octic-totally-imaginary",
                          lab.degree == 8 and lab.real_places == 0,
                          f"degree {lab.degree}, real places {lab.real_places}"))
    stated = row.factors()
    prod = recompose(stated)
    out.append(RowFinding(row.field_label, "label-matches-factorization",
                          prod == lab.abs_disc,
                          f"{row.disc_factorization} = {prod} vs {lab.abs_disc}"))
    refac, certified = factor_integer(lab.abs_disc)
    out.append(RowFinding(row.field_label, "independent-refactorization",
                          certified and refac == stated,
                          f"computed {refac} (certified: {certified})"))
    out.append(RowFinding(row.field_label, "exponents-divisible-by-4",
                          all(e % 4 == 0 for e in stated.values()),
                          f"exponents {sorted(stated.values())}"))
    out.append(RowFinding(row.field_label, "base-prime-exponent",
                          stated.get(table.base_prime) == table.base_exponent,
                          f"v_{table.base_prime} = {stated.get(table.base_prime)}"))
    others = [p for p in stated if p != table.base_prime]
    bad = [p for p in others if p % table.modulus not in (1, table.modulus - 1)]
    out.append(RowFinding(row.field_label, "primes-are-plus-minus-one",
                          not bad,
                          f"primes {others} mod {table.modulus}"
                          + (f", offenders {bad}" if bad else "")))
    dlab = FieldLabel.parse(row.definition_field_label)
    out.append(RowFinding(row.field_label, "definition-field-shape",
                          dlab.degree % 3 == 0 and dlab.real_places in (2, 3),
                          f"degree {dlab.degree}, real places {dlab.real_places}"))
    return tuple(out)


class TableReport(Record):
    name: str
    row_count: int
    expected_row_count: int
    duplicates: tuple[str, ...]
    findings: tuple[RowFinding, ...]
    checksum: str

    @property
    def ok(self) -> bool:
        return (self.row_count == self.expected_row_count
                and not self.duplicates
                and all(f.ok for f in self.findings))


def verify_table(n: int, data_dir: str | None = None) -> TableReport:
    table = load_table(n, data_dir)
    seen = set()
    dups = []
    for row in table.rows:
        if row.field_label in seen:
            dups.append(row.field_label)
        seen.add(row.field_label)
    findings = []
    for row in table.rows:
        findings.extend(verify_row(row, table))
    return TableReport(table.name, len(table.rows), EXPECTED_ROW_COUNTS[n],
                       tuple(dups), tuple(findings), table.checksum)

"""Consistency checks for the two bundled tables of octic CM fields.

Each table row is (CM field label, discriminant factorization, label of the
field of definition). Labels follow the degree.realplaces.absdisc.index
convention. Everything checkable offline is checked:

- the absolute discriminant encoded in the label equals the product of the
  stated factorization, and every stated base is a proven prime (below
  2**64, where Miller-Rabin is a proof). By unique factorization the two
  together certify the stated factorization, so it is checked, never
  searched for;
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

from .intfactor import is_proven_prime, parse_factorization
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
    """One table row. Building it parses both labels, then the
    factorization, into `label`, `definition_label` and `factors` (prime ->
    exponent); a part that does not parse raises CMTableError."""
    field_label: str
    disc_factorization: str
    definition_field_label: str

    def __post_init__(self):
        object.__setattr__(self, "label", FieldLabel.parse(self.field_label))
        object.__setattr__(self, "definition_label",
                           FieldLabel.parse(self.definition_field_label))
        try:
            factors = parse_factorization(self.disc_factorization)
        except ValueError:
            raise CMTableError(f"malformed factorization "
                               f"{self.disc_factorization!r}") from None
        object.__setattr__(self, "factors", factors)


class CMTable(Record):
    name: str
    base_prime: int
    base_exponent: int
    modulus: int
    rows: tuple[CMRow, ...]
    checksum: str


# table n: file, base prime, its exponent, and the modulus, which is n
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
        try:
            rows.append(CMRow(*parts))
        except CMTableError as e:
            raise CMTableError(f"{fname}:{lineno}: {e}") from None
    return CMTable(f"x{n}", base_p, base_e, modulus, tuple(rows),
                   hashlib.sha256(raw).hexdigest())


class RowFinding(Record):
    row: str
    check: str
    ok: bool


def _is_product(n: int, factors: dict) -> bool:
    """Whether n is the product of p**e over factors. Each p divides n e
    times, stopping at the first remainder, and 1 must be left; no p**e is
    built, so the work is bounded by the bit length of n, whatever the
    exponents."""
    for p, e in factors.items():
        for _ in range(e):
            n, r = divmod(n, p)
            if r:
                return False
    return n == 1


def verify_row(row: CMRow, table: CMTable) -> tuple[RowFinding, ...]:
    """The seven checks of one row, in the order the report names the first
    failing one."""
    lab, dlab, stated = row.label, row.definition_label, row.factors
    plus_minus_one = (1, table.modulus - 1)
    checks = (
        ("octic-totally-imaginary", lab.degree == 8 and lab.real_places == 0),
        ("label-matches-factorization", _is_product(lab.abs_disc, stated)),
        ("stated-bases-prime", all(map(is_proven_prime, stated))),
        ("exponents-divisible-by-4", all(e % 4 == 0 for e in stated.values())),
        ("base-prime-exponent", stated.get(table.base_prime) == table.base_exponent),
        ("primes-are-plus-minus-one", all(p % table.modulus in plus_minus_one
                                          for p in stated if p != table.base_prime)),
        ("definition-field-shape", dlab.degree % 3 == 0 and dlab.real_places in (2, 3)),
    )
    return tuple(RowFinding(row.field_label, check, ok) for check, ok in checks)


class TableReport(Record):
    name: str
    row_count: int
    expected_row_count: int
    duplicates: tuple[str, ...]
    findings: tuple[RowFinding, ...]
    checksum: str


def verify_table(table: CMTable) -> TableReport:
    """Judge a table as `load_table` read it: its duplicate labels, its row
    count against the bundled table's, and the checks of every row."""
    seen = set()
    dups = []
    for row in table.rows:
        if row.field_label in seen:
            dups.append(row.field_label)
        seen.add(row.field_label)
    findings = []
    for row in table.rows:
        findings.extend(verify_row(row, table))
    return TableReport(table.name, len(table.rows), EXPECTED_ROW_COUNTS[table.modulus],
                       tuple(dups), tuple(findings), table.checksum)

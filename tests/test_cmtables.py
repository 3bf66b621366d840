import pytest

from shimura4.cmtables import (
    CMRow,
    CMTableError,
    EXPECTED_ROW_COUNTS,
    FieldLabel,
    load_table,
    verify_row,
    verify_table,
)

X7_SHA = "9fe02775fe804cd25bf61dda9b27379b9e845dcb51aa860e2f914412f2ed9263"
X9_SHA = "a660f9f6491960c0d19bcce61268ffb84dc9edcb0aebd5957d3c93967e9a525b"


def test_label_parsing():
    lab = FieldLabel.parse("8.0.7834003547041.1")
    assert (lab.degree, lab.real_places, lab.abs_disc, lab.index) == \
        (8, 0, 7834003547041, 1)
    with pytest.raises(CMTableError):
        FieldLabel.parse("8.0.123")
    with pytest.raises(CMTableError):
        FieldLabel.parse("8.9.123.1")  # more real places than degree
    with pytest.raises(CMTableError):
        FieldLabel.parse("8.1.123.1")  # odd number of complex places
    with pytest.raises(CMTableError):
        FieldLabel.parse("a.b.c.d")
    # a row parses its labels and its factorization when it is built
    good = ("8.0.7834003547041.1", "7^4*239^4", "3.3.49.1")
    for i, bad, error in ((0, "8.0.123", "malformed field label"),
                          (1, "2^x", "malformed factorization"),
                          (2, "8.1.123.1", "odd number of complex places")):
        with pytest.raises(CMTableError, match=error):
            CMRow(*good[:i], bad, *good[i + 1:])
    assert CMRow(*good).factors == {7: 4, 239: 4}


def test_row_counts_and_checksums():
    for n, sha in ((7, X7_SHA), (9, X9_SHA)):
        t = load_table(n)
        assert len(t.rows) == EXPECTED_ROW_COUNTS[n]
        assert t.checksum == sha


def test_tables_fully_verify():
    for n in (7, 9):
        rep = verify_table(load_table(n))
        assert rep.row_count == rep.expected_row_count
        assert not rep.duplicates
        assert rep.row_count == EXPECTED_ROW_COUNTS[n]
        per_row = 7
        assert len(rep.findings) == per_row * rep.row_count
        assert all(f.ok for f in rep.findings)


def test_base_prime_exponents():
    t7 = load_table(7)
    assert all(r.factors[7] == 4 for r in t7.rows)
    t9 = load_table(9)
    assert all(r.factors[3] == 8 for r in t9.rows)


def test_prime_congruence_classes():
    for n, mod in ((7, 7), (9, 9)):
        t = load_table(n)
        for r in t.rows:
            for p in r.factors:
                if p != t.base_prime:
                    assert p % mod in (1, mod - 1)


def test_corrupted_label_detected():
    t = load_table(7)
    good = t.rows[0]
    # flip one digit of the label discriminant
    bad = CMRow("8.0.7834003547042.1", good.disc_factorization,
                good.definition_field_label)
    findings = {f.check: f.ok for f in verify_row(bad, t)}
    assert not findings["label-matches-factorization"]


def test_corrupted_factorization_detected():
    t = load_table(9)
    good = t.rows[0]
    bad = CMRow(good.field_label, "3^8*73^4", good.definition_field_label)
    findings = {f.check: f.ok for f in verify_row(bad, t)}
    # 3^8 * 73^4 is not the label's integer, though 73 is a prime
    assert not findings["label-matches-factorization"]
    assert findings["stated-bases-prime"]


def _failing_checks(label, factorization):
    t = load_table(7)
    return [f.check for f in verify_row(CMRow(label, factorization, "3.3.49.1"), t)
            if not f.ok]


def test_composite_stated_base_fails_only_its_primality():
    # 59989 = 239 * 251 is -1 mod 7, and the label is the stated product:
    # only the primality of the stated bases shows the factorization wrong
    assert 59989 == 239 * 251 and 59989 % 7 == 6
    assert _failing_checks(f"8.0.{7 ** 4 * 59989 ** 4}.1", "7^4*59989^4") == \
        ["stated-bases-prime"]


def test_stated_base_above_two_to_the_64_fails_its_primality():
    # 2^127 - 1 is a prime, and 1 mod 7, but Miller-Rabin proves nothing
    # about it: the row is not certified
    m = 2 ** 127 - 1
    assert m % 7 == 1
    assert _failing_checks(f"8.0.{7 ** 4 * m ** 4}.1", f"7^4*{m}^4") == \
        ["stated-bases-prime"]


def test_wrong_exponent_detected():
    t = load_table(7)
    bad = CMRow("8.0.100000.1", "2^5*5^5", "3.3.49.1")
    findings = {f.check: f.ok for f in verify_row(bad, t)}
    assert findings["label-matches-factorization"]
    assert not findings["exponents-divisible-by-4"]
    assert not findings["base-prime-exponent"]


def test_data_dir_override(tmp_path):
    src = load_table(7)
    target = tmp_path / "cm_x7.tsv"
    lines = ["# field_label\tdisc_factorization\tdefinition_field_label"]
    for r in src.rows[:3]:
        lines.append(f"{r.field_label}\t{r.disc_factorization}\t"
                     f"{r.definition_field_label}")
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    t = load_table(7, data_dir=str(tmp_path))
    assert len(t.rows) == 3
    rep = verify_table(t)
    assert rep.row_count == 3
    # row count no longer matches the bundled expectation
    assert rep.expected_row_count == EXPECTED_ROW_COUNTS[7] != rep.row_count
    assert all(f.ok for f in rep.findings)

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from _helpers import with_fields

from shimura4 import cli, reductions
from shimura4.reductions import VerificationError, apply_reduction
from shimura4.multipoly import MultiPoly


def run(capsys, args):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_full_run_passes(capsys):
    code, out, _ = run(capsys, [])
    assert code == 0
    assert out.strip().endswith("0 failed")
    assert "[FAIL]" not in out


def test_full_run_flag_inventory(capsys):
    code, out, _ = run(capsys, ["--json"])
    assert code == 0
    doc = json.loads(out)
    flagged = [c["id"] for s in doc["suites"] for c in s["checks"]
               if c["status"] == "flagged"]
    assert flagged == [
        "plane-at-1-first-component-display",
        "ramification-degree-at-1",
        "plane-family-discriminant",
    ]
    assert all(c["status"] in ("pass", "flagged")
               for s in doc["suites"] for c in s["checks"])


def test_json_is_deterministic(capsys):
    _, out1, _ = run(capsys, ["--json"])
    _, out2, _ = run(capsys, ["--json"])
    assert out1 == out2


def test_json_is_the_same_under_two_hash_seeds():
    # two fresh processes, with cold caches and different string hashing:
    # no output may follow the iteration order of a set or dict of names
    src = Path(cli.__file__).resolve().parents[1]
    outs = [subprocess.run([sys.executable, "-m", "shimura4", "--json"],
                           capture_output=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed})
            for seed in ("0", "1")]
    assert [o.returncode for o in outs] == [0, 0], outs[0].stderr + outs[1].stderr
    assert outs[0].stdout == outs[1].stdout


# The sha256 of four outputs. This is their one pin: CI runs these tests on
# the checkout and on the installed package instead of restating them. A
# deliberate change to an output updates its pin here, and CHANGES.md
# records what changed and the new sha256.
# `verify --json`
VERIFY_JSON_SHA256 = "0641cf6411ddb050d23d868fce4283467486478965fa248ad0da65359058a84a"
# `verify`, the text report
VERIFY_TEXT_SHA256 = "1b306eaf50195b3bbfd9702ea04f0c9f894755f5104536606d58f5a6fe7b3a38"
# `verify triangle --depth 12 --json`: the tile counts of the deepest search
TRIANGLE_JSON_SHA256 = "75287bd5476401f744682bf96773059d0e3b911b99c274f576bb77499620a108"
# `verify triangle --depth 12 --svg disk.svg --json`, whose report names the path
TRIANGLE_SVG_JSON_SHA256 = "23aae14339135920fcd89e05d5bdf0d0f15d4a9a1c09ea5881aa53458cc41457"


def _sha256_of_run(args, cwd=None):
    """sha256 of the stdout of `python -W error -m shimura4 *args` in a fresh
    process, which must exit 0: a warning on any Python fails it."""
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-W", "error", "-m", "shimura4", *args],
                         capture_output=True, timeout=120, cwd=cwd,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    return hashlib.sha256(out.stdout).hexdigest()


def test_json_output_is_pinned():
    assert _sha256_of_run(["--json"]) == VERIFY_JSON_SHA256


def test_text_report_is_pinned(capsys):
    _, out, _ = run(capsys, [])
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_TEXT_SHA256


def test_deepest_triangle_json_is_pinned():
    assert _sha256_of_run(["triangle", "--depth", "12", "--json"]) == TRIANGLE_JSON_SHA256


def test_deepest_triangle_drawing_is_pinned(tmp_path):
    # depth 12 is shimura4.MAX_DEPTH; the drawing has one path per counted
    # tile, 1190 for (2,3,7), and its printed floats are not pinned
    args = ["triangle", "--depth", "12", "--svg", "disk.svg", "--json"]
    assert _sha256_of_run(args, cwd=tmp_path) == TRIANGLE_SVG_JSON_SHA256
    assert (tmp_path / "disk.svg").read_text(encoding="utf-8").count("<path") == 1190


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_report_that_cannot_be_written_is_exit_2():
    # writing to /dev/full fails with ENOSPC: one line on stderr, exit 2 as
    # for an --svg PATH that cannot be opened, and nothing left to flush
    src = Path(cli.__file__).resolve().parents[1]
    with open("/dev/full", "w") as full:
        out = subprocess.run([sys.executable, "-m", "shimura4", "hypergeometric", "--json"],
                             stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 2
    assert out.stderr == "verify: cannot write the report: No space left on device\n"


def test_suite_selection(capsys):
    code, out, _ = run(capsys, ["hypergeometric", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert [s["name"] for s in doc["suites"]] == ["hypergeometric"]
    ids = {c["id"] for c in doc["suites"][0]["checks"]}
    assert "stabilizer-7" in ids and "full-sum-9" in ids


def test_all_suites_present(capsys):
    _, out, _ = run(capsys, ["--json"])
    doc = json.loads(out)
    assert [s["name"] for s in doc["suites"]] == [
        "disc7", "reductions7", "reductions9", "arakelov",
        "quaternion", "triangle", "hypergeometric", "cm-tables"]


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-suite"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_svg_output(tmp_path, capsys):
    target = tmp_path / "disk.svg"
    code, out, _ = run(capsys, ["triangle", "--svg", str(target)])
    assert code == 0
    data = target.read_text(encoding="utf-8")
    assert data.startswith("<svg")
    assert 'viewBox="-1.05 -1.05 2.1 2.1"' in data
    assert "svg-written" in out


def test_depth_flag_uses_frozen_counts(capsys):
    code, out, _ = run(capsys, ["triangle", "--depth", "5", "--json"])
    assert code == 0
    doc = json.loads(out)
    ids = {c["id"]: c for s in doc["suites"] for c in s["checks"]}
    assert ids["tile-count-2-3-7-depth-5"]["expected"] == "88"
    assert ids["tile-count-2-3-9-depth-5"]["expected"] == "104"


def test_deepest_depth_matches_frozen_counts(capsys):
    from shimura4.suites.triangle import TILE_COUNTS
    from shimura4.trianglestacks import MAX_DEPTH
    assert all(len(c) == MAX_DEPTH + 1 for c in TILE_COUNTS.values())
    code, out, _ = run(capsys, ["triangle", "--depth", str(MAX_DEPTH), "--json"])
    assert code == 0
    doc = json.loads(out)
    ids = {c["id"]: c for s in doc["suites"] for c in s["checks"]}
    assert ids[f"tile-count-2-3-9-depth-{MAX_DEPTH}"]["actual"] == "3091"


@pytest.mark.parametrize("depth", ["-1", "13", "99"])
def test_depth_out_of_range_is_usage_error(capsys, depth):
    with pytest.raises(SystemExit) as exc:
        cli.main(["triangle", "--depth", depth])
    assert exc.value.code == 2
    assert "--depth" in capsys.readouterr().err


def _copy_tables(tmp_path):
    """Copies of the two bundled tables in tmp_path; returns their paths."""
    from importlib import resources
    from shimura4.cmtables import data_file_name
    paths = []
    for n in (7, 9):
        src = resources.files("shimura4").joinpath("data", data_file_name(n))
        paths.append(tmp_path / data_file_name(n))
        paths[-1].write_bytes(src.read_bytes())
    return paths


def _cm_tables_in_subprocess(data_dir):
    """Exit code, 0 or 1, and checks by id of `cm-tables --json --data-dir`
    run in a fresh interpreter that must end within 15 s."""
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-m", "shimura4", "cm-tables", "--json", "--data-dir", str(data_dir)],
        capture_output=True, text=True, timeout=15, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode in (0, 1), out.stderr
    return out.returncode, {c["id"]: c for s in json.loads(out.stdout)["suites"]
                            for c in s["checks"]}


def test_data_dir_tables_are_read_once(tmp_path, monkeypatch, capsys):
    # the command line parses each table of --data-dir to check it, and the
    # suite judges those same tables without reading them again
    from shimura4 import cmtables
    _copy_tables(tmp_path)
    calls = []
    original = cmtables.load_table
    monkeypatch.setattr(cmtables, "load_table", lambda *args: calls.append(args) or original(*args))
    code, _, _ = run(capsys, ["cm-tables", "--json", "--data-dir", str(tmp_path)])
    assert code == 0
    assert calls == [(7, str(tmp_path)), (9, str(tmp_path))]


@pytest.mark.parametrize("kind", ["form-feed", "vertical-tab", "next-line",
                                  "line-separator", "crlf"])
def test_data_dir_lines_end_at_newline_alone(tmp_path, capsys, kind):
    # a form feed, a vertical tab or a Unicode line break in a comment leaves
    # the comment one line and the row after it whole, and CRLF line ends
    # still load
    _, p9 = _copy_tables(tmp_path)
    text = p9.read_text(encoding="utf-8")
    if kind == "crlf":
        text = text.replace("\n", "\r\n")
    else:
        brk = {"form-feed": "\f", "vertical-tab": "\v", "next-line": "\x85",
               "line-separator": "\u2028"}[kind]
        text = text.replace("# field_label\t", f"# field_label{brk}\t", 1)
    p9.write_bytes(text.encode("utf-8"))
    code, out, _ = run(capsys, ["cm-tables", "--data-dir", str(tmp_path)])
    assert code == 0, out
    assert out.endswith("8 passed, 0 flagged, 0 failed\n")


def test_corrupted_data_dir_fails(tmp_path, capsys):
    _, p9 = _copy_tables(tmp_path)
    # corrupt one factorization digit in the x9 table
    p9.write_text(p9.read_text(encoding="utf-8").replace("3^8*71^4", "3^8*73^4"),
                  encoding="utf-8")
    code, out, _ = run(capsys, ["cm-tables", "--data-dir", str(tmp_path)])
    assert code == 1
    assert "row-consistency-x9" in out
    assert "[FAIL]" in out


LONG_LABEL = "8.0.1999999999999999999999999999999999999995077030712450721.1"


@pytest.mark.parametrize("old, new, failures", [
    # a label whose integer leaves a 155-bit composite after its small
    # factors: the row is not factored again, and its stated 7 and 1583 are
    # primes, so only the label check fails
    pytest.param("8.0.15077030712450721.1\t", f"{LONG_LABEL}\t",
                 f"1 failure, first: {LONG_LABEL}", id="unsplit-label"),
    # an exponent whose power has about 10^8 digits: the label check stops
    # at the first remainder instead of building 13^99999999
    pytest.param("7^4*239^4\t", "7^4*13^99999999\t",
                 "2 failures, first: 8.0.7834003547041.1", id="huge-exponent"),
])
def test_row_fails_label_check_promptly(tmp_path, old, new, failures):
    # the run ends with its report, naming the label check first, instead
    # of working without end on the row
    p7, _ = _copy_tables(tmp_path)
    text = p7.read_text(encoding="utf-8")
    assert text.count(old) == 1
    p7.write_text(text.replace(old, new), encoding="utf-8")
    code, checks = _cm_tables_in_subprocess(tmp_path)
    assert code == 1
    assert checks["row-consistency-x7"]["status"] == "fail"
    assert checks["row-consistency-x7"]["actual"] == f"{failures} label-matches-factorization"
    assert checks["row-consistency-x9"]["status"] == "pass"


def test_mutated_tables_never_end_in_an_internal_error(tmp_path, capsys):
    # 200 copies of the bundled tables, each with 1 to 4 bytes replaced by
    # characters the tables are written in: every run reports (exit 0 or 1)
    # or rejects the data dir (exit 2), and none raises or exits 3
    import random
    from collections import Counter
    paths = _copy_tables(tmp_path)
    originals = [p.read_bytes() for p in paths]
    alphabet = b"0123456789^*.\t\n-x"
    rng = random.Random(5)
    exits = Counter()
    for _ in range(200):
        copies = [bytearray(b) for b in originals]
        for _ in range(rng.randint(1, 4)):
            data = rng.choice(copies)
            data[rng.randrange(len(data))] = rng.choice(alphabet)
        for p, data in zip(paths, copies):
            p.write_bytes(data)
        try:
            code = cli.main(["cm-tables", "--json", "--data-dir", str(tmp_path)])
        except SystemExit as e:
            code = e.code
        capsys.readouterr()
        exits[code] += 1
    assert set(exits) == {0, 1, 2}, exits


# malformed copies of the bundled tables: (file, text replaced, replacement)
MALFORMED = {
    "two-columns": ("cm_x7.tsv", "\t3.3.49.1\n", "\n"),
    "bad-label": ("cm_x7.tsv", "8.0.7834003547041.1", "8.0.x.1"),
    "bad-factorization": ("cm_x7.tsv", "7^4*239^4", "2^x"),
    "not-utf8": ("cm_x9.tsv", "3^8*71^4", "3^8*71^4\udcff"),
    "underscore-in-label": ("cm_x7.tsv", "8.0.7834003547041.1", "8.0.7834003547_041.1"),
    "signed-exponent": ("cm_x7.tsv", "7^4*239^4", "7^+4*239^4"),
}


@pytest.mark.parametrize("which", ["only-x7", "missing-dir", *MALFORMED])
def test_bad_data_dir_is_usage_error(tmp_path, capsys, which):
    from shimura4.cmtables import data_file_name
    from importlib import resources
    names = [data_file_name(7)] if which == "only-x7" else \
        [data_file_name(7), data_file_name(9)]
    for name in names:
        src = resources.files("shimura4").joinpath("data", name)
        (tmp_path / name).write_bytes(src.read_bytes())
    data_dir = tmp_path / "no-such-dir" if which == "missing-dir" else tmp_path
    if which in MALFORMED:
        name, old, new = MALFORMED[which]
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert old in text
        (tmp_path / name).write_bytes(
            text.replace(old, new, 1).encode("utf-8", "surrogateescape"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["cm-tables", "--data-dir", str(data_dir)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--data-dir" in err
    if which in MALFORMED:
        assert f"{MALFORMED[which][0]}:" in err  # file and line


@pytest.mark.parametrize("suite", sorted(set(cli.SUITES) - {"cm-tables"}))
def test_data_dir_with_a_suite_that_reads_no_table_is_usage_error(tmp_path, suite):
    # refused before any table is read, for a missing directory and for a
    # valid one alike, so the CM tables are never loaded
    for data_dir in (tmp_path / "no-such-dir", tmp_path):
        loaded, _, err = _loaded_after([suite, "--data-dir", str(data_dir)], exit_code=2)
        assert f"--data-dir: the {suite} suite reads no table" in err
        assert "shimura4.cmtables" not in loaded


@pytest.mark.parametrize("precision", ["0", "-5", "-40", "14"])
def test_precision_below_floor_is_usage_error(capsys, precision):
    with pytest.raises(SystemExit) as exc:
        cli.main(["quaternion", "--precision", precision])
    assert exc.value.code == 2
    assert "--precision" in capsys.readouterr().err


@pytest.mark.parametrize("precision", ["1001", "5000"])
def test_precision_above_ceiling_is_usage_error(capsys, precision):
    with pytest.raises(SystemExit) as exc:
        cli.main(["quaternion", "--precision", precision])
    assert exc.value.code == 2
    assert "--precision" in capsys.readouterr().err


def test_precision_at_floor_passes(capsys):
    code, out, _ = run(capsys, ["quaternion", "--precision", "15", "--json"])
    assert code == 0
    doc = json.loads(out)
    checks = {c["id"]: c for s in doc["suites"] for c in s["checks"]}
    for n in (7, 9):
        check = checks[f"matrix-trace-{n}"]
        assert check["status"] == "pass"
        lo, hi = check["actual"].removeprefix("sigma_0(-v) in [").rstrip("]").split(", ")
        assert len(lo.split(".")[1]) == len(hi.split(".")[1]) == 16
        assert 0 < Fraction(hi) - Fraction(lo) < Fraction(1, 10 ** 15)


def test_svg_into_missing_directory_is_usage_error(tmp_path, capsys):
    # a missing directory, an existing directory, an empty path, and a file
    # name longer than the file system allows, which cannot be created even
    # by root, for whom a read-only directory would not fail
    for path in (str(tmp_path / "no-such-dir" / "x.svg"), str(tmp_path), "",
                 str(tmp_path / ("a" * 300 + ".svg"))):
        with pytest.raises(SystemExit) as exc:
            cli.main(["triangle", "--svg", path])
        assert exc.value.code == 2
        assert "--svg" in capsys.readouterr().err


def test_svg_with_a_suite_that_draws_nothing_is_usage_error(tmp_path, capsys):
    target = tmp_path / "x.svg"
    for suite in ("disc7", "quaternion", "cm-tables"):
        with pytest.raises(SystemExit) as exc:
            cli.main([suite, "--svg", str(target)])
        assert exc.value.code == 2
        assert "--svg" in capsys.readouterr().err
        assert not target.exists()


def test_full_run_applies_each_plan_once(monkeypatch, capsys):
    calls = []

    def counting(plan):
        calls.append(plan.name)
        return apply_reduction(plan)
    monkeypatch.setattr(reductions, "apply_reduction", counting)
    code, _, _ = run(capsys, ["--json"])
    assert code == 0
    assert len(calls) == 7 == len(set(calls))


def test_equal_suites_and_reports_hash_equal():
    # a suite and a report are values, built once: two runs of the same
    # suite give equal suites and equal reports, which hash equal and
    # collapse in a set
    r1, r2 = (cli.build_report("hypergeometric", None) for _ in range(2))
    (s1,), (s2,) = r1.suites, r2.suites
    assert s1 == s2 and hash(s1) == hash(s2) and len({s1, s2}) == 1
    assert r1 == r2 and hash(r1) == hash(r2) and len({r1, r2}) == 1


def test_failed_plan_fails_square_scalar_and_match(monkeypatch):
    def failing(plan):
        raise VerificationError("synthetic")
    monkeypatch.setattr(reductions, "apply_reduction", failing)
    from shimura4.suites.reductions import suite_reductions9
    checks = suite_reductions9(None).checks
    assert [(c.id, c.status, c.actual) for c in checks[:2]] == [
        ("plane-at-0-square-scalar", "fail", "synthetic"),
        ("plane-at-0-match", "fail", "synthetic")]


def _run_with_plans(monkeypatch, capsys, n, plans, args):
    """Run the CLI with `plans` as the reduction plans of family n; return the
    exit code, the checks of the JSON report by id, and stderr."""
    original = reductions.reduction_plans
    monkeypatch.setattr(reductions, "reduction_plans",
                        lambda k: plans if k == n else original(k))
    code, out, err = run(capsys, args + ["--json"])
    return code, {c["id"]: c for s in json.loads(out)["suites"] for c in s["checks"]}, err


@pytest.mark.parametrize("n, name, ring", [
    (9, "plane-at-infinity", ("Y", "W", "Z")),
    (7, "hyperelliptic-at-0", ("x", "z")),
], ids=["proportional", "twist"])
def test_target_on_another_ring_fails_only_its_match(monkeypatch, capsys, n, name, ring):
    # the plan's target gains a variable the reduced equation lacks: the
    # match check fails with both variable tuples, and the run still reports
    plans = reductions.reduction_plans(n)
    (plan,) = [p for p in plans if p.name == name]
    pad = (0,) * (len(ring) - len(plan.expected.variables))
    target = MultiPoly(ring, {e + pad: c for e, c in plan.expected.terms.items()})
    swapped = tuple(with_fields(p, expected=target) if p is plan else p for p in plans)
    code, checks, _ = _run_with_plans(monkeypatch, capsys, n, swapped, [])
    assert code == 1
    assert [i for i, c in checks.items() if c["status"] == "fail"] == [f"{name}-match"]
    assert checks[f"{name}-match"]["actual"].startswith(f"{name}: ")
    assert str(ring) in checks[f"{name}-match"]["actual"]


def _bad_twist(plan, kind):
    """hyperelliptic-at-0 with a constant target, or with x sent to 1, so that
    y^2 = g leaves g no variable."""
    if kind == "constant-target":
        return with_fields(plan, expected=MultiPoly.constant(3, ("x",)))
    y, u = MultiPoly.generators("y", "u")
    return with_fields(plan, steps=(reductions.SubstStep(assignments=(
        ("x", MultiPoly.constant(1, ("y", "u")), None), ("y", y, None), ("t", u, None))),))


@pytest.mark.parametrize("kind, reason", [
    ("constant-target", "reduced equation does not match the expected curve up to twist"),
    ("no-variable-left", "no variable but y is left for g"),
], ids=["constant-target", "no-variable-left"])
def test_bad_twist_plan_fails_only_its_match(monkeypatch, capsys, kind, reason):
    # a twist target with no variable, or a reduction that leaves g none,
    # fails only the plan's match, not the run, and the run still reports
    plans = reductions.reduction_plans(7)
    swapped = (_bad_twist(plans[0], kind),) + plans[1:]
    code, checks, err = _run_with_plans(monkeypatch, capsys, 7, swapped, ["reductions7"])
    assert code == 1, err
    assert [i for i, c in checks.items() if c["status"] == "fail"] == ["hyperelliptic-at-0-match"]
    assert checks["hyperelliptic-at-0-match"]["actual"] == f"hyperelliptic-at-0: {reason}"


def _off_ring(plan, kind):
    """plane-at-0 with one step, or its uniformizer, off the equation's ring,
    or with a zero denominator in its first substitution."""
    if kind == "uniformizer":
        return with_fields(plan, uniformizer="q")
    steps = list(plan.steps)
    (k,) = [k for k, s in enumerate(steps) if isinstance(s, reductions.SquareCheck)]
    if kind == "square-root":
        # the declared root Y^3 - W on (Y, W), the equation on (Y, W, s)
        Y, W = MultiPoly.generators("Y", "W")
        steps[k] = with_fields(steps[k], root=Y ** 3 - W)
    elif kind == "divide":
        steps[k - 1] = with_fields(steps[k - 1], var="q")
    elif kind == "zero-denominator":
        (v, num, _), *rest = steps[0].assignments
        steps[0] = with_fields(steps[0], assignments=(
            (v, num, MultiPoly(num.variables, {})), *rest))
    else:
        steps[0] = with_fields(steps[0], assignments=steps[0].assignments + (
            ("q", MultiPoly.generators("Y", "W", "s")[0], None),))
    return with_fields(plan, steps=tuple(steps))


@pytest.mark.parametrize("kind", ["square-root", "divide", "uniformizer", "substitution",
                                  "zero-denominator"])
def test_step_off_the_ring_fails_only_its_plan(monkeypatch, capsys, kind):
    # a step on a variable the equation lacks, or one that divides by zero,
    # fails the plan's checks with the plan's name, and the run still prints
    # its report
    plans = reductions.reduction_plans(9)
    swapped = (_off_ring(plans[0], kind),) + plans[1:]
    code, checks, err = _run_with_plans(monkeypatch, capsys, 9, swapped, ["reductions9"])
    assert code == 1, err
    failed = [i for i, c in checks.items() if c["status"] == "fail"]
    assert failed == ["plane-at-0-square-scalar", "plane-at-0-match"]
    assert all(checks[i]["actual"].startswith("plane-at-0: ") for i in failed)


def test_plan_that_does_not_continue_its_first_fails_only_its_identity(monkeypatch, capsys):
    # the second plane-at-1 component without its first step: the family 9
    # identity fails with the reason, family 7 still runs, the run reports
    plans = reductions.reduction_plans(9)
    (k,) = [k for k, p in enumerate(plans) if p.name == "plane-at-1-second-component"]
    swapped = plans[:k] + (with_fields(plans[k], steps=plans[k].steps[1:]),) + plans[k + 1:]
    code, checks, err = _run_with_plans(monkeypatch, capsys, 9, swapped, ["arakelov"])
    assert code == 1, err
    assert [i for i, c in checks.items() if c["status"] == "fail"] == ["degree-identity-9"]
    assert checks["degree-identity-9"]["actual"] == (
        "plane-at-1-second-component does not continue plane-at-1-first-component")
    assert checks["degree-identity-7"]["status"] == "pass"
    assert [i for i in checks if "-9" in i] == ["degree-identity-9"]


def test_cli_import_loads_no_mpmath():
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, shimura4.cli; print('mpmath' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def _loaded_after(args, exit_code=0):
    """The package modules loaded in a fresh process (-S: no site, so no
    .pth file loads anything first) after `import shimura4.cli` and, with
    args, one run of cli.main(args), which must end with exit_code; whether
    fractions is loaded; and what the run wrote to stderr."""
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import contextlib, io, json, sys\n"
            "import shimura4.cli\n"
            f"args = {args!r}\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        code = shimura4.cli.main(args) if args else 0\n"
            "    except SystemExit as e:\n"
            "        code = e.code\n"
            "print(json.dumps([code, sorted(m for m in sys.modules\n"
            "                               if m.split('.')[0] == 'shimura4'),\n"
            "                  'fractions' in sys.modules]))\n")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    code, loaded, fractions = json.loads(out.stdout)
    assert code == exit_code, out.stderr
    return loaded, fractions, out.stderr


def test_cli_import_loads_only_the_dispatcher():
    # no suite, no computation module and not even fractions: the suites'
    # modules load when they run
    loaded, fractions, _ = _loaded_after(None)
    assert loaded == ["shimura4", "shimura4.cli", "shimura4.record", "shimura4.report"]
    assert not fractions


# the package modules each suite loads when it runs alone, beyond the cli,
# its records and shimura4.suites; the command line checks --depth against
# shimura4.MAX_DEPTH, so only the suites that use the triangle stacks load them
SUITE_MODULES = {
    "disc7": ("suites.disc7", "families", "multipoly", "dense", "intfactor"),
    "reductions7": ("suites.reductions", "reductions", "families", "multipoly", "dense"),
    "reductions9": ("suites.reductions", "reductions", "families", "multipoly", "dense"),
    "arakelov": ("suites.arakelov", "reductions", "families", "multipoly", "dense",
                 "trianglestacks"),
    "quaternion": ("suites.quaternion", "quaternion", "numberfield", "dense"),
    "triangle": ("suites.triangle", "quaternion", "numberfield", "dense", "trianglestacks"),
    "hypergeometric": ("suites.hypergeometric", "hypergeom"),
    "cm-tables": ("suites.cm_tables", "cmtables", "intfactor"),
}


@pytest.mark.parametrize("suite", SUITE_MODULES)
def test_each_suite_alone_loads_its_own_modules(suite):
    assert list(SUITE_MODULES) == list(cli.SUITES)
    loaded, _, _ = _loaded_after([suite, "--json"])
    common = ("cli", "record", "report", "suites")
    assert loaded == sorted(["shimura4"] + [f"shimura4.{m}" for m in
                                            common + SUITE_MODULES[suite]])


def test_depth_is_checked_without_the_triangle_stacks(capsys):
    # the cap lives in the package, so a bad --depth is a usage error with
    # the triangle stacks still unloaded, and the help text names the cap
    loaded, _, err = _loaded_after(["hypergeometric", "--depth", "13"], exit_code=2)
    assert "--depth must be between 0 and 12" in err
    assert "shimura4.trianglestacks" not in loaded
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "tessellation depth, 0 to 12 (default 4)" in capsys.readouterr().out


def test_cli_loads_only_the_modules_its_suites_run(tmp_path):
    # importing the cli loads no computation module; the triangle suite
    # loads the quaternion triple and what it rests on, not the families,
    # the CM tables, the hypergeometric data, the polynomial ring, the
    # integer factoring or the drawing, which only --svg loads; and no run
    # loads the code-generating dataclasses module, the inspect module it
    # pulls in, or typing. -S keeps site out, since a .pth file it reads
    # may load typing before the package does
    src = Path(cli.__file__).resolve().parents[1]
    svg = str(tmp_path / "disk.svg")
    code = (
        "import contextlib, io, json, sys\n"
        "import shimura4.cli\n"
        "after_import = sorted(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [shimura4.cli.main(['triangle', '--json'])]\n"
        "after_triangle = sorted(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes.append(shimura4.cli.main(['triangle', '--svg', {svg!r}]))\n"
        "after_svg = sorted(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes.append(shimura4.cli.main(['--json']))\n"
        "print(json.dumps([codes, after_import, after_triangle, after_svg,\n"
        "                  sorted(sys.modules)]))\n")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    codes, after_import, after_triangle, after_svg, after_all = json.loads(out.stdout)
    assert codes == [0, 0, 0]
    for name in ("families", "cmtables", "hypergeom", "multipoly",
                 "numberfield", "quaternion"):
        assert f"shimura4.{name}" not in after_import
    for name in ("families", "cmtables", "hypergeom", "multipoly", "intfactor",
                 "drawing"):
        assert f"shimura4.{name}" not in after_triangle
    assert "shimura4.quaternion" in after_triangle
    assert "shimura4.drawing" in after_svg
    assert "shimura4.families" in after_all
    # nothing in the package draws random numbers, and nothing needs mpmath,
    # which sympy, the tests' oracle, pulls in
    for name in ("dataclasses", "inspect", "typing", "random", "mpmath"):
        assert name not in after_all
    # importing the families, as the plane elimination does, loads their
    # equations and the polynomial ring, and neither the reduction engine,
    # the triangle stacks nor the integer factoring, which only some of the
    # checks call
    out = subprocess.run([sys.executable, "-S", "-c",
                          "import json, sys, shimura4.families; print(json.dumps(sorted(m "
                          "for m in sys.modules if m.split('.')[0] == 'shimura4')))"],
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == ["shimura4"] + [
        f"shimura4.{m}" for m in ("dense", "families", "multipoly", "record")]


def test_internal_error_exit_code(monkeypatch, capsys):
    def boom(opts):
        raise RuntimeError("synthetic")
    monkeypatch.setitem(cli.SUITES, "disc7", boom)
    code, _, err = run(capsys, ["disc7"])
    assert code == 3
    assert "internal error" in err
    assert "disc7" in err


def test_wrong_discriminant_constant_fails_its_check(monkeypatch, capsys):
    # the family scaled by two primes other than 2, 3 and 7, by 1/5 and by
    # t - 2: its discriminant gains (p q)^18, 5^-18 or (t - 2)^18, which the
    # report keeps whole, so both constant checks fail and show it, and the
    # run still reports (exit 1)
    from shimura4 import families
    p, q = 1000003, 1000033
    _, t = MultiPoly.generators("x", "t")
    (u,) = MultiPoly.generators("t")
    family = families.c7_family()
    for scale, cofactor in ((p * q, f"{(p * q) ** 18}"), (Fraction(1, 5), f"{5 ** 18}^-1"),
                            (t - 2, f"({(u - 2) ** 18})")):
        monkeypatch.setattr(families, "c7_family", lambda scale=scale: scale * family)
        families.c7_discriminant.cache_clear()
        try:
            code, out, _ = run(capsys, ["disc7", "--json"])
        finally:
            families.c7_discriminant.cache_clear()
        assert code == 1, scale
        checks = {c["id"]: c for s in json.loads(out)["suites"] for c in s["checks"]}
        for check_id, constant in (("model-constant-factorization", "2^20*3^36*7^10"),
                                   ("curve-constant-factorization", "2^36*3^36*7^10")):
            assert checks[check_id]["status"] == "fail"
            assert checks[check_id]["actual"] == f"{constant}*{cofactor}"


def test_wrong_t1_target_fails_its_check(monkeypatch, capsys):
    # a target model whose j is not the elliptic piece's: the target-j check
    # fails, and so does the twist constant, since no rational twist relates
    # the two, and the run still reports (exit 1)
    from shimura4.suites import reductions as reductions_suite
    monkeypatch.setattr(reductions_suite, "T1_TARGET_P", Fraction(-44, 28))
    code, out, _ = run(capsys, ["reductions7", "--json"])
    assert code == 1
    checks = {c["id"]: c for s in json.loads(out)["suites"] for c in s["checks"]}
    assert [i for i, c in checks.items() if c["status"] == "fail"] == [
        "t1-elliptic-target-j", "t1-elliptic-twist-constant"]
    assert (checks["t1-elliptic-target-j"]["expected"],
            checks["t1-elliptic-target-j"]["actual"]) == ("-147197952/52597", "-3375")

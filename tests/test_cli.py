import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from shimura4 import cli, families
from shimura4.families import VerificationError, apply_reduction


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


# sha256 of the default `verify --json` stdout
VERIFY_JSON_SHA256 = "0641cf6411ddb050d23d868fce4283467486478965fa248ad0da65359058a84a"


def test_json_output_is_pinned(capsys):
    """The default `verify --json` stdout stays byte-identical.

    A deliberate change to the output updates this pin, and CHANGES.md
    records what changed and the new sha256.
    """
    _, out, _ = run(capsys, ["--json"])
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_JSON_SHA256


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
    from shimura4.trianglestacks import MAX_DEPTH
    assert all(len(c) == MAX_DEPTH + 1 for c in cli.TILE_COUNTS.values())
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


def test_corrupted_data_dir_fails(tmp_path, capsys):
    import shutil
    from shimura4.cmtables import data_file_name
    from importlib import resources
    for n in (7, 9):
        src = resources.files("shimura4").joinpath("data", data_file_name(n))
        (tmp_path / data_file_name(n)).write_bytes(src.read_bytes())
    # corrupt one factorization digit in the x9 table
    p9 = tmp_path / "cm_x9.tsv"
    p9.write_text(p9.read_text(encoding="utf-8").replace("3^8*71^4", "3^8*73^4"),
                  encoding="utf-8")
    code, out, _ = run(capsys, ["cm-tables", "--data-dir", str(tmp_path)])
    assert code == 1
    assert "row-consistency-x9" in out
    assert "[FAIL]" in out


# malformed copies of the bundled tables: (file, text replaced, replacement)
MALFORMED = {
    "two-columns": ("cm_x7.tsv", "\t3.3.49.1\n", "\n"),
    "bad-label": ("cm_x7.tsv", "8.0.7834003547041.1", "8.0.x.1"),
    "bad-factorization": ("cm_x7.tsv", "7^4*239^4", "2^x"),
    "not-utf8": ("cm_x9.tsv", "3^8*71^4", "3^8*71^4\udcff"),
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


@pytest.mark.parametrize("precision", ["0", "-5", "-40", "14"])
def test_precision_below_floor_is_usage_error(capsys, precision):
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
    # a missing directory, an existing directory, an empty path
    for path in (str(tmp_path / "no-such-dir" / "x.svg"), str(tmp_path), ""):
        with pytest.raises(SystemExit) as exc:
            cli.main(["triangle", "--svg", path])
        assert exc.value.code == 2
        assert "--svg" in capsys.readouterr().err


def test_full_run_applies_each_plan_once(monkeypatch, capsys):
    calls = []

    def counting(plan):
        calls.append(plan.name)
        return apply_reduction(plan)
    monkeypatch.setattr(families, "apply_reduction", counting)
    code, _, _ = run(capsys, ["--json"])
    assert code == 0
    assert len(calls) == 7 == len(set(calls))


def test_failed_plan_fails_square_scalar_and_match(monkeypatch):
    def failing(plan):
        raise VerificationError("synthetic")
    monkeypatch.setattr(families, "apply_reduction", failing)
    checks = cli.suite_reductions9(None).checks
    assert [(c.id, c.status, c.actual) for c in checks[:2]] == [
        ("plane-at-0-square-scalar", "fail", "synthetic"),
        ("plane-at-0-match", "fail", "synthetic")]


def test_cli_import_loads_no_mpmath():
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, shimura4.cli; print('mpmath' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_cli_loads_only_the_modules_its_suites_run():
    # importing the cli loads no computation module; the triangle suite
    # loads the quaternion triple and what it rests on, not the families,
    # the CM tables or the hypergeometric data; and no run loads the
    # code-generating dataclasses module, the inspect module it pulls in,
    # or typing. -S keeps site out, since a .pth file it reads may load
    # typing before the package does
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import contextlib, io, json, sys\n"
        "import shimura4.cli\n"
        "after_import = sorted(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [shimura4.cli.main(['triangle', '--json'])]\n"
        "after_triangle = sorted(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes.append(shimura4.cli.main(['--json']))\n"
        "print(json.dumps([codes, after_import, after_triangle,\n"
        "                  sorted(sys.modules)]))\n")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    codes, after_import, after_triangle, after_all = json.loads(out.stdout)
    assert codes == [0, 0]
    for name in ("families", "cmtables", "hypergeom", "multipoly",
                 "numberfield", "quaternion"):
        assert f"shimura4.{name}" not in after_import
    for name in ("families", "cmtables", "hypergeom"):
        assert f"shimura4.{name}" not in after_triangle
    assert "shimura4.quaternion" in after_triangle
    assert "shimura4.families" in after_all
    assert "dataclasses" not in after_all
    assert "inspect" not in after_all
    assert "typing" not in after_all


def test_internal_error_exit_code(monkeypatch, capsys):
    def boom(opts):
        raise RuntimeError("synthetic")
    monkeypatch.setitem(cli.SUITES, "disc7", boom)
    code, _, err = run(capsys, ["disc7"])
    assert code == 3
    assert "internal error" in err

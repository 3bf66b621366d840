import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from _helpers import with_fields

from shimura4 import cli, families
from shimura4.families import VerificationError, apply_reduction
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


def test_label_rho_cannot_split_fails_its_row_promptly(tmp_path):
    # this label's integer leaves a 155-bit composite after its small
    # factors, which rho does not split within its budget: the row fails
    # label-matches-factorization and independent-refactorization, and the
    # run ends with its report instead of factoring without end
    from importlib import resources
    from shimura4.cmtables import data_file_name
    for n in (7, 9):
        src = resources.files("shimura4").joinpath("data", data_file_name(n))
        (tmp_path / data_file_name(n)).write_bytes(src.read_bytes())
    p7 = tmp_path / "cm_x7.tsv"
    p7.write_text(p7.read_text(encoding="utf-8").replace(
        "8.0.15077030712450721.1\t",
        "8.0.1999999999999999999999999999999999999995077030712450721.1\t"),
        encoding="utf-8")
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-m", "shimura4", "cm-tables", "--json", "--data-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=15, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 1, out.stderr
    checks = {c["id"]: c for s in json.loads(out.stdout)["suites"] for c in s["checks"]}
    assert checks["row-consistency-x7"]["status"] == "fail"
    assert checks["row-consistency-x7"]["actual"].startswith("2 failures")
    assert checks["row-consistency-x9"]["status"] == "pass"


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
    monkeypatch.setattr(families, "apply_reduction", counting)
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
    monkeypatch.setattr(families, "apply_reduction", failing)
    from shimura4.suites.reductions import suite_reductions9
    checks = suite_reductions9(None).checks
    assert [(c.id, c.status, c.actual) for c in checks[:2]] == [
        ("plane-at-0-square-scalar", "fail", "synthetic"),
        ("plane-at-0-match", "fail", "synthetic")]


def _run_with_plans(monkeypatch, capsys, n, plans, args):
    """Run the CLI with `plans` as the reduction plans of family n; return the
    exit code, the checks of the JSON report by id, and stderr."""
    original = families.reduction_plans
    monkeypatch.setattr(families, "reduction_plans",
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
    plans = families.reduction_plans(n)
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
    return with_fields(plan, steps=(families.SubstStep(assignments=(
        ("x", MultiPoly.constant(1, ("y", "u")), None), ("y", y, None), ("t", u, None))),))


@pytest.mark.parametrize("kind, reason", [
    ("constant-target", "reduced equation does not match the expected curve up to twist"),
    ("no-variable-left", "no variable but y is left for g"),
], ids=["constant-target", "no-variable-left"])
def test_bad_twist_plan_fails_only_its_match(monkeypatch, capsys, kind, reason):
    # a twist target with no variable, or a reduction that leaves g none,
    # fails only the plan's match, not the run, and the run still reports
    plans = families.reduction_plans(7)
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
    (k,) = [k for k, s in enumerate(steps) if isinstance(s, families.SquareCheck)]
    if kind == "square-root":
        # the declared root Y^3 - W on (Y, W), the equation on (Y, W, s)
        Y, W = MultiPoly.generators("Y", "W")
        steps[k] = with_fields(steps[k], root=Y ** 3 - W)
    elif kind == "divide":
        steps[k - 1] = with_fields(steps[k - 1], var="q")
    elif kind == "zero-denominator":
        (v, num, _), *rest = steps[0].assignments
        steps[0] = with_fields(steps[0], assignments=(
            (v, num, MultiPoly.zero(num.variables)), *rest))
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
    plans = families.reduction_plans(9)
    swapped = (_off_ring(plans[0], kind),) + plans[1:]
    code, checks, err = _run_with_plans(monkeypatch, capsys, 9, swapped, ["reductions9"])
    assert code == 1, err
    failed = [i for i, c in checks.items() if c["status"] == "fail"]
    assert failed == ["plane-at-0-square-scalar", "plane-at-0-match"]
    assert all(checks[i]["actual"].startswith("plane-at-0: ") for i in failed)


def test_plan_that_does_not_continue_its_first_fails_only_its_identity(monkeypatch, capsys):
    # the second plane-at-1 component without its first step: the family 9
    # identity fails with the reason, family 7 still runs, the run reports
    plans = families.reduction_plans(9)
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


def _loaded_after(args):
    """The package modules loaded in a fresh process (-S: no site, so no
    .pth file loads anything first) after `import shimura4.cli` and, with
    args, one run of cli.main(args); and whether fractions is loaded."""
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import contextlib, io, json, sys\n"
            "import shimura4.cli\n"
            f"args = {args!r}\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = shimura4.cli.main(args) if args else 0\n"
            "print(json.dumps([code, sorted(m for m in sys.modules\n"
            "                               if m.split('.')[0] == 'shimura4'),\n"
            "                  'fractions' in sys.modules]))\n")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    code, loaded, fractions = json.loads(out.stdout)
    assert code == 0
    return loaded, fractions


def test_cli_import_loads_only_the_dispatcher():
    # no suite, no computation module and not even fractions: the suites'
    # modules load when they run
    loaded, fractions = _loaded_after(None)
    assert loaded == ["shimura4", "shimura4.cli", "shimura4.record", "shimura4.report"]
    assert not fractions


# the package modules each suite loads when it runs alone, beyond the cli,
# its records, shimura4.suites and trianglestacks (whose MAX_DEPTH the
# command line checks --depth against)
SUITE_MODULES = {
    "disc7": ("suites.disc7", "families", "multipoly", "dense", "intfactor"),
    "reductions7": ("suites.reductions", "families", "multipoly", "dense", "intfactor"),
    "reductions9": ("suites.reductions", "families", "multipoly", "dense", "intfactor"),
    "arakelov": ("suites.arakelov", "families", "multipoly", "dense"),
    "quaternion": ("suites.quaternion", "quaternion", "numberfield", "dense"),
    "triangle": ("suites.triangle", "quaternion", "numberfield", "dense"),
    "hypergeometric": ("suites.hypergeometric", "hypergeom"),
    "cm-tables": ("suites.cm_tables", "cmtables", "intfactor"),
}


@pytest.mark.parametrize("suite", SUITE_MODULES)
def test_each_suite_alone_loads_its_own_modules(suite):
    assert list(SUITE_MODULES) == list(cli.SUITES)
    loaded, _ = _loaded_after([suite, "--json"])
    common = ("cli", "record", "report", "suites", "trianglestacks")
    assert loaded == sorted(["shimura4"] + [f"shimura4.{m}" for m in
                                            common + SUITE_MODULES[suite]])


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
    assert "dataclasses" not in after_all
    assert "inspect" not in after_all
    assert "typing" not in after_all
    # importing the families, as the plane elimination does, loads neither
    # the triangle stacks nor the integer factoring, which only some of the
    # families' checks call
    out = subprocess.run([sys.executable, "-S", "-c",
                          "import sys, shimura4.families; print(sorted(sys.modules))"],
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    assert "shimura4.trianglestacks" not in out.stdout
    assert "shimura4.intfactor" not in out.stdout


def test_internal_error_exit_code(monkeypatch, capsys):
    def boom(opts):
        raise RuntimeError("synthetic")
    monkeypatch.setitem(cli.SUITES, "disc7", boom)
    code, _, err = run(capsys, ["disc7"])
    assert code == 3
    assert "internal error" in err
    assert "disc7" in err

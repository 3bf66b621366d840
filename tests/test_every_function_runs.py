"""No code in `src/` that only its own unit test calls (ROADMAP aim 2): a
traced run of the commands users run calls every function the package
defines."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shimura4"

# kept on purpose as an independent transcription of the second family,
# which the tests compare with `c9_family`
KEPT = {"families.py:c9_family_flat_form"}

# a fresh process, so no cache filled by an earlier test hides a call: the
# profile hook sees every Python call from the first import on, by the
# file and first line of the code that runs
TRACED_RUN = """
import contextlib, io, json, sys
seen = set()

def hook(frame, event, arg):
    if event == "call":
        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(hook)
import shimura4.cli
from shimura4.families import c9_family
from shimura4.multipoly import discriminant
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for args in ([], ["--json"], ["triangle", "--depth", "12", "--svg", sys.argv[1]]):
        codes.append(shimura4.cli.main(args))
discriminant(discriminant(c9_family(), "W"), "Y")
sys.setprofile(None)
print(json.dumps([codes, sorted(seen)]))
"""


def _defined_functions() -> dict:
    """{(file, first line): 'module.py:name'} for every function and method
    the package defines, dunder methods left out. The first line is the
    one the code object reports: the first decorator's, if any."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                line = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[(str(path), line)] = f"{path.relative_to(PACKAGE)}:{node.name}"
    return out


def test_every_function_in_the_package_runs(tmp_path):
    defined = _defined_functions()
    assert KEPT <= set(defined.values())
    out = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(tmp_path / "disk.svg")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.returncode == 0, out.stderr
    codes, seen = json.loads(out.stdout)
    assert codes == [0, 0, 0]
    called = {(str(Path(file).resolve()), line) for file, line in seen}
    never = sorted(name for key, name in defined.items() if key not in called)
    assert never == sorted(KEPT)

"""Benchmark harness for shimura4.

    python3 bench/run.py --workload NAME --trace 0|1 [--seed N] [--seconds S]

Runs one workload as a closed loop with one caller: each iteration is a
fresh process, started only after the previous one has ended, so at most two
processes (this one and the iteration) run at once. Every iteration's output
is checked for exactness; an iteration that exits non-zero, fails its check
or times out counts as failed. Iterations repeat until --seconds have passed.

With --trace 0 the result holds the end-to-end metrics, measured with no
tracing installed. With --trace 1 traced iterations (bench/child.py under
bench/tracing.py) alternate with untraced ones, and the result holds the
per-layer metrics and the tracing overhead. --seconds 0 is the smoke mode:
one iteration of each kind.

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". The line before it records
the run: environment, seed, and every iteration's sample.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

from tracing import layer_values  # noqa: E402  (bench/ is sys.path[0])

PY = sys.executable
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

SETUP_MIN = 7           # timed imports per run at least, one per round
SETUP_TIMEOUT_S = 30
SPARE_S = 120           # a run ends by --seconds + this, whatever hangs
SHIFT = 3               # plane-elimination translations are drawn from [-3, 3]

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

SUITES = ("disc7", "reductions7", "reductions9", "arakelov", "quaternion",
          "triangle", "hypergeometric", "cm-tables")

PER_LAYER = (
    *((f"cli.suite_s.{suite}", "s", "lower") for suite in SUITES),
    ("families.c7_discriminant_s", "s", "lower"),
    ("families.apply_reduction_s", "s", "lower"),
    ("families.apply_reduction_calls", "count", "lower"),
    ("families.t1_fiber_split_c7_s", "s", "lower"),
    ("multipoly.discriminant_s", "s", "lower"),
    ("multipoly.resultant_s", "s", "lower"),
    ("multipoly.discriminant_calls", "count", "lower"),
    ("multipoly.substitute_s", "s", "lower"),
    ("multipoly.substitute_calls", "count", "lower"),
    ("multipoly.exact_div_s", "s", "lower"),
    ("multipoly.exact_div_calls", "count", "lower"),
    ("intfactor.factor_integer_s", "s", "lower"),
    ("intfactor.factor_integer_calls", "count", "lower"),
    ("numberfield.field_2cos_s", "s", "lower"),
    ("numberfield.sign_at_embedding_s", "s", "lower"),
    ("numberfield.sign_at_embedding_calls", "count", "lower"),
    ("numberfield.refine_embedding_calls", "count", "lower"),
    ("numberfield.elem_mul_calls", "count", "lower"),
    ("quaternion.uniformizer_triple_s", "s", "lower"),
    ("quaternion.projective_order_s", "s", "lower"),
    ("quaternion.split_real_places_s", "s", "lower"),
    ("quaternion.matrix_embedding_s", "s", "lower"),
    ("quaternion.mul_calls", "count", "lower"),
    ("trianglestacks.tessellate_s", "s", "lower"),
    ("trianglestacks.tiles", "count", "higher"),
    ("trianglestacks.dedup_comparisons", "count", "lower"),
    ("cmtables.verify_table_s", "s", "lower"),
    ("cmtables.rows", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
)

EXPECTED = json.loads((BENCH / "expected.json").read_text())


class SetupError(Exception):
    """The checkout cannot run the program; no result is printed."""


# ----------------------------------------------------------------------
# output checks: each returns None, or why the iteration failed


def check_report(stdout: bytes, state: dict, expected: dict):
    """A verify --json report: the same bytes on every iteration of the run,
    no failed check, and every expected check present with its status (or
    upgraded from flagged to pass) and, where given, its actual value."""
    if state.setdefault("stdout", stdout) != stdout:
        return "stdout differs from the first iteration of this run"
    found = {}
    for suite in json.loads(stdout)["suites"]:
        for c in suite["checks"]:
            found[f"{suite['name']}/{c['id']}"] = (c["status"], c["actual"])
    failed = sorted(key for key, (status, _) in found.items() if status == "fail")
    if failed:
        return f"failed checks: {', '.join(failed)}"
    for key, status in expected["checks"].items():
        if key not in found:
            return f"check {key} missing"
        if found[key][0] not in (status, "pass"):
            return f"check {key} is {found[key][0]}, expected {status}"
    for key, actual in expected.get("actual", {}).items():
        if found[key][1] != actual:
            return f"check {key} reads {found[key][1]!r}, expected {actual!r}"
    return None


def check_plane(stdout: bytes, state: dict, expected: dict):
    """The eliminant d(t), from the exact terms the child printed: a digest of
    those terms, the variables d involves, its t-degree, its orders at t = 0
    and t = 1, and the degree of what is left after dividing those out. This
    runs in the harness after the child has ended, so none of it is timed,
    and it uses no shimura4 code."""
    line = stdout.splitlines()[-1]
    variables, terms = json.loads(line)
    got = {"digest": hashlib.sha256(line).hexdigest(),
           "variables_used": [v for i, v in enumerate(variables)
                              if any(e[i] for e, _, _ in terms)]}
    if got["variables_used"] == ["t"]:
        t = variables.index("t")
        coeffs = {e[t]: Fraction(num, den) for e, num, den in terms}
        got["degree_t"], got["valuation_t"] = max(coeffs), min(coeffs)
        # d / t^valuation_t, highest degree first; divide by t - 1 while p(1) = 0
        p = [coeffs.get(k, 0) for k in range(got["degree_t"], got["valuation_t"] - 1, -1)]
        got["valuation_t_at_1"] = 0
        while len(p) > 1 and sum(p) == 0:
            p = list(itertools.accumulate(p[:-1]))
            got["valuation_t_at_1"] += 1
        got["cofactor_degree_t"] = len(p) - 1
    wrong = [f"{key} = {got.get(key)!r}, expected {value!r}"
             for key, value in expected.items() if got.get(key) != value]
    return "; ".join(wrong) or None


@dataclass
class Workload:
    name: str
    job: str            # "cli": a verify command line; "plane": bench/child.py plane
    args: Callable      # rng -> argument list
    check: Callable     # (stdout, state, expected) -> error or None


WORKLOADS = {w.name: w for w in (
    # The command users run, at the default depth: every layer, small inputs.
    Workload("verify-full", "cli", lambda rng: ["--json"], check_report),
    # Deepest tessellation allowed (MAX_DEPTH 8): the quadratic float dedup.
    Workload("tessellate-deep", "cli",
             lambda rng: ["triangle", "--depth", "8", "--json"], check_report),
    # disc_Y(disc_W G) of the plane family under a seeded translation:
    # a few subresultant steps with large coefficients.
    Workload("plane-elimination", "plane",
             lambda rng: [str(rng.randint(-SHIFT, SHIFT)),
                          str(rng.randint(-SHIFT, SHIFT))], check_plane),
)}


# ----------------------------------------------------------------------
# running one process


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    timed_out: bool
    stdout: bytes = field(repr=False)
    stderr: bytes = field(repr=False)


def run_process(argv: list, timeout: float) -> Sample:
    """Run argv to completion; CPU time and peak RSS are those of that
    process alone, from its own rusage."""
    with tempfile.TemporaryFile(dir=BENCH) as out, tempfile.TemporaryFile(dir=BENCH) as err:
        fired = threading.Event()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=ENV)

        def kill():
            fired.set()
            proc.kill()
        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                      proc.returncode, fired.is_set(), out.read(), err.read())


IMPORT_PROBE = (
    "import json, time\n"
    "start = time.perf_counter()\n"
    "import shimura4.cli\n"
    "print(json.dumps([time.perf_counter() - start, shimura4.cli.__file__]))\n")


def import_time() -> float:
    """Seconds a fresh interpreter takes to import shimura4.cli. Raises
    SetupError unless the package is the one under src/."""
    s = run_process([PY, "-c", IMPORT_PROBE], SETUP_TIMEOUT_S)
    if s.returncode != 0 or s.timed_out:
        raise SetupError(f"cannot import shimura4.cli from {SRC}: "
                         + s.stderr.decode(errors="replace").strip()[-500:])
    import_s, path = json.loads(s.stdout)
    if not Path(path).resolve().is_relative_to(SRC):
        raise SetupError(f"shimura4 imported from {path}, not from {SRC}")
    return import_s


def iteration(workload: Workload, args: list, state: dict, traced: bool,
              timeout: float) -> dict:
    """Run one iteration and check its output."""
    trace_path = None
    if traced:
        fd, trace_path = tempfile.mkstemp(dir=BENCH, prefix=".trace-", suffix=".json")
        os.close(fd)
        argv = [PY, str(BENCH / "child.py"), "--trace", trace_path, workload.job, *args]
    elif workload.job == "cli":
        argv = [PY, "-m", "shimura4", *args]
    else:
        argv = [PY, str(BENCH / "child.py"), workload.job, *args]
    try:
        s = run_process(argv, timeout)
        row = {"args": args, "traced": traced, "wall_s": s.wall_s, "cpu_s": s.cpu_s,
               "peak_rss_mb": s.peak_rss_mb, "error": None}
        if s.timed_out:
            row["error"] = f"timed out after {s.wall_s:.1f} s"
        elif s.returncode != 0:
            row["error"] = (f"exit code {s.returncode}: "
                            + s.stderr.decode(errors="replace").strip()[-500:])
        else:
            try:
                row["error"] = workload.check(s.stdout, state, EXPECTED[workload.name])
                if traced and row["error"] is None:
                    with open(trace_path) as f:
                        row["layers"] = layer_values(json.load(f))
            except (ValueError, KeyError, TypeError, IndexError) as e:
                row["error"] = f"unreadable output: {e!r}"
    finally:
        if trace_path is not None:
            os.unlink(trace_path)
    if row["error"]:
        print(f"{workload.name}: iteration failed: {row['error']}", file=sys.stderr)
    return row


# ----------------------------------------------------------------------
# one run


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        mpmath = metadata.version("mpmath")
    except metadata.PackageNotFoundError:
        mpmath = None
    return {"python": platform.python_version(), "mpmath": mpmath,
            "nproc": os.cpu_count(), "cpu": cpu}


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run(workload: Workload, seed: int, seconds: int, traced: bool) -> tuple:
    """One run: iterations for `seconds`. Each untraced round starts with an
    import probe, so the set-up samples span the same stretch of time as the
    iterations. Returns the result object and the record of the run."""
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(traced), **environment(), "loadavg_start": os.getloadavg()}
    started = time.perf_counter()
    import_time()       # untimed: fills the bytecode cache, checks the checkout
    rng = random.Random(f"{workload.name}:{seed}")
    state = {}
    rows, setup = [], []
    deadline = time.perf_counter() + seconds
    hard_deadline = deadline + SPARE_S
    while True:
        args = workload.args(rng)
        round_start = time.perf_counter()
        if traced:
            for kind in (False, True):
                rows.append(iteration(workload, args, state, kind,
                                      hard_deadline - time.perf_counter()))
        else:
            setup.append(import_time())
            rows.append(iteration(workload, args, state, False,
                                  hard_deadline - time.perf_counter()))
        now = time.perf_counter()
        if now + (now - round_start) > deadline:
            break
    while not traced and len(setup) < SETUP_MIN:
        setup.append(import_time())
    record["loadavg_end"] = os.getloadavg()
    record["run_s"] = time.perf_counter() - started
    record["setup_s"] = setup
    record["iterations"] = rows

    failed = sum(1 for r in rows if r["error"])
    plain = [r for r in rows if not r["traced"]]
    good = [r for r in plain if not r["error"]] or plain
    if traced:
        good_traced = [r for r in rows if r["traced"] and not r["error"]]
        metrics = {name: (statistics.median(r["layers"].get(name, 0) for r in good_traced)
                          if good_traced else 0)
                   for name, _, _ in PER_LAYER}
        if good_traced:
            metrics["trace.overhead_s"] = (
                statistics.median(r["wall_s"] for r in good_traced)
                - statistics.median(r["wall_s"] for r in good))
        units = PER_LAYER
    else:
        metrics = {"setup_s": statistics.median(setup)}
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[name] = statistics.median(r[name] for r in good)
        units = END_TO_END
    result = {"correct": failed == 0, "attempted": len(rows), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit, _ in units}}
    return result, record


def summary(result: dict, record: dict) -> str:
    """The run as text: every metric, and for the end-to-end ones the
    sample count and quartiles."""
    rows = [r for r in record["iterations"] if not r["traced"]]
    lines = [f"== {record['workload']}  seed {record['seed']}  "
             f"{'traced' if record['trace'] else 'untraced'}  "
             f"load {record['loadavg_start'][0]:.2f} -> {record['loadavg_end'][0]:.2f}",
             f"  {'fail_ratio':<40} {result['failed']}/{result['attempted']}"]
    samples = {"setup_s": record["setup_s"]}
    for name in ("wall_s", "cpu_s", "peak_rss_mb"):
        samples[name] = [r[name] for r in rows]
    for name, m in result["metrics"].items():
        line = f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6}"
        if name in samples:
            q = quartiles(samples[name])
            line += (f" median of {len(samples[name])}"
                     f" (p25 {q[0]:.4g}, p75 {q[2]:.4g})")
        lines.append(line)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Benchmark shimura4: end-to-end metrics untraced, "
                    "per-layer metrics traced.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40,
                        help="time spent on iterations per run; 0 runs one")
    opts = parser.parse_args(argv)
    if opts.seconds < 0:
        parser.error("--seconds must be >= 0")
    try:
        result, record = run(WORKLOADS[opts.workload], opts.seed, opts.seconds,
                             bool(opts.trace))
    except SetupError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    print(summary(result, record))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

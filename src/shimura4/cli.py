"""Command line entry point: recompute and verify the numbered claims.

Usage:  verify [suite] [--json] [--depth N] [--precision P]
               [--data-dir DIR] [--svg PATH]

Suites: all (default), disc7, reductions7, reductions9, arakelov,
quaternion, triangle, hypergeometric, cm-tables.

Exit codes: 0 all checks passed (flagged-only runs count as success),
1 at least one check failed, 2 usage error, 3 internal error (stderr
names the suite that raised it).

This module parses the arguments, runs the suites and renders the report.
Each suite's checks and frozen expected values live in its own module
under `shimura4.suites`.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module

from . import __version__
from .report import VerificationReport

# A suite's module is imported only when the suite runs, and it imports the
# modules the suite checks. So a command compiles and loads only what its
# suites need: `triangle` never loads the families, the CM tables, the
# polynomial ring or the integer factoring, and loads the drawing only with
# --svg.

# the matrix-trace checks print a certified enclosure of 2 cos(pi/n) that
# is narrower than 10^-precision; below this many digits it would say less
# than a double does
MIN_PRECISION = 15


def _suite(module: str, function: str):
    """The suite `function` of shimura4.suites.<module>, as a callable
    opts -> Suite that imports its module when it is called."""
    def run(opts):
        return getattr(import_module(f"{__package__}.suites.{module}"), function)(opts)
    return run


SUITES = {
    "disc7": _suite("disc7", "suite_disc7"),
    "reductions7": _suite("reductions", "suite_reductions7"),
    "reductions9": _suite("reductions", "suite_reductions9"),
    "arakelov": _suite("arakelov", "suite_arakelov"),
    "quaternion": _suite("quaternion", "suite_quaternion"),
    "triangle": _suite("triangle", "suite_triangle"),
    "hypergeometric": _suite("hypergeometric", "suite_hypergeometric"),
    "cm-tables": _suite("cm_tables", "suite_cm_tables"),
}


class InternalError(Exception):
    """A suite raised instead of returning its checks: a fault in the
    package, not a failed check (exit 3)."""


def build_report(suite_name: str, opts) -> VerificationReport:
    names = list(SUITES) if suite_name == "all" else [suite_name]
    suites = []
    for name in names:
        try:
            suites.append(SUITES[name](opts))
        except Exception as e:
            raise InternalError(f"internal error in suite {name}: {e}") from e
    return VerificationReport(__version__, tuple(suites))


def main(argv=None) -> int:
    from .trianglestacks import MAX_DEPTH
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Recompute and verify the arithmetic facts about the "
                    "two genus-4 families and their triangle stacks.")
    parser.add_argument("suite", nargs="?", default="all",
                        choices=["all"] + sorted(SUITES))
    parser.add_argument("--json", action="store_true",
                        help="emit a deterministic JSON report")
    parser.add_argument("--depth", type=int, default=4,
                        help="tessellation depth, 0 to "
                             f"{MAX_DEPTH} (default 4)")
    parser.add_argument("--precision", type=int, default=30,
                        help="digits of the certified 2 cos(pi/n) enclosures "
                             f"the matrix-trace checks print, at least "
                             f"{MIN_PRECISION} (default 30)")
    parser.add_argument("--data-dir", default=None,
                        help="directory holding replacement cm_x7.tsv and "
                             "cm_x9.tsv")
    parser.add_argument("--svg", default=None, metavar="PATH",
                        help="also render the (2,3,7) tessellation to PATH; "
                             "only with the triangle suite or all")
    parser.add_argument("--version", action="version", version=__version__)
    opts = parser.parse_args(argv)
    if not 0 <= opts.depth <= MAX_DEPTH:
        parser.error(f"--depth must be between 0 and {MAX_DEPTH}")
    if opts.precision < MIN_PRECISION:
        parser.error(f"--precision must be at least {MIN_PRECISION}")
    if opts.data_dir is not None:
        from . import cmtables
        for n in (7, 9):
            try:
                cmtables.load_table(n, opts.data_dir)
            except (OSError, cmtables.CMTableError) as e:
                parser.error(f"--data-dir {opts.data_dir}: {e}")
    if opts.svg is not None:
        if opts.suite not in ("triangle", "all"):
            parser.error(f"--svg: the {opts.suite} suite draws nothing")
        svg_dir = os.path.dirname(opts.svg) or "."
        if not opts.svg:
            parser.error("--svg: empty path")
        if os.path.isdir(opts.svg):
            parser.error(f"--svg {opts.svg}: is a directory")
        if not os.path.isdir(svg_dir):
            parser.error(f"--svg {opts.svg}: no directory {svg_dir}")

    try:
        report = build_report(opts.suite, opts)
    except InternalError as e:  # distinct from check failures
        print(e, file=sys.stderr)
        return 3
    print(report.to_json() if opts.json else report.to_text())
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())

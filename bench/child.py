"""One iteration of a benchmark job, run by bench/run.py as a fresh process.

    python bench/child.py [--trace FILE] plane SHIFT_Y SHIFT_W
    python bench/child.py [--trace FILE] cli [verify arguments]

`plane` eliminates W and then Y from the plane family translated by
Y -> Y + SHIFT_Y, W -> W + SHIFT_W, and prints the exact result as one JSON
line, [variables, sorted terms]; bench/run.py checks it after this process
has ended, so the check is not part of the timed work. `cli` runs the
verify command in this process (`python -m shimura4` does the same without
the tracer). With --trace, the job runs under the benchmark's tracer and
the recorded spans are written to FILE.
"""

from __future__ import annotations

import argparse
import json
import sys


def plane_elimination(shift_y: int, shift_w: int):
    """disc_Y(disc_W G) for G the translated plane family. Discriminants
    are translation invariant, so every shift gives the same result."""
    from shimura4 import families, multipoly
    from shimura4.multipoly import MultiPoly

    f = families.c9_family()
    y = MultiPoly.variable("Y", f.variables)
    w = MultiPoly.variable("W", f.variables)
    g, _ = f.substitute({"Y": y + shift_y, "W": w + shift_w})
    return multipoly.discriminant(multipoly.discriminant(g, "W"), "Y")


def exact_terms(d) -> list:
    """[variables, terms] of d, each term [exponents, numerator, denominator],
    sorted by exponents: a form that does not depend on how d prints."""
    return [list(d.variables),
            [[list(e), c.numerator, c.denominator] for e, c in sorted(d.terms.items())]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("--trace", metavar="FILE")
    parser.add_argument("job", choices=["plane", "cli"])
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)

    tracer = None
    if opts.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        if opts.job == "cli":
            from shimura4 import cli
            return cli.main(opts.args)
        shift_y, shift_w = (int(a) for a in opts.args)
        d = plane_elimination(shift_y, shift_w)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(opts.trace)
    print(json.dumps(exact_terms(d)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

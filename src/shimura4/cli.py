"""Command line entry point: recompute and verify the numbered claims.

Usage:  verify [suite] [--json] [--depth N] [--precision P]
               [--data-dir DIR] [--svg PATH]

Suites: all (default), disc7, reductions7, reductions9, arakelov,
quaternion, triangle, hypergeometric, cm-tables.

Exit codes: 0 all checks passed (flagged-only runs count as success),
1 at least one check failed, 2 usage error, 3 internal error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction as F

from . import __version__
from . import trianglestacks
from .report import Check, FLAGGED, GIVEN, PASS, RECOMPUTED, Suite, VerificationReport

# Each suite imports the modules it runs on, so a command loads only what
# its suites need: `triangle` never loads the families, the CM tables, the
# polynomial ring or the integer factoring, and loads the drawing only with
# --svg.

# the matrix-trace checks print a certified enclosure of 2 cos(pi/n) that
# is narrower than 10^-precision; below this many digits it would say less
# than a double does
MIN_PRECISION = 15

# exact tile counts by depth 0 .. trianglestacks.MAX_DEPTH
TILE_COUNTS = {
    (2, 3, 7): (1, 6, 15, 31, 55, 88, 136, 203, 295, 424, 602, 848, 1190),
    (2, 3, 9): (1, 6, 15, 31, 59, 104, 174, 287, 468, 755, 1210, 1936, 3091),
}


def suite_disc7(opts) -> Suite:
    from . import families
    from .intfactor import factorization_string
    s = Suite("disc7")
    rep = families.c7_discriminant()
    s.add(Check.equal("t-valuation", 54, rep.t_valuation))
    s.add(Check.equal("t-minus-1-valuation", 12, rep.t1_valuation))
    s.add(Check.equal("model-constant-factorization", "2^20*3^36*7^10",
                      factorization_string(rep.constant_factors)))
    s.add(Check.equal("curve-constant-factorization", "2^36*3^36*7^10",
                      factorization_string(rep.curve_constant_factors),
                      citation=GIVEN + "; model constant times 2^16 = 2^(4g)"))
    smooth_ok = (not families.is_smooth_fiber_c7(0)
                 and not families.is_smooth_fiber_c7(1)
                 and all(families.is_smooth_fiber_c7(t)
                         for t in (2, -1, F(1, 2), F(27, 16))))
    s.add(Check.predicate("singular-fibers-exactly-0-1", smooth_ok,
                          "vanishing only at t = 0, 1",
                          "checked at 0, 1, 2, -1, 1/2, 27/16"))
    return s


def _plan_checks(plan, square_scalar=None) -> list:
    """The checks of one run of a reduction plan: `<name>-square-scalar`
    first when a square scalar is expected, then the match."""
    from . import families
    try:
        rep = families.apply_reduction(plan)
    except families.VerificationError as e:
        square = Check(f"{plan.name}-square-scalar", "fail", str(square_scalar), str(e))
        match = Check(f"{plan.name}-match", "fail", "verified reduction", str(e))
    else:
        square = Check.equal(f"{plan.name}-square-scalar", square_scalar,
                             rep.square_scalar)
        match = _match_check(plan, rep)
    return [match] if square_scalar is None else [square, match]


def _match_check(plan, rep) -> Check:
    kind = rep.match[0]
    if kind == "twist":
        _, c, lam = rep.match
        return Check.predicate(
            f"{plan.name}-match", True,
            f"equals c * target(lambda x) for rational c, lambda; "
            f"target {plan.expected}",
            f"c = {c}, lambda = {lam}")
    if kind == "proportional":
        _, r = rep.match
        return Check.predicate(
            f"{plan.name}-match", True,
            f"proportional to target {plan.expected}", f"ratio = {r}")
    # display-gap: verified up to the documented deviation
    _, scale, w_ratio = rep.match
    return Check(f"{plan.name}-display", FLAGGED,
                 f"given display {plan.expected}",
                 f"computed {rep.reduced}; W-free part matches at scale "
                 f"{scale}, W^3 ratio {w_ratio} (no rational cube root of "
                 f"{w_ratio}/{scale}); same curve over the closure",
                 citation=GIVEN)


def suite_reductions7(opts) -> Suite:
    from . import families
    s = Suite("reductions7")
    for plan in families.reduction_plans(7):
        s.add(*_plan_checks(plan))
    split = families.t1_fiber_split_c7()
    s.add(Check.equal("t1-multiplicity-structure", [1, 7],
                      sorted(m for _, m in split.multiplicities)))
    e = split.elliptic
    s.add(Check.equal("t1-elliptic-j-invariant", F(-3375), e.j, citation=GIVEN))
    s.add(Check.equal("t1-elliptic-target-j", e.target_j, e.j))
    s.add(Check.equal("t1-elliptic-twist-constant", F(-7, 16), e.twist))
    return s


def suite_reductions9(opts) -> Suite:
    from .families import reduction_plans
    s = Suite("reductions9")
    plan0, *plans = reduction_plans(9)
    s.add(*_plan_checks(plan0, square_scalar=F(-9)))
    for plan in plans:
        s.add(*_plan_checks(plan))
    s.add(Check("ramification-degree-at-1", FLAGGED,
                "7 (given)",
                "9 (executed: two stacked degree-3 base changes)",
                citation=GIVEN))
    s.add(Check("plane-family-discriminant", FLAGGED,
                "2^72*3^34*t^52*(t-1)^28",
                "recorded only; no independent plane-model discriminant "
                "computation in this package",
                citation=GIVEN))
    return s


def suite_arakelov(opts) -> Suite:
    from . import families
    s = Suite("arakelov")
    expected = {
        7: {"hyperelliptic-at-0": F(-6), "hyperelliptic-at-1": F(-9, 7),
            "hyperelliptic-at-infinity": F(22, 3)},
        9: {"plane-at-0": F(-6), "plane-at-1": F(-29, 9),
            "plane-at-infinity": F(28, 3)},
    }
    degrees = {7: (F(1, 42), F(1, 84)), 9: (F(1, 18), F(1, 36))}
    for n in (7, 9):
        rep = families.arakelov_check(n)
        for name, c in rep.contributions:
            s.add(Check.equal(f"weight-{n}-{name}", expected[n][name], c))
        s.add(Check.equal(f"hodge-degree-{n}", degrees[n][0], rep.degree))
        s.add(Check.equal(f"stack-degree-{n}", degrees[n][1], rep.stack_degree))
        s.add(Check.predicate(f"degree-identity-{n}", rep.equal,
                              "2 * hodge degree == 4 * stack degree",
                              f"{rep.lhs} == {rep.rhs}"))
    return s


def _decimal(k: int, digits: int) -> str:
    """k / 10^digits written out with all its digits."""
    q, r = divmod(abs(k), 10 ** digits)
    return f"{'-' if k < 0 else ''}{q}.{r:0{digits}d}"


def _trace_check(trip, precision: int) -> Check:
    """matrix-trace-n, exactly: at the split place 0, delta_r has trace
    sigma_0(trd delta_r), and that is 2 cos(pi/n), the largest root of g =
    minpoly_2cos(2n), when trd(delta_r) = -v, g(-v) = 0 in K, and
    sigma_0(-v) lies above g's second-largest root."""
    from .numberfield import isolate_real_roots, minpoly_2cos, refine_interval
    n = trip.n
    K = trip.algebra.field
    minus_v = -K.gen()
    g = minpoly_2cos(2 * n)
    *_, (_, second_hi), (lo, hi) = isolate_real_roots(g)
    facts = {
        "trd(delta_r) = -v": trip.delta_r.reduced_trace() == minus_v,
        "g(-v) = 0": sum((c * minus_v ** k for k, c in enumerate(g)),
                          K.zero()).is_zero(),
        "sigma_0(-v) above the second root of g":
            (minus_v - second_hi).sign_at_embedding(0) > 0,
    }
    failed = [fact for fact, ok in facts.items() if not ok]
    if failed:
        actual = "not shown: " + "; ".join(failed)
    else:
        # once sigma_0(-v) is known to be g's largest root, its enclosure is
        # refined on g's own isolating interval: the field's cached root
        # intervals depend on what ran before, this one does not
        digits = precision + 1
        lo, hi = refine_interval(g, lo, hi, F(1, 10 ** digits))
        actual = (f"sigma_0(-v) in [{_decimal(math.floor(lo * 10 ** digits), digits)}, "
                  f"{_decimal(math.ceil(hi * 10 ** digits), digits)}]")
    return Check.predicate(
        f"matrix-trace-{n}", not failed,
        f"trd(delta_r) = -v and sigma_0(-v) = 2 cos(pi/{n}), the largest "
        f"root of minpoly_2cos({2 * n})", actual)


def suite_quaternion(opts) -> Suite:
    from .quaternion import uniformizer_triple
    s = Suite("quaternion")
    for n in (7, 9):
        trip = uniformizer_triple(n)
        alg = trip.algebra
        one = alg.one()
        fone = alg.field.one()
        dp, dq, dr = trip.delta_p, trip.delta_q, trip.delta_r
        nu = alg.field.gen()
        ok = (dp * dp == -one and dq * dq * dq == -one
              and dr * dq * dp == one and dr ** n == -one
              and dr * dr + (dr * nu) + one == alg.zero()
              and dq.reduced_trace() == fone and dq.reduced_norm() == fone)
        s.add(Check.predicate(f"defining-identities-{n}", bool(ok),
                              "six exact identities hold",
                              "verified in exact arithmetic"))
        orders = (dp.projective_order(), dq.projective_order(),
                  dr.projective_order())
        s.add(Check.equal(f"projective-orders-{n}", (2, 3, n), orders))
        places = alg.split_real_places()
        s.add(Check.equal(f"split-places-{n}", [0], places,
                          citation=RECOMPUTED + "; index 0 is the most "
                          "negative embedding of the generator"))
        s.add(_trace_check(trip, opts.precision))
    return s


def suite_triangle(opts) -> Suite:
    s = Suite("triangle")
    for n in (7, 9):
        t = trianglestacks.classify(2, 3, n)
        s.add(Check.equal(f"classification-2-3-{n}", "hyperbolic", t.kind))
        s.add(Check.equal(f"excess-2-3-{n}",
                          {7: F(1, 42), 9: F(1, 18)}[n], t.excess))
        s.add(Check.equal(f"canonical-degree-2-3-{n}",
                          {7: F(1, 84), 9: F(1, 36)}[n],
                          trianglestacks.canonical_degree(2, 3, n)))
        s.add(Check.equal(f"bezout-weights-2-{n}",
                          {7: (4, 1), 9: (5, 1)}[n],
                          trianglestacks.bezout_weights(2, n)))
        prod, den = trianglestacks.relation_product(2, 3, n)
        size = len(prod)
        off = sum(prod[i][j] != (den ** 3 if i == j else 0)
                  for i in range(size) for j in range(size))
        s.add(Check.predicate(
            f"generator-relation-2-3-{n}", off == 0,
            "M_r M_q M_p = den^3 I on the integer search matrices",
            f"{size}x{size}, den = {den}: "
            + ("holds exactly" if off == 0 else f"{off} entries differ")))
        depth = opts.depth
        svg = opts.svg if n == 7 else None
        count = trianglestacks.tessellate(2, 3, n, depth=depth, svg_path=svg)
        s.add(Check.equal(f"tile-count-2-3-{n}-depth-{depth}",
                          TILE_COUNTS[(2, 3, n)][depth], count))
        if svg:
            ok = os.path.exists(svg) and os.path.getsize(svg) > 0
            s.add(Check.predicate("svg-written", ok, f"file at {svg}",
                                  "written" if ok else "missing"))
    return s


def suite_hypergeometric(opts) -> Suite:
    from . import hypergeom
    s = Suite("hypergeometric")
    exp = {7: (13, 29, 43, 83), 9: (5, 13, 19, 35)}
    counts = {7: {0: 8, 1: 8, 2: 8}, 9: {0: 4, 1: 4, 2: 4}}
    stab = {7: (1, 41, 55, 71), 9: (1, 17)}
    sums = {7: (24, 83), 9: (12, 35)}
    for n in (7, 9):
        d = hypergeom.hypergeometric_data(n)
        s.add(Check.equal(f"exponents-{n}", exp[n], d.exponents))
        s.add(Check.equal(f"derived-exponent-{n}", d.level - 1, d.exponents[3]))
        s.add(Check.equal(f"invariant-counts-{n}", counts[n],
                          hypergeom.invariant_counts(d)))
        s.add(Check.predicate(f"duality-{n}", hypergeom.duality_holds(d),
                              "d(N-i) = 2 - d(i) over all units", "holds"))
        s.add(Check.equal(f"stabilizer-{n}", stab[n], hypergeom.stabilizer(d)))
        s.add(Check.equal(f"unit-sum-{n}", sums[n][0], hypergeom.unit_sum(d)))
        s.add(Check.equal(f"full-sum-{n}", sums[n][1], hypergeom.full_sum(d)))
    return s


BUNDLED_SHA = {
    7: "9fe02775fe804cd25bf61dda9b27379b9e845dcb51aa860e2f914412f2ed9263",
    9: "a660f9f6491960c0d19bcce61268ffb84dc9edcb0aebd5957d3c93967e9a525b",
}


def suite_cm_tables(opts) -> Suite:
    from . import cmtables
    s = Suite("cm-tables")
    for n in (7, 9):
        rep = cmtables.verify_table(n, data_dir=opts.data_dir)
        s.add(Check.equal(f"row-count-x{n}", rep.expected_row_count,
                          rep.row_count))
        s.add(Check.predicate(f"no-duplicate-rows-x{n}", not rep.duplicates,
                              "all field labels distinct",
                              f"{len(rep.duplicates)} duplicates"))
        bad = [f for f in rep.findings if not f.ok]
        s.add(Check.predicate(
            f"row-consistency-x{n}", not bad,
            f"{len(rep.findings)} checks over {rep.row_count} rows all pass",
            "all pass" if not bad
            else f"{len(bad)} failures, first: {bad[0].row} {bad[0].check}"))
        if opts.data_dir is None:
            s.add(Check.equal(f"input-checksum-x{n}", BUNDLED_SHA[n],
                              rep.checksum, citation=GIVEN))
        else:
            s.add(Check(f"input-checksum-x{n}", PASS, "(custom data dir)",
                        rep.checksum, citation=GIVEN))
    return s


SUITES = {
    "disc7": suite_disc7,
    "reductions7": suite_reductions7,
    "reductions9": suite_reductions9,
    "arakelov": suite_arakelov,
    "quaternion": suite_quaternion,
    "triangle": suite_triangle,
    "hypergeometric": suite_hypergeometric,
    "cm-tables": suite_cm_tables,
}


def build_report(suite_name: str, opts) -> VerificationReport:
    rep = VerificationReport(__version__)
    names = list(SUITES) if suite_name == "all" else [suite_name]
    for name in names:
        rep.add_suite(SUITES[name](opts))
    return rep


def main(argv=None) -> int:
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
                             f"{trianglestacks.MAX_DEPTH} (default 4)")
    parser.add_argument("--precision", type=int, default=30,
                        help="digits of the certified 2 cos(pi/n) enclosures "
                             f"the matrix-trace checks print, at least "
                             f"{MIN_PRECISION} (default 30)")
    parser.add_argument("--data-dir", default=None,
                        help="directory holding replacement cm_x7.tsv and "
                             "cm_x9.tsv")
    parser.add_argument("--svg", default=None, metavar="PATH",
                        help="also render the (2,3,7) tessellation to PATH")
    parser.add_argument("--version", action="version", version=__version__)
    opts = parser.parse_args(argv)
    if not 0 <= opts.depth <= trianglestacks.MAX_DEPTH:
        parser.error(f"--depth must be between 0 and {trianglestacks.MAX_DEPTH}")
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
        svg_dir = os.path.dirname(opts.svg) or "."
        if not opts.svg:
            parser.error("--svg: empty path")
        if os.path.isdir(opts.svg):
            parser.error(f"--svg {opts.svg}: is a directory")
        if not os.path.isdir(svg_dir):
            parser.error(f"--svg {opts.svg}: no directory {svg_dir}")

    try:
        report = build_report(opts.suite, opts)
    except Exception as e:  # internal error, distinct from check failures
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    print(report.to_json() if opts.json else report.to_text())
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())

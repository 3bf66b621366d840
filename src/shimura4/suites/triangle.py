"""The triangle suite: the (2, 3, 7) and (2, 3, 9) triangle stacks, their
generator relation on the integer search matrices, and the tile counts of
the disk tessellation at the requested depth."""

from __future__ import annotations

import os
from fractions import Fraction as F

from .. import trianglestacks
from ..report import Check, Suite

# exact tile counts by depth 0 .. shimura4.MAX_DEPTH
TILE_COUNTS = {
    7: (1, 6, 15, 31, 55, 88, 136, 203, 295, 424, 602, 848, 1190),
    9: (1, 6, 15, 31, 59, 104, 174, 287, 468, 755, 1210, 1936, 3091),
}


def suite_triangle(opts) -> Suite:
    checks = []
    for n in (7, 9):
        t = trianglestacks.classify(2, 3, n)
        prod, den = trianglestacks.relation_product(n)
        size = len(prod)
        off = sum(prod[i][j] != (den ** 3 if i == j else 0)
                  for i in range(size) for j in range(size))
        depth = opts.depth
        svg = opts.svg if n == 7 else None
        count = trianglestacks.tessellate(n, depth=depth, svg_path=svg)
        checks += [
            Check.equal(f"classification-2-3-{n}", "hyperbolic", t.kind),
            Check.equal(f"excess-2-3-{n}", {7: F(1, 42), 9: F(1, 18)}[n], t.excess),
            Check.equal(f"canonical-degree-2-3-{n}", {7: F(1, 84), 9: F(1, 36)}[n],
                        trianglestacks.canonical_degree(2, 3, n)),
            Check.equal(f"bezout-weights-2-{n}", {7: (4, 1), 9: (5, 1)}[n],
                        trianglestacks.bezout_weights(2, n)),
            Check.predicate(
                f"generator-relation-2-3-{n}", off == 0,
                "M_r M_q M_p = den^3 I on the integer search matrices",
                f"{size}x{size}, den = {den}: "
                + ("holds exactly" if off == 0 else f"{off} entries differ")),
            Check.equal(f"tile-count-2-3-{n}-depth-{depth}", TILE_COUNTS[n][depth], count),
        ]
        if svg:
            ok = os.path.exists(svg) and os.path.getsize(svg) > 0
            checks.append(Check.predicate("svg-written", ok, f"file at {svg}",
                                          "written" if ok else "missing"))
    return Suite("triangle", tuple(checks))

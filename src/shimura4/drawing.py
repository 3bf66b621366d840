"""Drawing of the triangle tessellations: floats only, never a decision.

The tiles that `trianglestacks` counts, drawn from the same six exact
generators (`trianglestacks._generators`). The only float step evaluates
each quaternion at the split real place where delta_r turns by 2 pi/n, as
a real 2x2 matrix acting on the upper half plane. The base triangle's
vertices are the fixed points of delta_p, delta_q and delta_r, each tile's
vertices are its generator applied to its parent's, and a Cayley map sends
delta_p's fixed point to 0 in the Poincare disk, where an SVG renders the
tiles with true geodesic arcs. `tessellate` loads this module only when it
is asked to draw.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .numberfield import isolate_real_roots, refine_interval

# ----------------------------------------------------------------------
# geometry: the generators at the split real place, as real (a, b, c, d)
# for the matrix ((a, b), (c, d)) acting on the upper half plane


def _real_matrices(gens: list) -> list:
    """Each x0 + x1 i + x2 j + x3 k of (-1, b / K) at the split real place
    sigma, with i -> ((0, -1), (1, 0)) and j -> diag(s, -s), s = sqrt(sigma(b)):
    ((x0 + x2 s, x3 s - x1), (x1 + x3 s, x0 - x2 s)), of determinant the
    reduced norm."""
    alg = gens[0].algebra
    # the place of the least root, sigma(v) = -2 cos(pi/n), splits for every
    # n >= 7, and there delta_r turns by 2 pi/n; the algebra of a
    # non-arithmetic triple splits at more places (n = 13 at two), where
    # delta_r turns by another multiple of 2 pi/n and draws no tiling
    place = alg.split_real_places()[0]
    m = alg.field.min_poly
    lo, hi = refine_interval(m, *isolate_real_roots(m)[place], Fraction(1, 2 ** 60))
    v = float((lo + hi) / 2)

    def at(x) -> float:
        return sum(float(c) * v ** k for k, c in enumerate(x.coords))

    s = math.sqrt(at(alg.b))
    out = []
    for g in gens:
        x0, x1, x2, x3 = map(at, g.coords)
        out.append((x0 + x2 * s, x3 * s - x1, x1 + x3 * s, x0 - x2 * s))
    return out


def _fixed_point(m: tuple) -> complex:
    """The fixed point in the upper half plane of an elliptic m of
    determinant 1: a root of c z^2 + (d - a) z - b."""
    a, b, c, d = m
    z = complex(a - d, math.sqrt(4 - (a + d) ** 2)) / (2 * c)
    return z if z.imag > 0 else z.conjugate()


def _tile_vertices(gens: list, tiles: list) -> list:
    """The vertices in the unit disk of each tile of `tiles`, the search tree
    of `trianglestacks._tile_tree` over the generators `gens`."""
    mats = _real_matrices(gens)
    verts = [[_fixed_point(mats[k]) for k in (0, 2, 4)]]
    for parent, gi, _ in tiles[1:]:
        a, b, c, d = mats[gi]
        verts.append([(a * z + b) / (c * z + d) for z in verts[parent]])
    zp = verts[0][0]
    return [[(z - zp) / (z - zp.conjugate()) for z in tri] for tri in verts]


# ----------------------------------------------------------------------
# SVG rendering


def _geodesic_arc(z1: complex, z2: complex) -> str:
    """SVG path segment from z1 to z2 along the disk geodesic.

    The geodesic through z1, z2 is the circle orthogonal to the unit circle:
    center c with 2 Re(conj(c) z_i) = |z_i|^2 + 1. Near-diametral pairs fall
    back to a straight line.
    """
    x1, y1 = z1.real, z1.imag
    x2, y2 = z2.real, z2.imag
    det = 2 * (x1 * y2 - x2 * y1)
    if abs(det) < 1e-12:
        return f"L {x2:.6f} {y2:.6f}"
    r1 = abs(z1) ** 2 + 1
    r2 = abs(z2) ** 2 + 1
    cx = (r1 * y2 - r2 * y1) / det
    cy = (r2 * x1 - r1 * x2) / det
    rad = math.sqrt(max(cx * cx + cy * cy - 1, 0.0))
    if rad < 1e-6 or rad > 1e4:
        return f"L {x2:.6f} {y2:.6f}"
    # sweep flag: with large-arc 0 and sweep 1 the center sits at
    # midpoint + k*((y1-y2)/2, -(x1-x2)/2), k >= 0; match it to our center
    mx, my = (x1 + x2) / 2, (y1 + y2) / 2
    vx, vy = (y1 - y2) / 2, -(x1 - x2) / 2
    sweep = 1 if (cx - mx) * vx + (cy - my) * vy > 0 else 0
    return f"A {rad:.6f} {rad:.6f} 0 0 {sweep} {x2:.6f} {y2:.6f}"


def render_svg(path: str, gens: list, tiles: list) -> None:
    """Draw the tiles of a tessellation to an SVG file at path.

    `gens` are the six quaternions of `trianglestacks._generators`, and
    `tiles` is the search tree of `trianglestacks._tile_tree` over them:
    entry i is (parent, generator, word length), so tile i is generator
    `generator` applied to tile `parent`. Tiles are two-colored by
    word-length parity (a rendering choice: neighboring depths alternate
    shade).
    """
    paths = []
    for (za, zb, zc), (_, _, length) in zip(_tile_vertices(gens, tiles), tiles):
        fill = "#355f8d" if length % 2 == 0 else "#9fc5e8"
        d = (f"M {za.real:.6f} {za.imag:.6f} "
             + _geodesic_arc(za, zb) + " "
             + _geodesic_arc(zb, zc) + " "
             + _geodesic_arc(zc, za) + " Z")
        paths.append(f'<path d="{d}" fill="{fill}" stroke="#1a2a3a" stroke-width="0.004"/>')
    body = "\n".join(paths)
    svg = (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.05 -1.05 2.1 2.1">\n'
        '<circle cx="0" cy="0" r="1" fill="#f4f6f8" stroke="#444" stroke-width="0.006"/>\n'
        f"{body}\n</svg>\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)

"""Drawing of the triangle tessellations: floats only, never a decision.

The standard geodesic triangle in the Poincare disk, rotation generators in
SU(1,1) around its vertices, and an SVG rendering of the tiles that
`trianglestacks` counts exactly, with true geodesic arcs. `tessellate`
loads this module only when it is asked to draw.
"""

from __future__ import annotations

import cmath
import math

from .trianglestacks import TriangleError, classify

# ----------------------------------------------------------------------
# geometry: SU(1,1) as 2x2 complex tuples ((a, b), (c, d))

Mat = tuple


def mat_mul(A: Mat, B: Mat) -> Mat:
    return ((A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
            (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]))


def mat_inv(M: Mat) -> Mat:
    # det = 1 for SU(1,1)
    return ((M[1][1], -M[0][1]), (-M[1][0], M[0][0]))


def mat_apply(M: Mat, z: complex) -> complex:
    return (M[0][0] * z + M[0][1]) / (M[1][0] * z + M[1][1])


def mat_dist(A: Mat, B: Mat) -> float:
    """min over sign of the max-entry distance; SU(1,1) acts through +-I."""
    d1 = max(abs(A[i][j] - B[i][j]) for i in range(2) for j in range(2))
    d2 = max(abs(A[i][j] + B[i][j]) for i in range(2) for j in range(2))
    return min(d1, d2)


IDENTITY: Mat = ((1 + 0j, 0j), (0j, 1 + 0j))


def _rotation_at_origin(theta: float) -> Mat:
    w = cmath.exp(1j * theta / 2)
    return ((w, 0j), (0j, w.conjugate()))


def _translation(w: complex) -> Mat:
    s = 1.0 / math.sqrt(1 - abs(w) ** 2)
    return ((s + 0j, s * w), (s * w.conjugate(), s + 0j))


def rotation_about(w: complex, theta: float) -> Mat:
    """Disk rotation by theta around the point w."""
    if w == 0:
        return _rotation_at_origin(theta)
    return mat_mul(mat_mul(_translation(w), _rotation_at_origin(theta)),
                   _translation(-w))


def triangle_vertices(p: int, q: int, r: int) -> tuple:
    """Vertices (A, B, C) of the base geodesic triangle in the unit disk.

    Angle pi/p at A = 0, angle pi/q at B on the positive real axis, angle
    pi/r at C in the upper half of the disk. Hyperbolic side lengths come
    from the angle law of cosines; Poincare radius is tanh(d/2).
    """
    t = classify(p, q, r)
    if t.kind != "hyperbolic":
        raise TriangleError("tessellation needs a hyperbolic triple")
    al, be, ga = math.pi / p, math.pi / q, math.pi / r
    cosh_ab = (math.cos(al) * math.cos(be) + math.cos(ga)) / (math.sin(al) * math.sin(be))
    cosh_ac = (math.cos(al) * math.cos(ga) + math.cos(be)) / (math.sin(al) * math.sin(ga))
    A = 0j
    B = complex(math.tanh(math.acosh(cosh_ab) / 2), 0)
    C = math.tanh(math.acosh(cosh_ac) / 2) * cmath.exp(1j * al)
    return A, B, C


def rotation_generators(p: int, q: int, r: int) -> tuple:
    """Clockwise rotations by 2 pi/k around the three vertices.

    The uniform clockwise choice makes g_r g_q g_p = +-I hold (checked to
    1e-9 at construction).
    """
    A, B, C = triangle_vertices(p, q, r)
    gp = rotation_about(A, -2 * math.pi / p)
    gq = rotation_about(B, -2 * math.pi / q)
    gr = rotation_about(C, -2 * math.pi / r)
    prod = mat_mul(mat_mul(gr, gq), gp)
    if mat_dist(prod, IDENTITY) > 1e-9:
        raise TriangleError("generator relation g_r g_q g_p = +-I failed")
    return gp, gq, gr


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


def render_svg(path: str, p: int, q: int, r: int, tiles: list) -> None:
    """Draw the tiles of the (p, q, r) tessellation to an SVG file at path.

    `tiles` is the search tree of `trianglestacks._tile_tree`: entry i is
    (parent, generator, word length), so tile i's matrix is the float
    generator times its parent's. Tiles are two-colored by word-length
    parity (a rendering choice: neighboring depths alternate shade).
    """
    gp, gq, gr = rotation_generators(p, q, r)
    gens = (gp, mat_inv(gp), gq, mat_inv(gq), gr, mat_inv(gr))
    verts = triangle_vertices(p, q, r)
    mats, paths = [], []
    for parent, gi, length in tiles:
        M = IDENTITY if parent < 0 else mat_mul(gens[gi], mats[parent])
        mats.append(M)
        za, zb, zc = (mat_apply(M, z) for z in verts)
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

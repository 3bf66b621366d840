"""Triangle group data and hyperbolic disk tessellations.

The exact part: curvature classification of a triple (p, q, r), the degree
of the log-canonical bundle on the associated quotient stack, the
Bezout-type weight pairs used in the local cyclic-quotient bookkeeping, and
the tile counts of the (2, 3, n) tessellations. A count is a breadth-first
search over words in the quaternion triple of `quaternion.uniformizer_triple`:
each word is an integer coordinate vector, each step an integer
matrix-vector product over the nonzero matrix entries with an exact
division, and tiles are told apart by hashing vectors up to sign. Steps
whose word is provably found already (delta_p^-1, and the step back to a
tile's parent) are skipped. No float decides whether two tiles are equal.

The relation delta_r delta_q delta_p = 1 is checked exactly, on the same
integer matrices the search runs on (`relation_product`).

The numerical part, used only for drawing: the standard geodesic triangle
in the Poincare disk, rotation generators in SU(1,1) around its vertices,
and an SVG rendering with true geodesic arcs.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .record import Record

INFINITY = math.inf

Entry = int | float


class TriangleError(ValueError):
    pass


def _is_inf(e: Entry) -> bool:
    return isinstance(e, float) and math.isinf(e) and e > 0


def _check_entry(e: Entry) -> None:
    if _is_inf(e):
        return
    if not isinstance(e, int) or e < 2:
        raise TriangleError(f"triangle entry must be an integer >= 2 or infinity, got {e!r}")


def _inv(e: Entry) -> Fraction:
    return Fraction(0) if _is_inf(e) else Fraction(1, e)


class TriangleType(Record):
    p: Entry
    q: Entry
    r: Entry
    kind: str            # "spherical" | "euclidean" | "hyperbolic"
    excess: Fraction     # 1 - 1/p - 1/q - 1/r


def classify(p: Entry, q: Entry, r: Entry) -> TriangleType:
    """Curvature type of the (p, q, r) triangle group.

    excess < 0: spherical, = 0: euclidean, > 0: hyperbolic.

    >>> classify(2, 3, 7).kind
    'hyperbolic'
    >>> classify(2, 3, 6).kind
    'euclidean'
    >>> classify(2, 3, 5).kind
    'spherical'
    """
    for e in (p, q, r):
        _check_entry(e)
    excess = 1 - _inv(p) - _inv(q) - _inv(r)
    if excess < 0:
        kind = "spherical"
    elif excess == 0:
        kind = "euclidean"
    else:
        kind = "hyperbolic"
    return TriangleType(p, q, r, kind, excess)


def canonical_degree(p: Entry, q: Entry, r: Entry) -> Fraction:
    """deg of the log-canonical bundle: (1/2)(1 - 1/p - 1/q - 1/r).

    Only meaningful (positive) in the hyperbolic case, which is enforced.

    >>> canonical_degree(2, 3, 7)
    Fraction(1, 84)
    >>> canonical_degree(2, 3, 9)
    Fraction(1, 36)
    """
    t = classify(p, q, r)
    if t.kind != "hyperbolic":
        raise TriangleError(f"({p},{q},{r}) is {t.kind}, not hyperbolic")
    return t.excess / 2


def bezout_weights(p: int, q: int) -> tuple:
    """The weight pair (a, b) with a*p = 1 (mod q) normalized to 1 <= a <= q,
    and b = (a*p - 1) / q. gcd(p, q) = 1 is required.
    """
    if not (isinstance(p, int) and isinstance(q, int)) or p < 1 or q < 1:
        raise TriangleError("bezout_weights needs positive integers")
    if math.gcd(p, q) != 1:
        raise TriangleError(f"gcd({p},{q}) != 1")
    a = pow(p, -1, q) if q > 1 else 1
    b = (a * p - 1) // q
    return a, b


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


def _sparse_rows(matrix: tuple) -> tuple:
    """Each row of an integer matrix as its nonzero entries, (column, value)
    pairs: the form `_apply` multiplies."""
    return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in matrix)


@lru_cache(maxsize=None)
def _generator_matrices(p: int, q: int, r: int) -> tuple:
    """Integer left-multiplication matrices of the quaternion triple.

    For delta_p, delta_q, delta_r of `uniformizer_triple(r)` and their
    inverses (in the order of the float generators used for drawing), the
    matrix of x -> g x over Q in the basis v^k e_s (v generates the field,
    e_s = 1, i, j, k), as rows, times the common denominator `den` of all
    six. Returns (matrices, den, sparse), sparse holding each matrix's rows
    in the form of `_sparse_rows`; cached, so the relation check and every
    search share one set.

    The search never applies delta_p^-1 (see `_tile_tree`), since
    delta_p^2 = -1 makes it -delta_p; that is checked here, exactly, on the
    matrices themselves.
    """
    if p != 2 or q != 3 or not isinstance(r, int) or r < 7 or r % 2 == 0:
        raise TriangleError(f"exact tessellation covers (2,3,n) with n odd and "
                            f">= 7, got ({p},{q},{r})")
    # imported here: families imports this module for canonical_degree
    # alone, and should not load the number field and quaternion modules
    from .quaternion import uniformizer_triple
    trip = uniformizer_triple(r)
    field = trip.algebra.field
    powers = [field.element([0] * k + [1]) for k in range(field.degree)]
    # v is central, so the column of v^k e_s is (g e_s) v^k
    cols = [[[c for x in ge.coords for c in (x * vk).coords]
             for ge in (g * e for e in trip.algebra.basis()) for vk in powers]
            for delta in (trip.delta_p, trip.delta_q, trip.delta_r)
            for g in (delta, delta.inverse())]
    den = math.lcm(*(c.denominator for m in cols for col in m for c in col))
    mats = tuple(tuple(tuple(c.numerator * (den // c.denominator) for c in row)
                       for row in zip(*m)) for m in cols)
    if mats[1] != tuple(tuple(-c for c in row) for row in mats[0]):
        raise TriangleError("M(delta_p^-1) != -M(delta_p): the search may not "
                            "skip delta_p^-1")
    return mats, den, tuple(_sparse_rows(m) for m in mats)


def relation_product(p: int, q: int, r: int) -> tuple:
    """(M_r M_q M_p, den) for the integer generator matrices of
    `_generator_matrices`: the product is den^3 times the matrix of
    x -> delta_r delta_q delta_p x, so the relation holds exactly when it
    equals den^3 I."""
    mats, den, _ = _generator_matrices(p, q, r)
    prod = mats[0]
    for m in (mats[2], mats[4]):
        prod = tuple(tuple(sum(map(operator.mul, row, col)) for col in zip(*prod))
                     for row in m)
    return prod, den


def _apply(rows: tuple, u: tuple, den: int) -> tuple:
    """rows . u / den, exactly, for rows in the form of `_sparse_rows`: a
    remainder means a word left the lattice."""
    out = []
    for row in rows:
        s = 0
        for j, c in row:
            s += c * u[j]
        c, rem = divmod(s, den)
        if rem:
            raise TriangleError("word coordinates left the lattice 1/den Z")
        out.append(c)
    return tuple(out)


def _tile_tree(p: int, q: int, r: int, max_len: int) -> list:
    """Breadth-first search over words of length <= max_len in the exact
    generators and their inverses, one entry per distinct tile.

    A word is the vector of its quaternion's coordinates times den; it is
    taken up to sign (the group acts through +-1), normalised so the first
    nonzero entry is positive. Entry i is (parent, generator, word length):
    tile i is generator `generator` times tile `parent`; the base tile is
    (-1, -1, 0).

    Two kinds of step are skipped, because their word is already in `seen`
    when they would run: delta_p^-1 (generator 1), which is -delta_p (checked
    in `_generator_matrices`) and so gives the word generator 0 gave the
    step before; and, from a tile reached by generator g, the step back to
    its parent: g^-1, or delta_p again when g is delta_p (delta_p^2 = -1).
    Each step multiplies only the nonzero entries of the generator's rows.
    """
    _, den, sparse = _generator_matrices(p, q, r)
    start = (den,) + (0,) * (len(sparse[0]) - 1)
    seen = {start}
    tiles = [(-1, -1, 0)]
    frontier = [(0, -1, start)]
    for length in range(1, max_len + 1):
        new_frontier = []
        for parent, g, u in frontier:
            back = 0 if g == 0 else g ^ 1
            for gi, rows in enumerate(sparse):
                if gi == 1 or gi == back:
                    continue
                w = _apply(rows, u, den)
                if next(c for c in w if c) < 0:
                    w = tuple(-c for c in w)
                if w not in seen:
                    seen.add(w)
                    new_frontier.append((len(tiles), gi, w))
                    tiles.append((parent, gi, length))
        frontier = new_frontier
    return tiles


MAX_DEPTH = 12  # cli.TILE_COUNTS freezes the counts through this depth


def tessellate(p: int, q: int, r: int, depth: int = 4,
               svg_path: str | None = None) -> int:
    """Number of distinct triangle tiles within BFS depth of the base tile.

    Tiles are images of the base triangle under words in the rotation
    generators. The count is exact: words run over the quaternion triple
    of `uniformizer_triple(r)` as integer coordinate vectors, and two words
    give the same tile exactly when their vectors agree up to sign. So
    (p, q, r) must be (2, 3, n) with n odd and >= 7. Floats are used only
    for drawing: optionally renders the tiling to an SVG file with geodesic
    edges, two-colored by word-length parity (a rendering choice:
    neighboring depths alternate shade).
    """
    if not isinstance(depth, int) or depth < 0:
        raise TriangleError("depth must be a non-negative integer")
    if depth > MAX_DEPTH:
        raise TriangleError(f"depth capped at {MAX_DEPTH}")
    tiles = _tile_tree(p, q, r, depth)
    if svg_path is not None:
        gp, gq, gr = rotation_generators(p, q, r)
        gens = (gp, mat_inv(gp), gq, mat_inv(gq), gr, mat_inv(gr))
        mats = []
        for parent, gi, length in tiles:
            M = IDENTITY if parent < 0 else mat_mul(gens[gi], mats[parent][0])
            mats.append((M, length))
        _render_svg(svg_path, mats, triangle_vertices(p, q, r))
    return len(tiles)


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


def _render_svg(path: str, mats: Sequence, verts: tuple) -> None:
    A, B, C = verts
    tiles = []
    for M, depth in mats:
        za, zb, zc = (mat_apply(M, z) for z in (A, B, C))
        fill = "#355f8d" if depth % 2 == 0 else "#9fc5e8"
        d = (f"M {za.real:.6f} {za.imag:.6f} "
             + _geodesic_arc(za, zb) + " "
             + _geodesic_arc(zb, zc) + " "
             + _geodesic_arc(zc, za) + " Z")
        tiles.append(f'<path d="{d}" fill="{fill}" stroke="#1a2a3a" stroke-width="0.004"/>')
    body = "\n".join(tiles)
    svg = (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.05 -1.05 2.1 2.1">\n'
        '<circle cx="0" cy="0" r="1" fill="#f4f6f8" stroke="#444" stroke-width="0.006"/>\n'
        f"{body}\n</svg>\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)

"""Triangle group data and hyperbolic disk tessellations.

The exact part: curvature classification of a triple (p, q, r), the degree
of the log-canonical bundle on the associated quotient stack, the
Bezout-type weight pairs used in the local cyclic-quotient bookkeeping, and
the tile counts of the (2, 3, n) tessellations, which take n alone. A count
is a breadth-first search over words in the quaternion triple of
`quaternion.uniformizer_triple`: each word is an integer coordinate vector,
each step an integer matrix-vector product over the nonzero matrix entries
with an exact division, and tiles are told apart by hashing vectors up to
sign. Steps whose word is provably found already (delta_p^-1, and the step
back to a tile's parent) are skipped. No float decides whether two tiles
are equal.

The relation delta_r delta_q delta_p = 1 is checked exactly, on the same
integer matrices the search runs on (`relation_product`).

Drawing is numerical and lives in `drawing`, which `tessellate` loads only
when it is given an SVG path. It draws from the same six generators
(`_generators`) the count runs on, so there is one model of the group; a
count loads no float geometry.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

from .record import Record


class TriangleError(ValueError):
    pass


class TriangleType(Record):
    p: int
    q: int
    r: int
    kind: str            # "spherical" | "euclidean" | "hyperbolic"
    excess: Fraction     # 1 - 1/p - 1/q - 1/r


def classify(p: int, q: int, r: int) -> TriangleType:
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
        if not isinstance(e, int) or e < 2:
            raise TriangleError(f"triangle entry must be an integer >= 2, got {e!r}")
    excess = 1 - Fraction(1, p) - Fraction(1, q) - Fraction(1, r)
    if excess < 0:
        kind = "spherical"
    elif excess == 0:
        kind = "euclidean"
    else:
        kind = "hyperbolic"
    return TriangleType(p, q, r, kind, excess)


def canonical_degree(p: int, q: int, r: int) -> Fraction:
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


def _sparse_rows(matrix: tuple) -> tuple:
    """Each row of an integer matrix as its nonzero entries, (column, value)
    pairs: the form `_apply` multiplies."""
    return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in matrix)


def _generators(n: int) -> list:
    """The six generators the search steps by and the drawing draws with:
    delta, delta^-1 for delta = delta_p, delta_q, delta_r of
    `uniformizer_triple(n)`, in that order."""
    # imported here: the arakelov check in families imports this module for
    # canonical_degree alone, and should not load the number field and
    # quaternion modules
    from .quaternion import uniformizer_triple
    trip = uniformizer_triple(n)
    return [g for delta in (trip.delta_p, trip.delta_q, trip.delta_r)
            for g in (delta, delta.inverse())]


@lru_cache(maxsize=None)
def _generator_matrices(n: int) -> tuple:
    """Integer left-multiplication matrices of the (2, 3, n) quaternion
    triple, for n odd and >= 7.

    For each g of `_generators(n)`, the matrix of x -> g x over Q in the
    basis v^k e_s (v generates the field, e_s = 1, i, j, k), read off the
    algebra's structure constants by `quaternion._left_matrix`, as rows,
    times the least common denominator `den` of all six. Returns
    (matrices, den, sparse), sparse holding each matrix's rows in the form
    of `_sparse_rows`; cached, so the relation check and every search share
    one set.

    The search never applies delta_p^-1 (see `_tile_tree`), since
    delta_p^2 = -1 makes it -delta_p; that is checked here, exactly, on the
    matrices themselves.
    """
    if not isinstance(n, int) or n < 7 or n % 2 == 0:
        raise TriangleError(f"exact tessellation covers (2,3,n) with n odd and "
                            f">= 7, got n = {n!r}")
    from .quaternion import _left_matrix
    left = [_left_matrix(g) for g in _generators(n)]
    # to one common denominator, then to the least one
    den = math.lcm(*(d for _, d in left))
    mats = [[[c * (den // d) for c in row] for row in m] for m, d in left]
    g = math.gcd(den, *(c for m in mats for row in m for c in row))
    den, mats = den // g, tuple(tuple(tuple(c // g for c in row) for row in m) for m in mats)
    if mats[1] != tuple(tuple(-c for c in row) for row in mats[0]):
        raise TriangleError("M(delta_p^-1) != -M(delta_p): the search may not "
                            "skip delta_p^-1")
    return mats, den, tuple(_sparse_rows(m) for m in mats)


def relation_product(n: int) -> tuple:
    """(M_r M_q M_p, den) for the integer generator matrices of
    `_generator_matrices`: the product is den^3 times the matrix of
    x -> delta_r delta_q delta_p x, so the relation holds exactly when it
    equals den^3 I."""
    mats, den, _ = _generator_matrices(n)
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


def _tile_tree(n: int, max_len: int) -> list:
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
    _, den, sparse = _generator_matrices(n)
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


MAX_DEPTH = 12  # suites.triangle.TILE_COUNTS freezes the counts through this depth


def tessellate(n: int, depth: int = 4, svg_path: str | None = None) -> int:
    """Number of distinct (2, 3, n) triangle tiles within BFS depth of the
    base tile.

    Tiles are images of the base triangle under words in the quaternion
    triple of `uniformizer_triple(n)` and its inverses. The count is exact:
    words run as integer coordinate vectors, and two words give the same
    tile exactly when their vectors agree up to sign. So n must be odd and
    >= 7. Floats are used only for drawing: with
    svg_path, `drawing.render_svg` evaluates the same generators at the
    algebra's split real place and renders the tiles to an SVG file with
    geodesic edges.
    """
    if not isinstance(depth, int) or depth < 0:
        raise TriangleError("depth must be a non-negative integer")
    if depth > MAX_DEPTH:
        raise TriangleError(f"depth capped at {MAX_DEPTH}")
    tiles = _tile_tree(n, depth)
    if svg_path is not None:
        from .drawing import render_svg
        render_svg(svg_path, _generators(n), tiles)
    return len(tiles)

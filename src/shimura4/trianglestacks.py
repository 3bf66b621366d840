"""Triangle group data and hyperbolic disk tessellations.

The exact part: curvature classification of a triple (p, q, r), the degree
of the log-canonical bundle on the associated quotient stack, the
Bezout-type weight pairs used in the local cyclic-quotient bookkeeping, and
the tile counts of the (2, 3, n) tessellations, which take n alone. A count
is a breadth-first search over words in the quaternion triple of
`quaternion.uniformizer_triple`: each word is an integer coordinate vector,
each step an integer matrix-vector product over the nonzero matrix entries
with an exact division, and tiles are told apart by hashing vectors up to
sign. Steps whose word is found already are skipped, and which those are
is read off the exact products of the generators: a generator that
repeats an earlier one up to sign (delta_p^-1 = -delta_p), and from a
tile reached by g, each s with s g = +-1 or +- a generator. No float
decides whether two tiles are equal.

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

from . import MAX_DEPTH
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
    # imported here: the arakelov check in reductions imports this module for
    # canonical_degree alone, and should not load the number field and
    # quaternion modules
    from .quaternion import uniformizer_triple
    trip = uniformizer_triple(n)
    return [g for delta in (trip.delta_p, trip.delta_q, trip.delta_r)
            for g in (delta, delta.inverse())]


@lru_cache(maxsize=None)
def _generator_matrices(n: int) -> tuple:
    """Integer left-multiplication matrices of the (2, 3, n) quaternion
    triple, for n odd and >= 7, and the steps the search takes.

    For each g of `_generators(n)`, the matrix of x -> g x over Q in the
    basis v^k e_s (v generates the field, e_s = 1, i, j, k), read off the
    algebra's structure constants by `quaternion._left_matrix`, as rows,
    times the least common denominator `den` of all six. Returns
    (matrices, den, sparse, steps), sparse holding each matrix's rows in
    the form of `_sparse_rows`; cached, so the relation check and every
    search share one set.

    steps maps the generator g a tile was reached by (-1 for the base
    tile) to the generators s the search steps by from it: all but those
    whose word is found already, read off the exact products of the
    generators' own vectors (a word's vector is its quaternion times den,
    up to sign). s is left out when it repeats an earlier generator up to
    sign (delta_p^-1 = -delta_p), and when s g = +-1 or +- a generator h:
    then s g parent = +-h parent, a word no longer than the tile.
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
    sparse = tuple(_sparse_rows(m) for m in mats)
    unit = (den,) + (0,) * (len(mats[0]) - 1)   # the word 1
    gens = [_up_to_sign(_apply(rows, unit, den)) for rows in sparse]
    firsts = [s for s, w in enumerate(gens) if w not in gens[:s]]
    known = {unit, *gens}
    steps = {g: tuple(s for s in firsts
                      if g < 0 or _up_to_sign(_apply(sparse[s], gens[g], den)) not in known)
             for g in (-1, *firsts)}
    return mats, den, sparse, steps


def relation_product(n: int) -> tuple:
    """(M_r M_q M_p, den) for the integer generator matrices of
    `_generator_matrices`: the product is den^3 times the matrix of
    x -> delta_r delta_q delta_p x, so the relation holds exactly when it
    equals den^3 I."""
    mats, den = _generator_matrices(n)[:2]
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


def _up_to_sign(w: tuple) -> tuple:
    """w or -w, whichever has its first nonzero entry positive."""
    return tuple(-c for c in w) if next(c for c in w if c) < 0 else w


def _tile_tree(n: int, max_len: int) -> list:
    """Breadth-first search over words of length <= max_len in the exact
    generators and their inverses, one entry per distinct tile.

    A word is the vector of its quaternion's coordinates times den; it is
    taken up to sign (the group acts through +-1), normalised so the first
    nonzero entry is positive. Entry i is (parent, generator, word length):
    tile i is generator `generator` times tile `parent`; the base tile is
    (-1, -1, 0).

    From a tile reached by generator g the search steps only by
    `steps[g]` of `_generator_matrices`. A step left out gives a word
    already in `seen`: the word of an earlier generator's step, or +-h
    parent for a generator h (or +-parent), whose length is at most the
    tile's, and every word that short is in `seen` by then. So the tree is
    the one a search by all six generators builds. Each step multiplies
    only the nonzero entries of the generator's rows.
    """
    _, den, sparse, steps = _generator_matrices(n)
    start = (den,) + (0,) * (len(sparse[0]) - 1)
    seen = {start}
    tiles = [(-1, -1, 0)]
    frontier = [(0, -1, start)]
    for length in range(1, max_len + 1):
        new_frontier = []
        for parent, g, u in frontier:
            for gi in steps[g]:
                w = _up_to_sign(_apply(sparse[gi], u, den))
                if w not in seen:
                    seen.add(w)
                    new_frontier.append((len(tiles), gi, w))
                    tiles.append((parent, gi, length))
        frontier = new_frontier
    return tiles


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

"""Triangle classification, degrees, weights, and disk tessellation."""

import hashlib
import itertools
import json
import math
import os
import re
from fractions import Fraction

import pytest
from _helpers import (
    IDENTITY,
    generator_matrices_by_products,
    mat_dist,
    mat_inv,
    mat_mul,
    rotation_generators,
    triangle_vertices,
    with_fields,
)
from shimura4.drawing import _tile_vertices
from shimura4.trianglestacks import (
    MAX_DEPTH,
    TriangleError,
    _apply,
    _generator_matrices,
    _generators,
    _sparse_rows,
    _tile_tree,
    bezout_weights,
    canonical_degree,
    classify,
    relation_product,
    tessellate,
)

F = Fraction


def test_classify_kinds():
    assert classify(2, 3, 5).kind == "spherical"
    assert classify(2, 3, 6).kind == "euclidean"
    assert classify(2, 3, 7).kind == "hyperbolic"
    assert classify(2, 2, 2).kind == "spherical"
    assert classify(3, 3, 3).kind == "euclidean"


def test_classify_excess_values():
    assert classify(2, 3, 7).excess == F(1, 42)
    assert classify(2, 3, 9).excess == F(1, 18)
    assert classify(2, 3, 11).excess == F(5, 66)


def test_classify_rejects_bad_entries():
    with pytest.raises(TriangleError):
        classify(1, 3, 7)
    with pytest.raises(TriangleError):
        classify(2, 3, 7.5)
    with pytest.raises(TriangleError):
        classify(2, 3, -float("inf"))
    with pytest.raises(TriangleError):
        classify(2, 3, float("inf"))


def test_canonical_degree_values():
    assert canonical_degree(2, 3, 7) == F(1, 84)
    assert canonical_degree(2, 3, 9) == F(1, 36)
    assert canonical_degree(2, 3, 11) == F(5, 132)


def test_canonical_degree_needs_hyperbolic():
    with pytest.raises(TriangleError):
        canonical_degree(2, 3, 5)
    with pytest.raises(TriangleError):
        canonical_degree(2, 3, 6)


def test_bezout_weights_basic():
    a, b = bezout_weights(3, 7)
    assert (a * 3 - 1) % 7 == 0 and 1 <= a <= 7
    assert b == (a * 3 - 1) // 7
    a, b = bezout_weights(7, 3)
    assert (a * 7 - 1) % 3 == 0 and 1 <= a <= 3


def test_bezout_weights_requires_coprime():
    with pytest.raises(TriangleError):
        bezout_weights(6, 9)


def test_bezout_parity_theorem_even_p():
    # for even p the second weight is odd and coprime to p
    for p in range(2, 21, 2):
        for q in range(3, 30, 2):
            if math.gcd(p, q) != 1:
                continue
            a, b = bezout_weights(p, q)
            assert math.gcd(b, 2 * p) == 1 or b == 0
            if b:
                assert b % 2 == 1


def test_vertices_inside_disk():
    for pqr in [(2, 3, 7), (2, 3, 9), (2, 3, 11), (3, 4, 5)]:
        A, B, C = triangle_vertices(*pqr)
        assert abs(A) < 1 and abs(B) < 1 and abs(C) < 1
        assert B.real > 0 and abs(B.imag) < 1e-15
        assert C.imag > 0


def test_rotation_generators_relation_and_orders():
    for (p, q, r) in [(2, 3, 7), (2, 3, 9), (2, 3, 11)]:
        gp, gq, gr = rotation_generators(p, q, r)
        prod = mat_mul(mat_mul(gr, gq), gp)
        assert mat_dist(prod, IDENTITY) < 1e-9
        for g, k in ((gp, p), (gq, q), (gr, r)):
            acc = IDENTITY
            for _ in range(k):
                acc = mat_mul(acc, g)
            assert mat_dist(acc, IDENTITY) < 1e-9


def test_generator_traces():
    gp, gq, gr = rotation_generators(2, 3, 7)
    assert abs(abs((gp[0][0] + gp[1][1]).real) - 0.0) < 1e-12
    assert abs(abs((gq[0][0] + gq[1][1]).real) - 1.0) < 1e-12
    assert abs(abs((gr[0][0] + gr[1][1]).real) - 2 * math.cos(math.pi / 7)) < 1e-12


def test_tessellate_depth0_and_1():
    assert tessellate(7, depth=0) == 1
    # depth 1: the 6 words g, g^-1 over three generators, minus identifications;
    # for (2,3,7) all six are distinct from the identity and from each other
    # except gp = gp^-1 (order 2), giving 5 new tiles + base = 6
    assert tessellate(7, depth=1) == 6
    assert tessellate(9, depth=1) == 6


def _float_dedup_counts(p, q, r, max_len):
    """Tile counts by depth from a BFS over the float rotation generators
    that compares every new matrix with every tile found, to 1e-9."""
    gp, gq, gr = rotation_generators(p, q, r)
    gens = [gp, mat_inv(gp), gq, mat_inv(gq), gr, mat_inv(gr)]
    seen, frontier, counts = [IDENTITY], [IDENTITY], [1]
    for _ in range(max_len):
        new_frontier = []
        for M in frontier:
            for g in gens:
                Y = mat_mul(g, M)
                if not any(mat_dist(Y, S) < 1e-9 for S in seen):
                    seen.append(Y)
                    new_frontier.append(Y)
        frontier = new_frontier
        counts.append(len(seen))
    return counts


def test_depth1_count_independent_dedup():
    for n in (7, 9):
        exact = [tessellate(n, depth=d) for d in range(7)]
        assert exact == _float_dedup_counts(2, 3, n, 6)


def test_tessellate_growth_regression():
    assert [tessellate(7, depth=d) for d in range(5)] == [1, 6, 15, 31, 55]
    assert tessellate(9, depth=4) == 59


def test_tessellate_depth_guard():
    with pytest.raises(TriangleError):
        tessellate(7, depth=-1)
    with pytest.raises(TriangleError):
        tessellate(7, depth=99)
    with pytest.raises(TriangleError):
        tessellate(7, depth=MAX_DEPTH + 1)


def test_tessellate_needs_hyperbolic():
    with pytest.raises(TriangleError):
        tessellate(5, depth=2)


def test_tessellate_needs_a_quaternion_triple():
    # exact only for the (2,3,n) triples with n odd and >= 7
    with pytest.raises(TriangleError, match="n = 8"):
        tessellate(8, depth=2)


def test_bfs_step_raises_on_remainder():
    assert _sparse_rows(((1, 1), (2, 0))) == (((0, 1), (1, 1)), ((0, 2),))
    assert _apply(_sparse_rows(((1, 1), (2, 0))), (3, 1), 2) == (2, 3)
    with pytest.raises(TriangleError):
        _apply(_sparse_rows(((1, 1), (1, 0))), (3, 1), 2)


def _full_tile_tree(n, max_len):
    """The tile tree by a breadth-first search that applies all six dense
    generator matrices to every tile and skips nothing."""
    mats, den, _ = _generator_matrices(n)
    start = (den,) + (0,) * (len(mats[0]) - 1)
    seen, tiles, frontier = {start}, [(-1, -1, 0)], [(0, start)]
    for length in range(1, max_len + 1):
        new_frontier = []
        for parent, u in frontier:
            for gi, rows in enumerate(mats):
                w = []
                for row in rows:
                    c, rem = divmod(sum(a * b for a, b in zip(row, u)), den)
                    assert rem == 0
                    w.append(c)
                if next(c for c in w if c) < 0:
                    w = [-c for c in w]
                w = tuple(w)
                if w not in seen:
                    seen.add(w)
                    new_frontier.append((len(tiles), w))
                    tiles.append((parent, gi, length))
        frontier = new_frontier
    return tiles


@pytest.mark.parametrize("n", [7, 9, 11])
def test_pruned_sparse_search_matches_the_full_search(n):
    assert _tile_tree(n, 8) == _full_tile_tree(n, 8)


@pytest.mark.parametrize("n,count,sha", [
    (7, 1190, "e187865dd5db3f1db6acdf80158df3b55b4c726cad38b638402d606c58fd29c7"),
    (9, 3091, "2728a5c467918954050e4bd04061a0515886f90c70f6482329ac1c411a982c04"),
])
def test_tile_tree_is_frozen_at_max_depth(n, count, sha):
    tiles = _tile_tree(n, MAX_DEPTH)
    assert len(tiles) == count
    assert hashlib.sha256(json.dumps(tiles).encode()).hexdigest() == sha


def test_generator_matrices_refuse_a_delta_p_of_order_other_than_4(monkeypatch):
    # with delta_q (order 6 in the algebra) in place of delta_p, the skipped
    # inverse would not be -delta_p: the set-up must refuse to search
    from shimura4 import quaternion
    original = quaternion.uniformizer_triple

    def swapped(n):
        trip = original(n)
        return with_fields(trip, delta_p=trip.delta_q)
    monkeypatch.setattr(quaternion, "uniformizer_triple", swapped)
    _generator_matrices.cache_clear()
    try:
        with pytest.raises(TriangleError, match="delta_p"):
            _generator_matrices(7)
    finally:
        _generator_matrices.cache_clear()


@pytest.mark.parametrize("n,size", [(7, 12), (9, 12), (11, 20)])
def test_relation_product_is_den_cubed_identity(n, size):
    prod, den = relation_product(n)
    assert prod == tuple(tuple(den ** 3 if i == j else 0 for j in range(size))
                         for i in range(size))
    # the products are not taken up to sign: delta_p^2 = -1 gives -den^2 I
    mp = _generator_matrices(n)[0][0]
    square = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*mp))
                   for row in mp)
    assert square == tuple(tuple(-den ** 2 if i == j else 0 for j in range(size))
                           for i in range(size))


@pytest.mark.parametrize("n", [7, 9, 11, 13])
def test_structure_constant_matrices_match_the_quaternion_products(n):
    mats, den, sparse = _generator_matrices(n)
    assert (mats, den) == generator_matrices_by_products(n)
    assert sparse == tuple(_sparse_rows(m) for m in mats)


def test_generator_matrices_are_cached():
    assert _generator_matrices(7) is _generator_matrices(7)


def test_svg_output(tmp_path):
    out = tmp_path / "tiling.svg"
    n = tessellate(7, depth=2, svg_path=str(out))
    assert n == 15
    text = out.read_text()
    assert text.startswith("<svg")
    assert text.count("<path") == n
    assert 'viewBox="-1.05 -1.05 2.1 2.1"' in text
    assert "A " in text  # at least one geodesic arc
    # every printed point (move, line and arc end points) inside the disk
    points = re.findall(r"(?:[ML]|A \S+ \S+ 0 0 [01]) (-?[\d.]+) (-?[\d.]+)", text)
    assert len(points) == 4 * n
    assert all(float(x) ** 2 + float(y) ** 2 < 1 for x, y in points)


def _disk_distance(z, w):
    return 2 * math.atanh(abs(z - w) / abs(1 - w.conjugate() * z))


@pytest.mark.parametrize("n", [7, 9, 11, 13])
def test_drawing_agrees_with_the_trig_oracle(n):
    # the drawing evaluates the exact generators at a real place; the trig
    # model builds its triangle from the angles alone
    tiles = _tile_tree(n, 6)
    verts = _tile_vertices(_generators(n), tiles)
    sides = [_disk_distance(verts[0][i - 2], verts[0][i - 1]) for i in range(3)]
    oracle = triangle_vertices(2, 3, n)
    for i, side in enumerate(sides):
        assert abs(side - _disk_distance(oracle[i - 2], oracle[i - 1])) < 1e-9
    # the angle at each vertex, from its sides by the hyperbolic law of cosines
    for i, k in enumerate((2, 3, n)):
        a, b, c = sides[i], sides[i - 2], sides[i - 1]
        cos_angle = ((math.cosh(b) * math.cosh(c) - math.cosh(a))
                     / (math.sinh(b) * math.sinh(c)))
        assert abs(math.acos(cos_angle) - math.pi / k) < 1e-9
    centroids = [sum(tri) / 3 for tri in verts]
    assert len(centroids) == tessellate(n, depth=6)
    assert min(abs(u - w) for u, w in itertools.combinations(centroids, 2)) > 1e-6

"""Quaternion algebra structure and the order-(2,3,n) triples."""

import math
from fractions import Fraction

import mpmath as mp
import pytest

from shimura4.numberfield import field_2cos
from shimura4.quaternion import (
    QuaternionAlgebra,
    QuaternionError,
    embedding_tolerance,
    matrix_embedding,
    uniformizer_triple,
)

F = Fraction


def _rational_algebra(a, b):
    from shimura4.numberfield import NumberField, dense_to_poly
    K = NumberField(dense_to_poly([F(1), F(1)], "x"), "r")  # Q as Q[x]/(x+1)
    return QuaternionAlgebra(K, K.element([a]), K.element([b]))


def test_hamilton_multiplication_table():
    alg = _rational_algebra(-1, -1)
    one, i, j, k = alg.basis()
    assert i * i == -1 * one
    assert j * j == -1 * one
    assert k * k == -1 * one
    assert i * j == k
    assert j * i == -k
    assert j * k == i
    assert k * j == -i
    assert k * i == j
    assert i * k == -j


def test_norm_trace_conjugate():
    alg = _rational_algebra(2, 3)
    x = alg.element(1, F(1, 2), -2, F(3, 4))
    n = x.reduced_norm()
    # x0^2 - a x1^2 - b x2^2 + ab x3^2
    want = F(1) - 2 * F(1, 4) - 3 * F(4) + 6 * F(9, 16)
    assert n.rational_value() == want
    assert x.reduced_trace().rational_value() == 2
    assert (x * x.conjugate()).coords[0].rational_value() == want
    assert x + x.conjugate() == alg.element(2)


def test_inverse():
    alg = _rational_algebra(-1, 5)
    x = alg.element(1, 1, 1, 1)  # norm 1 + 1 - 5 - 5 = -8
    assert x.reduced_norm().rational_value() == -8
    assert x * x.inverse() == alg.one()
    assert x.inverse() * x == alg.one()
    with pytest.raises(QuaternionError):
        # norm 0: (2, 1, 1, 0) in (-1, 5) gives 4 + 1 - 5 = 0
        alg.element(2, 1, 1, 0).inverse()


@pytest.mark.parametrize("n", [7, 9, 11])
def test_triple_identities(n):
    tri = uniformizer_triple(n)
    dp, dq, dr = tri.delta_p, tri.delta_q, tri.delta_r
    alg = tri.algebra
    one = alg.one()
    v = alg.field.gen()
    assert dp * dp == -1 * one
    assert dq * dq * dq == -1 * one
    assert dq.reduced_norm() == alg.field.one()
    assert dq.reduced_trace() == alg.field.one()
    assert dr * dq * dp == one
    # dr satisfies dr^2 + v dr + 1 = 0
    assert dr * dr + v * dr + one == alg.zero()
    assert dr ** n == -1 * one


@pytest.mark.parametrize("n", [7, 9, 11])
def test_projective_orders(n):
    tri = uniformizer_triple(n)
    assert tri.delta_p.projective_order() == 2
    assert tri.delta_q.projective_order() == 3
    assert tri.delta_r.projective_order() == n


def test_projective_order_cap():
    alg = _rational_algebra(2, 3)
    x = alg.element(1, 1, 0, 0)  # norm -1, not torsion
    with pytest.raises(QuaternionError):
        x.projective_order(cap=25)


@pytest.mark.parametrize("n,expected_split", [(7, [0]), (9, [0]), (11, [0])])
def test_split_places(n, expected_split):
    tri = uniformizer_triple(n)
    assert tri.algebra.split_real_places() == expected_split


def test_split_place_is_most_negative_root(subtests=None):
    # at the split place v^2 > 3, i.e. the embedding sends the generator to
    # the root below -sqrt(3); check against floats
    for n in (7, 9, 11):
        tri = uniformizer_triple(n)
        K = tri.algebra.field
        lo, hi = K.real_embeddings[0]
        mid = float((lo + hi) / 2)
        roots = sorted(2 * math.cos(2 * math.pi * k / n)
                       for k in range(1, n // 2 + 1) if math.gcd(k, n) == 1)
        assert abs(mid - roots[0]) < 0.51
        assert mid < -math.sqrt(3) + 0.2


def test_matrix_embedding_images():
    tri = uniformizer_triple(7)
    alg = tri.algebra
    tol = embedding_tolerance(30)
    one, i, j, k = alg.basis()
    mi = matrix_embedding(i, 0, 30)
    mj = matrix_embedding(j, 0, 30)
    mk = matrix_embedding(k, 0, 30)
    with mp.workdps(45):
        # i^2 = a = -1, j^2 = b, ij = k
        sq = mi * mi
        assert abs(sq[0, 0] + 1) < tol and abs(sq[1, 1] + 1) < tol
        b_float = alg.b.float_at_embedding(0)
        sqj = mj * mj
        assert abs(sqj[0, 0] - b_float) < 1e-9
        prod = mi * mj
        assert max(abs(prod[r, c] - mk[r, c]) for r in range(2) for c in range(2)) < tol


@pytest.mark.parametrize("n", [7, 9])
def test_matrix_embedding_det_is_norm(n):
    tri = uniformizer_triple(n)
    x = tri.delta_q * tri.delta_r + tri.delta_p
    m = matrix_embedding(x, 0, 40)
    nx = x.reduced_norm()
    lo, hi = nx.embedding_interval(0, F(1, 10 ** 45))
    mid = (lo + hi) / 2
    with mp.workdps(60):
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        target = mp.mpf(mid.numerator) / mp.mpf(mid.denominator)
        assert abs(det - target) < mp.mpf(10) ** (-38)


def test_matrix_embedding_trace_of_dr():
    # the order-n generator has |trace| = 2 cos(pi/n) at the split place
    for n in (7, 9, 11):
        tri = uniformizer_triple(n)
        m = matrix_embedding(tri.delta_r, 0, 30)
        tr = float(m[0, 0] + m[1, 1])
        assert abs(abs(tr) - 2 * math.cos(math.pi / n)) < 1e-12


def test_matrix_embedding_wrong_pattern_raises():
    alg = _rational_algebra(1, 1)  # a > 0: unsupported pattern
    x = alg.element(1, 0, 0, 0)
    with pytest.raises(QuaternionError):
        matrix_embedding(x, 0, 20)


def test_triple_rejects_even_or_small_n():
    with pytest.raises(QuaternionError):
        uniformizer_triple(6)
    with pytest.raises(QuaternionError):
        uniformizer_triple(5)


def test_hash_agrees_with_eq():
    t1, t2 = uniformizer_triple(7), uniformizer_triple(7)
    assert t1.delta_q == t2.delta_q
    assert len({t1.delta_q, t2.delta_q}) == 1
    one = t1.algebra.one()
    assert one == 1 and hash(one) == hash(1)
    v = t1.algebra.field.gen()
    scalar = t1.algebra.element(v)
    assert scalar == v and hash(scalar) == hash(v)


def test_norm_multiplicative_spot():
    tri = uniformizer_triple(7)
    x = tri.delta_q + tri.delta_r
    y = tri.delta_p * tri.delta_q - tri.algebra.one()
    lhs = (x * y).reduced_norm()
    rhs = x.reduced_norm() * y.reduced_norm()
    assert lhs == rhs

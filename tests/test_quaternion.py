"""Quaternion algebra structure and the order-(2,3,n) triples."""

import math
import random
from fractions import Fraction

import pytest
from _helpers import embedding_interval

from shimura4.numberfield import (
    NumberField,
    dense_to_poly,
    isolate_real_roots,
    minpoly_2cos,
    poly_to_dense,
)
from shimura4.quaternion import (
    QuaternionAlgebra,
    QuaternionError,
    uniformizer_triple,
)

F = Fraction


def _rational_algebra(a, b):
    K = NumberField(dense_to_poly([F(1), F(1)], "x"), "r")  # Q as Q[x]/(x+1)
    return QuaternionAlgebra(K, K.element([a]), K.element([b]))


def test_hamilton_multiplication_table():
    alg = _rational_algebra(-1, -1)
    one, i, j, k = (alg.element(*[0] * s + [1]) for s in range(4))
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
    assert n == want
    assert x.reduced_trace() == 2
    assert (x * x.conjugate()).coords[0] == want
    assert x + x.conjugate() == alg.element(2)


def test_inverse():
    alg = _rational_algebra(-1, 5)
    x = alg.element(1, 1, 1, 1)  # norm 1 + 1 - 5 - 5 = -8
    assert x.reduced_norm() == -8
    assert x * x.inverse() == alg.one()
    assert x.inverse() * x == alg.one()
    assert x ** 0 == alg.element(0) ** 0 == alg.one()
    assert x ** -2 == (x * x).inverse()
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
        lo, hi = embedding_interval(K.gen(), 0, F(1, 100))
        mid = float((lo + hi) / 2)
        roots = sorted(2 * math.cos(2 * math.pi * k / n)
                       for k in range(1, n // 2 + 1) if math.gcd(k, n) == 1)
        assert abs(mid - roots[0]) < 0.51
        assert mid < -math.sqrt(3) + 0.2


def _schoolbook_product(x, y):
    """The quaternion product written out in NumberFieldElem arithmetic."""
    a, b = x.algebra.a, x.algebra.b
    x0, x1, x2, x3 = x.coords
    y0, y1, y2, y3 = y.coords
    return (x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1)


@pytest.mark.parametrize("case", [7, 9, 11, "rational", "fraction-coefficients"])
def test_mul_matches_schoolbook_formula(case):
    rng = random.Random(f"quaternion-mul-{case}")
    if case == "rational":
        alg = _rational_algebra(F(2, 3), -5)
    elif case == "fraction-coefficients":
        # a field with a rational-coefficient modulus, and a, b with denominators
        K = NumberField(dense_to_poly([F(-1, 3), F(-2), F(1, 2), F(1)]), "w")
        alg = QuaternionAlgebra(K, K.element([F(1, 3), F(-2, 5)]),
                                K.element([F(-7, 2), 0, F(1, 4)]))
    else:
        alg = uniformizer_triple(case).algebra
    K = alg.field

    def rand():
        return alg.element(*(K.element([F(rng.randint(-9, 9), rng.choice([1, 2, 3, 7]))
                                        if rng.random() < 0.8 else 0
                                        for _ in range(K.degree)])
                             for _ in range(4)))

    for _ in range(60):
        x, y = rand(), rand()
        z = x * y
        assert z.coords == _schoolbook_product(x, y)
        assert all(type(c) is F for e in z.coords for c in e.coords)


def test_trace_of_dr_is_largest_root_exactly():
    # trd(delta_r) = -v, a root of minpoly_2cos(2n), and at the split place
    # sigma_0(-v) lies above the second-largest root: so it is 2 cos(pi/n)
    for n in (7, 9, 11):
        tri = uniformizer_triple(n)
        K = tri.algebra.field
        minus_v = -K.gen()
        assert tri.delta_r.reduced_trace() == minus_v
        g = poly_to_dense(minpoly_2cos(2 * n), "x")
        assert sum((c * minus_v ** k for k, c in enumerate(g)), K.zero()) == 0
        roots = isolate_real_roots(g)
        assert (minus_v - roots[-2][1]).sign_at_embedding(0) == 1
        # and not above the largest root's interval: the placement is tight
        assert (minus_v - roots[-1][1]).sign_at_embedding(0) == -1
        lo, hi = roots[-1]
        assert lo < 2 * math.cos(math.pi / n) <= hi


def test_triple_rejects_even_or_small_n():
    with pytest.raises(QuaternionError):
        uniformizer_triple(6)
    with pytest.raises(QuaternionError):
        uniformizer_triple(5)


def test_triple_is_cached():
    assert uniformizer_triple(9) is uniformizer_triple(9)


def test_hash_agrees_with_eq():
    # the second triple is built afresh, past the cache
    t1, t2 = uniformizer_triple(7), uniformizer_triple.__wrapped__(7)
    assert t1.delta_q is not t2.delta_q
    assert t1.delta_q == t2.delta_q
    assert len({t1.delta_q, t2.delta_q}) == 1
    one = t1.algebra.one()
    assert one == 1 and hash(one) == hash(1)
    v = t1.algebra.field.gen()
    scalar = t1.algebra.element(v)
    assert scalar == v and hash(scalar) == hash(v)


def test_equality_across_algebras():
    # elements of different algebras are unequal, except equal scalars,
    # which equal their common scalar and hash like it
    A7, A9 = uniformizer_triple(7).algebra, uniformizer_triple(9).algebra
    assert A7.one() == A9.one() and len({A7.one(), A9.one()}) == 1
    assert A7.element(F(-1, 2)) == A9.element(F(-1, 2))
    assert A7.element(2) != A9.element(3)
    i7, i9 = A7.element(0, 1), A9.element(0, 1)
    assert i7 != i9 and i7 not in [i9]
    assert A7.one() != i9 and i7 != A9.one()
    # a scalar that is not rational lies in one field only
    assert A7.element(A7.field.gen()) != A9.element(A9.field.gen())
    assert len({A7.zero(), A9.zero(), i7, i9}) == 3
    # on the same field, scalars are equal across algebras
    Q = _rational_algebra(-1, -1)
    assert _rational_algebra(2, 3).element(5) == Q.element(5)
    # arithmetic across algebras still raises
    for op in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a - b):
        with pytest.raises(QuaternionError):
            op(A7.one(), A9.one())


def test_norm_multiplicative_spot():
    tri = uniformizer_triple(7)
    x = tri.delta_q + tri.delta_r
    y = tri.delta_p * tri.delta_q - tri.algebra.one()
    lhs = (x * y).reduced_norm()
    rhs = x.reduced_norm() * y.reduced_norm()
    assert lhs == rhs

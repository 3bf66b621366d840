"""Sturm isolation, field arithmetic, exact embedding signs."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from _helpers import (
    count_real_roots,
    dense_mul,
    dense_rem,
    dense_to_poly,
    embedding_interval,
    minpoly_2cos_by_primes,
)

from shimura4 import numberfield
from shimura4.numberfield import (
    NumberField,
    NumberFieldError,
    isolate_real_roots,
    minpoly_2cos,
    refine_interval,
    sturm_chain,
)

F = Fraction


def test_sturm_count_simple():
    # x^2 - 2: two real roots
    p = [F(-2), F(0), F(1)]
    assert count_real_roots(p, F(-10), F(10)) == 2
    assert count_real_roots(p, F(0), F(10)) == 1
    assert count_real_roots(p, F(2), F(10)) == 0


def test_isolate_quadratic():
    p = [F(-2), F(0), F(1)]
    ivs = isolate_real_roots(p)
    assert len(ivs) == 2
    (a1, b1), (a2, b2) = ivs
    assert a1 < -1 and b1 > -2 and b1 <= 0
    assert a2 >= 0 and b2 > 1
    lo, hi = refine_interval(p, a2, b2, F(1, 10 ** 6))
    mid = (lo + hi) / 2
    assert abs(float(mid) - 2 ** 0.5) < 1e-5


def test_isolate_with_rational_root():
    # (x - 1/2)(x^2 - 3): the rational root must lie in one of the intervals
    p = [F(3, 2), F(-3), F(-1, 2), F(1)]
    ivs = isolate_real_roots(p)
    assert len(ivs) == 3
    found_half = any(lo <= F(1, 2) <= hi for lo, hi in ivs)
    assert found_half


def test_minpoly_2cos_small_n():
    assert str(dense_to_poly(minpoly_2cos(3))) == "x + 1"
    assert str(dense_to_poly(minpoly_2cos(4))) == "x"
    assert str(dense_to_poly(minpoly_2cos(5))) == "x^2 + x - 1"
    assert str(dense_to_poly(minpoly_2cos(7))) == "x^3 + x^2 - 2*x - 1"
    assert str(dense_to_poly(minpoly_2cos(9))) == "x^3 - 3*x + 1"
    assert str(dense_to_poly(minpoly_2cos(11))) == "x^5 + x^4 - 4*x^3 - 3*x^2 + 3*x + 1"


def test_minpoly_2cos_matches_the_prime_divisor_construction():
    for n in range(1, 61):
        assert minpoly_2cos(n) == minpoly_2cos_by_primes(n), n


def test_minpoly_2cos_has_the_right_root():
    import math
    for n in range(3, 41):
        p = minpoly_2cos(n)
        target = 2 * math.cos(2 * math.pi / n)
        eps = F(1, 10 ** 9)
        t = F(target).limit_denominator(10 ** 12)
        assert count_real_roots(p, t - eps, t + eps) == 1


def test_minpoly_2cos_degree_is_half_totient():
    import math
    def phi(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    for n in range(3, 20):
        assert len(minpoly_2cos(n)) - 1 == phi(n) // 2


def test_field_basic_arithmetic():
    K = NumberField(7)
    v = K.gen()
    # v satisfies v^3 + v^2 - 2v - 1 = 0
    assert (v ** 3 + v ** 2 - 2 * v - 1).is_zero()
    e = v ** 2 - 3
    assert e * e.inverse() == K.one()
    assert (v / v) == K.one()
    assert (2 * v + 1) - (v + 1) == v
    assert e ** 0 == K.zero() ** 0 == K.one()
    assert e ** -3 == (e * e * e).inverse()


def test_field_inverse_roundtrip_randomized():
    import random
    rng = random.Random(7)
    K = NumberField(9)
    v = K.gen()
    for _ in range(50):
        coords = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
        e = K.element(coords)
        if e.is_zero():
            continue
        assert e * e.inverse() == K.one()


def test_mul_matches_schoolbook_remainder():
    # reference: the dense product reduced by the monic minimal polynomial
    import random
    rng = random.Random(11)
    # 14: a second cubic, 2 cos(pi/7); 1: the degree-one field on x - 2
    for K in map(NumberField, (5, 7, 9, 11, 14, 1)):
        for _ in range(40):
            x, y = (K.element([F(rng.randint(-9, 9), rng.choice([1, 2, 3, 4]))
                               if rng.random() < 0.7 else 0
                               for _ in range(K.degree)]) for _ in range(2))
            z = x * y
            assert z.coords == tuple(dense_rem(dense_mul(list(x.coords), list(y.coords)),
                                               K.min_poly))
            assert all(type(c) is F for c in z.coords)


def test_hash_agrees_with_eq():
    K = NumberField(7)
    assert K.element([3]) == 3 and hash(K.element([3])) == hash(3)
    half = K.element([F(1, 2)])
    assert half == F(1, 2) and hash(half) == hash(F(1, 2))
    v = K.gen()
    assert len({v, NumberField(7).gen(), v * 1}) == 1


def test_equality_across_fields():
    # elements of different fields are unequal, except equal rationals,
    # which equal their common value and hash like it
    K7, K9 = NumberField(7), NumberField(9)
    assert K7.one() == K9.one() and K7.one() == 1 == K9.one()
    assert len({K7.one(), K9.one()}) == 1
    assert K7.element([F(-3, 2)]) == K9.element([F(-3, 2)])
    assert K7.element([2]) != K9.element([3])
    assert K7.gen() != K9.gen() and K7.gen() not in [K9.gen()]
    assert K7.gen() != K9.one() and K7.one() != K9.gen()
    assert len({K7.gen(), K9.gen(), K7.zero(), K9.zero()}) == 3
    # arithmetic across fields still raises
    for op in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a - b,
               lambda a, b: a / b):
        with pytest.raises(NumberFieldError):
            op(K7.one(), K9.one())


def test_real_embeddings_ordered():
    K = NumberField(7)
    ivs = [embedding_interval(K.gen(), i, F(1, 10 ** 6)) for i in range(K.degree)]
    assert len(ivs) == 3
    mids = [float((lo + hi) / 2) for lo, hi in ivs]
    assert mids == sorted(mids)
    import math
    expected = sorted(2 * math.cos(2 * math.pi * k / 7) for k in (1, 2, 3))
    for m, ex in zip(mids, expected):
        assert abs(m - ex) < 0.5


def test_sign_at_embedding_matches_float():
    import math
    K = NumberField(7)
    v = K.gen()
    roots = sorted(2 * math.cos(2 * math.pi * k / 7) for k in (1, 2, 3))
    e = v ** 2 - 3
    for idx, r in enumerate(roots):
        want = 1 if r * r - 3 > 0 else -1
        assert e.sign_at_embedding(idx) == want


def test_sign_of_zero_and_rational():
    K = NumberField(7)
    assert K.zero().sign_at_embedding(0) == 0
    assert K.element([F(-3, 7)]).sign_at_embedding(2) == -1


def test_embedding_interval_width():
    K = NumberField(9)
    v = K.gen()
    e = v ** 2 + v - 1
    lo, hi = embedding_interval(e, 1, F(1, 10 ** 30))
    assert hi - lo <= F(1, 10 ** 30)
    import math
    r = 2 * math.cos(2 * math.pi * 2 / 9)  # not necessarily index 1; just bound check
    vals = sorted(2 * math.cos(2 * math.pi * k / 9) for k in (1, 2, 4))
    x = vals[1]
    assert abs(float((lo + hi) / 2) - (x * x + x - 1)) < 1e-9


def test_embedding_queries_leave_the_field_unchanged():
    # an enclosure depends on the element and the width only, not on what
    # earlier queries refined
    K = NumberField(7)
    v = K.gen()
    roots = K._roots
    lo, hi = embedding_interval(v * v, 0, F(1, 10 ** 6))
    assert (v * v - 3).sign_at_embedding(0) == 1
    assert embedding_interval(v * v, 0, F(1, 10 ** 20))
    assert K._roots == roots
    lo2, hi2 = embedding_interval(v * v, 0, F(1, 10 ** 6))
    assert hi2 - lo2 == hi - lo


def test_a_field_is_its_n():
    # n is all there is to a field: its modulus is minpoly_2cos(n), and two
    # fields on the same n are equal, hash alike, and their elements add
    for n in range(1, 41):
        K, L = NumberField(n), NumberField(n)
        assert K.min_poly == tuple(minpoly_2cos(n)) and all(type(c) is int for c in K.min_poly)
        assert K == L and hash(K) == hash(L)
        assert K.gen() + L.gen() == 2 * L.gen()
    assert NumberField(7) != NumberField(14) and NumberField(7).min_poly == (-1, -2, 1, 1)


def _run_python(code, timeout):
    """(exit code, stdout, stderr) of a fresh interpreter running code with
    the package on its path; a run past timeout seconds fails the test."""
    src = Path(__file__).resolve().parents[1] / "src"
    try:
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=timeout, env={**os.environ, "PYTHONPATH": str(src)})
    except subprocess.TimeoutExpired:
        pytest.fail(f"no answer within {timeout} s")
    return out.returncode, out.stdout, out.stderr


def test_printing_loads_no_polynomial_ring():
    code, out, err = _run_python(
        "import sys\n"
        "from shimura4.quaternion import uniformizer_triple\n"
        "t = uniformizer_triple(7)\n"
        "K = t.algebra.field\n"
        "for x in (K, K.gen(), t.algebra, t.delta_q):\n"
        "    print(repr(x))\n"
        "print('shimura4.multipoly' in sys.modules)\n", timeout=60)
    assert code == 0, err
    *lines, loaded = out.splitlines()
    assert loaded == "False"
    assert lines[:2] == ["NumberField(n=7)", "NumberFieldElem(0, 1, 0)"]
    assert lines[3] == ("Quaternion(NumberFieldElem(1/2, 0, 0), NumberFieldElem(0, 1/2, 0), "
                        "NumberFieldElem(1/2, 0, 0), NumberFieldElem(0, 0, 0))")


def test_not_totally_real_rejected(monkeypatch):
    # the root count guards the embedding index; no minimal polynomial of a
    # 2 cos field fails it, so a modulus that does is put in by hand
    monkeypatch.setattr(numberfield, "minpoly_2cos", lambda n: [1, 0, 1])  # x^2 + 1
    with pytest.raises(NumberFieldError):
        NumberField(7)


def test_degree_one_field_is_rational():
    K = NumberField(3)  # x + 1: 2 cos(2 pi/3) = -1
    g = K.gen()
    assert g.is_rational() and g == -1
    assert (g * g).is_rational() and g * g == 1


def test_sturm_chain_endpoints():
    p = [F(-1), F(0), F(0), F(1)]  # x^3 - 1
    ch = sturm_chain(p)
    assert len(ch) >= 2
    assert count_real_roots(p, F(0), F(2)) == 1
    assert count_real_roots(p, F(-2), F(0)) == 0


def _fold_test_field():
    # 2 cos(pi/7), x^3 - x^2 - 2x + 1: a cubic whose fold rows differ from
    # those of 2 cos(2 pi/7); elements with denominators fold by its rows
    return NumberField(14)


@pytest.mark.parametrize("make", [lambda: NumberField(5), lambda: NumberField(7),
                                  lambda: NumberField(9), _fold_test_field,
                                  lambda: NumberField(16)],
                         ids=["2cos5", "2cos7", "2cos9", "fold", "fold-quartic"])
def test_element_arithmetic_matches_a_fraction_reference(make):
    import random
    K = make()
    m = list(K.min_poly)
    d = K.degree
    # seeded by the minimal polynomial as printed in its variable
    rng = random.Random(str(dense_to_poly(K.min_poly, "v")))
    for _ in range(40):
        xs, ys = ([F(rng.randint(-30, 30), rng.choice([1, 2, 3, 6, 7]))
                   if rng.random() < 0.75 else F(0) for _ in range(d)] for _ in range(2))
        x, y = K.element(xs), K.element(ys)
        assert x.coords == tuple(xs) and all(type(c) is F for c in x.coords)
        assert (x + y).coords == tuple(a + b for a, b in zip(xs, ys))
        assert (x - y).coords == tuple(a - b for a, b in zip(xs, ys))
        assert (-x).coords == tuple(-a for a in xs)
        assert (x * y).coords == tuple(dense_rem(dense_mul(xs, ys), m))
        q = F(rng.randint(-9, 9), rng.randint(1, 9))
        assert (x * q).coords == (q * x).coords == tuple(a * q for a in xs)
        assert (x + q).coords == (xs[0] + q,) + tuple(xs[1:])
        if not x.is_zero():
            inv = x.inverse()
            assert tuple(dense_rem(dense_mul(list(inv.coords), xs), m)) == (1,) + (0,) * (d - 1)
            assert (y / x).coords == tuple(dense_rem(dense_mul(ys, list(inv.coords)), m))
        # equal values built two ways are ==, hash alike, and only then
        z = (x + y) - y
        assert z == x and hash(z) == hash(x)
        assert (z == y) == (tuple(xs) == tuple(ys))
        assert (x == q) == (tuple(xs) == (q,) + (0,) * (d - 1))
        r = K.element([q])
        assert r == q and hash(r) == hash(q) and hash(r + 0) == hash(q)


@pytest.mark.parametrize("make", [lambda: NumberField(9), _fold_test_field],
                         ids=["2cos9", "fold"])
def test_mul_matrix_maps_a_row_to_the_product(make):
    import random
    K = make()
    d = K.degree
    rng = random.Random(d)
    for _ in range(20):
        x, y = (K.element([F(rng.randint(-30, 30), rng.choice([1, 2, 3, 6, 7]))
                           for _ in range(d)]) for _ in range(2))
        rows, den = x.mul_matrix()
        assert type(den) is int and den > 0
        assert len(rows) == d and all(len(row) == d for row in rows)
        assert all(type(c) is int for row in rows for c in row)
        # y as an integer row over its own denominator
        yden = math.lcm(*(c.denominator for c in y.coords))
        yrow = [int(c * yden) for c in y.coords]
        assert tuple(F(sum(a * b for a, b in zip(row, yrow)), den * yden)
                     for row in rows) == (x * y).coords

"""Helpers shared by several test modules. Not a test module itself, so
pytest collects nothing here; the test modules import it by name."""

import cmath
import math
from fractions import Fraction as F

from shimura4 import reductions
from shimura4.reductions import apply_reduction, reduction_plans
from shimura4.numberfield import _sign_variations, refine_interval, sturm_chain
from shimura4.trianglestacks import TriangleError, classify


def with_fields(record, **changes):
    """A record of the same type with some fields changed, built from the
    fields of the given one."""
    values = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**values, **changes})


def recompose(factors):
    """The integer that a factorization {p: e} stands for, the product of
    the p**e."""
    out = 1
    for p, e in factors.items():
        out *= p ** e
    return out


def count_real_roots(p, lo, hi):
    """Number of distinct real roots of squarefree p in (lo, hi], by Sturm's
    theorem on the package's chain."""
    chain = sturm_chain(p)
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def dense_eval(p, x):
    """p(x) for a dense Fraction list p, lowest coefficient first."""
    acc = F(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def dense_mul(a, b):
    """Product of dense Fraction lists, schoolbook, top zeros trimmed."""
    if not a or not b:
        return []
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    while out and out[-1] == 0:
        out.pop()
    return out


def interval_eval(coords, lo, hi):
    """Interval Horner in Fractions: encloses p(alpha) for alpha in
    [lo, hi], p the dense list coords."""
    plo, phi = F(0), F(0)
    for c in reversed(coords):
        cands = (plo * lo, plo * hi, phi * lo, phi * hi)
        plo, phi = min(cands) + c, max(cands) + c
    return plo, phi


def embedding_interval(el, index, width):
    """Exact enclosure of el at the index-th real embedding, at most width
    wide: the field's isolating interval of that root, bisected until the
    interval image of el is narrow enough."""
    K = el.field
    lo, hi = K._roots[index]
    while True:
        vlo, vhi = interval_eval(el.coords, lo, hi)
        if vhi - vlo <= width:
            return vlo, vhi
        lo, hi = refine_interval(K.min_poly, lo, hi, (hi - lo) / 2 if hi > lo else F(1))
        if lo == hi:
            v = dense_eval(el.coords, lo)
            return v, v


def arakelov_with(monkeypatch, n, replaced):
    """arakelov_check(n) with the plan of family n named like `replaced`
    swapped for it."""
    plans = tuple(replaced if plan.name == replaced.name else plan
                  for plan in reduction_plans(n))
    monkeypatch.setattr(reductions, "reduction_plans", lambda _: plans)
    return reductions.arakelov_check(n)


def c9_fiber_components_t1():
    """Reduction reports for both components of the second family at t = 1."""
    plans = reduction_plans(9)
    return apply_reduction(plans[1]), apply_reduction(plans[2])


def _terms_mul(a, b):
    """Product of two {exponent tuple: Fraction} dicts, zero sums dropped."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, F(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def terms_add(a, b):
    """Sum of two {exponent tuple: Fraction} dicts, zero sums dropped."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, F(0)) + c
    return {e: c for e, c in out.items() if c}


def terms_scale(a, c):
    """c times the term dict a."""
    return {e: c * v for e, v in a.items() if c * v}


def terms_coefficient(a, i, k):
    """The coefficient of variable i to the power k, exponent i set to 0."""
    return {e[:i] + (0,) + e[i + 1:]: c for e, c in a.items() if e[i] == k}


def terms_derivative(a, i):
    """Derivative of the term dict a by variable i."""
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a.items() if e[i]}


def terms_evaluate(a, point):
    """a with variable i set to point[i] for each key i, exponents set to
    0, zero sums dropped."""
    out = {}
    for e, c in a.items():
        for i, v in point.items():
            c *= v ** e[i]
        e = tuple(0 if i in point else k for i, k in enumerate(e))
        out[e] = out.get(e, F(0)) + c
    return {e: c for e, c in out.items() if c}


def terms_content(a):
    """The largest positive rational r with every coefficient of a an
    integer multiple of r, by gcd(p/q, r/s) = gcd(p*s, r*q) / (q*s)."""
    from math import gcd
    out = F(0)
    for c in a.values():
        out = F(gcd(out.numerator * c.denominator, c.numerator * out.denominator),
                out.denominator * c.denominator)
    return out


def assert_reduced(p):
    """p keeps integer numerators, none zero, over a positive denominator
    prime to all of them."""
    from math import gcd
    assert type(p._den) is int and p._den > 0
    assert all(type(c) is int and c for c in p._num.values())
    assert gcd(p._den, *p._num.values()) == 1
    return p


def substitute_reference(f, assignments, out_vars):
    """(numerator terms, clearing terms) of f under var -> num/den, as in
    MultiPoly.substitute, by plain dict-and-Fraction arithmetic: each term
    c * prod x_v^e_v becomes c * prod num_v^e_v * den_v^(deg_v f - e_v), an
    unassigned variable mapping to itself over 1."""
    unit = {(0,) * len(out_vars): F(1)}

    def power(terms, k):
        out = unit
        for _ in range(k):
            out = _terms_mul(out, terms)
        return out

    images = []
    for i, v in enumerate(f.variables):
        num, den = assignments.get(v, (None, None))
        if num is None:
            num = {tuple(int(w == v) for w in out_vars): F(1)}
        else:
            num = dict(num.terms)
        images.append((num, unit if den is None else dict(den.terms),
                       max((e[i] for e in f.terms), default=0)))
    numerator, clearing = {}, unit
    for num, den, d in images:
        clearing = _terms_mul(clearing, power(den, d))
    for e, c in f.terms.items():
        term = {(0,) * len(out_vars): c}
        for (num, den, d), k in zip(images, e):
            term = _terms_mul(_terms_mul(term, power(num, k)), power(den, d - k))
        for m, a in term.items():
            numerator[m] = numerator.get(m, F(0)) + a
    return {m: a for m, a in numerator.items() if a}, clearing


def generator_matrices_by_products(n):
    """The integer left-multiplication matrices of the (2, 3, n) triple and
    their least common denominator, built as before the structure-constant
    reading: column v^k e_s of the matrix of g is the quaternion product
    g * e_s times the field product by v^k."""
    from math import lcm

    from shimura4.quaternion import uniformizer_triple
    trip = uniformizer_triple(n)
    alg, field = trip.algebra, trip.algebra.field
    powers = [field.element([0] * k + [1]) for k in range(field.degree)]
    basis = [alg.element(*[0] * s + [1]) for s in range(4)]
    cols = [[[c for x in ge.coords for c in (x * vk).coords]
             for ge in (g * e for e in basis) for vk in powers]
            for delta in (trip.delta_p, trip.delta_q, trip.delta_r)
            for g in (delta, delta.inverse())]
    den = lcm(*(c.denominator for m in cols for col in m for c in col))
    return tuple(tuple(tuple(c.numerator * (den // c.denominator) for c in row)
                       for row in zip(*m)) for m in cols), den


def dense_rem(a, m):
    """Remainder of the dense Fraction list a by the monic dense list m,
    padded with zeros to deg m coordinates."""
    r = list(a)
    d = len(m) - 1
    while len(r) > d:
        c = r.pop()
        for j in range(d):
            r[len(r) - d + j] -= c * m[j]
    return r + [F(0)] * (d - len(r))


def minpoly_2cos_by_primes(n):
    """The minimal polynomial of 2 cos(2 pi/n) as a dense integer row, built
    as before the proper-divisor construction: the squarefree part of
    V_n - 2 with, for each prime p | n, its gcd with V_{n/p} - 2 divided
    out; 1 and 2 are the rational cases."""
    from shimura4.dense import _zt_divide, _zt_gcd, _zt_squarefree
    from shimura4.numberfield import _chebyshev_like
    if n <= 2:
        return [-2, 1] if n == 1 else [2, 1]

    def v_minus_2(k):
        v = _chebyshev_like(k)
        v[0] -= 2
        return v

    f = _zt_squarefree(v_minus_2(n))
    # the primes dividing n, by trial division
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]
    for p in primes:
        f = _zt_divide(f, _zt_gcd(f, v_minus_2(n // p)))
    return f


# ----------------------------------------------------------------------
# the float model of a triangle group, kept as an independent oracle for
# the drawing and the exact count: rotation generators in SU(1,1), as 2x2
# complex tuples ((a, b), (c, d)), around the vertices of the standard
# geodesic triangle in the Poincare disk, built by hyperbolic trigonometry

Mat = tuple


def mat_mul(A: Mat, B: Mat) -> Mat:
    return ((A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
            (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]))


def mat_inv(M: Mat) -> Mat:
    # det = 1 for SU(1,1)
    return ((M[1][1], -M[0][1]), (-M[1][0], M[0][0]))


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

"""Exact polynomial core: arithmetic, division, resultants, squarefree."""

import random
from fractions import Fraction
from math import gcd

import pytest
from _helpers import (
    _terms_mul,
    assert_reduced,
    dense_mul,
    dense_rem,
    substitute_reference,
    terms_add,
    terms_coefficient,
    terms_content,
    terms_derivative,
    terms_evaluate,
    terms_scale,
)

from shimura4.dense import _int_dense, _uni_pseudo_rem, _zt_gcd, _zt_squarefree
from shimura4.multipoly import (
    MultiPoly,
    MultiPolyError,
    _degree_bound,
    discriminant,
    poly_to_dense,
    resultant,
    squarefree_decomposition,
)

F = Fraction


def ints(p):
    """A polynomial in x as a dense int list, up to a positive factor."""
    return _int_dense(poly_to_dense(p, "x"))[0]


def monic(p):
    """A dense int list divided by its leading coefficient, as Fractions."""
    return [F(c, p[-1]) for c in p]


def test_construction_drops_zeros():
    p = MultiPoly(("x",), {(2,): 1, (1,): 0, (0,): -3})
    assert set(p.terms) == {(2,), (0,)}
    assert p.degree("x") == 2


def test_basic_arithmetic():
    x, y = MultiPoly.generators("x", "y")
    f = (x + y) * (x - y)
    assert f == x ** 2 - y ** 2
    g = (x + 1) ** 3
    assert g == x ** 3 + 3 * x ** 2 + 3 * x + 1
    assert (f - f).is_zero()
    assert (2 * x) / 2 == x
    assert f ** 0 == 1 and (f - f) ** 0 == 1
    with pytest.raises(MultiPolyError):
        _ = f ** -1


def test_variable_mismatch_raises():
    x, = MultiPoly.generators("x")
    y, = MultiPoly.generators("y")
    with pytest.raises(MultiPolyError):
        _ = x + y


def test_evaluate_partial_and_full():
    x, t = MultiPoly.generators("x", "t")
    f = x ** 2 * t - 2 * x + 1
    assert f.evaluate({"x": 1, "t": 3}) == F(2)
    part = f.evaluate({"t": 2})
    assert isinstance(part, MultiPoly)
    assert part == 2 * x ** 2 - 2 * x + 1


def test_coefficient_and_leading():
    x, t = MultiPoly.generators("x", "t")
    f = (t ** 2 - 3) * x ** 4 + t * x - 7
    assert f.coefficient("x", 4) == t ** 2 - 3
    assert f.leading_coefficient("x") == t ** 2 - 3
    assert f.coefficient("x", 0) == MultiPoly.constant(-7, ("x", "t"))


def test_exact_div_roundtrip():
    x, y = MultiPoly.generators("x", "y")
    f = (x ** 2 + y + 1) * (x * y - 3)
    assert f.exact_div(x * y - 3) == x ** 2 + y + 1
    assert f.exact_div(x ** 2 + y + 1) == x * y - 3
    with pytest.raises(MultiPolyError):
        (f + 1).exact_div(x * y - 3)


def test_exact_div_with_rational_contents():
    # the primitive integer parts are divided and the ratio of the contents,
    # 3/7 over 5/2, put back once; the divisor's leading coefficient is
    # negative
    x, y = MultiPoly.generators("x", "y")
    q = F(3, 7) * (2 * x ** 2 * y - 5 * y + 3)
    g = F(5, 2) * (-4 * x * y ** 2 + 6 * x - 9)
    assert (q * g).exact_div(g) == q
    assert (q * g).exact_div(-g) == -q
    assert (q * g).exact_div(q) == g
    with pytest.raises(MultiPolyError):
        (q * g + F(1, 3) * x).exact_div(g)
    with pytest.raises(MultiPolyError):
        # the second quotient term, -1/2, is not an integer, which proves
        # the division inexact
        (2 * x ** 2 + 1).exact_div(2 * x + 1)
    assert MultiPoly(("x", "y"), {}).exact_div(g).is_zero()


def test_substitute_identity_of_clearing():
    # f(num/den) * den^deg == numerator, checked at sample points
    x, t = MultiPoly.generators("x", "t")
    f = x ** 3 - 2 * x * t + t ** 2
    u, s = MultiPoly.generators("u", "s")
    num, clr = f.substitute({"x": (u + 1, u - 2), "t": (s, u)})
    for uv, sv in [(F(3), F(5)), (F(-1), F(2)), (F(7, 2), F(1, 3))]:
        lhs = f.evaluate({"x": (uv + 1) / (uv - 2), "t": sv / uv})
        assert lhs == num.evaluate({"u": uv, "s": sv}) / clr.evaluate({"u": uv, "s": sv})


def _random_sum(rng, gens, terms, max_deg):
    """A sum of random monomials in gens with Fraction coefficients."""
    f = MultiPoly(gens[0].variables, {})
    for _ in range(terms):
        m = MultiPoly.constant(F(rng.randint(-9, 9), rng.randint(1, 6)), gens[0].variables)
        for g in gens:
            m = m * g ** rng.randint(0, max_deg)
        f = f + m
    return f


@pytest.mark.parametrize("seed", range(8))
def test_substitute_matches_a_dict_and_fraction_reference(seed):
    # rational coefficients everywhere, a denominator that is not constant,
    # a polynomial image, and t left unassigned, so it maps to itself
    rng = random.Random(seed)
    x, y, t = MultiPoly.generators("x", "y", "t")
    out = ("u", "s", "t")
    gens = MultiPoly.generators(*out)
    f = _random_sum(rng, (x, y, t), 6, 3)
    den = _random_sum(rng, gens, 2, 2) + F(1, 3) * gens[0]
    assignments = {"x": (_random_sum(rng, gens, 3, 2), den),
                   "y": (_random_sum(rng, gens, 2, 2), None)}
    num, clearing = f.substitute(assignments)
    want_num, want_clearing = substitute_reference(f, assignments, out)
    assert num.variables == out
    assert num.terms == want_num
    assert clearing.terms == want_clearing
    assert all(type(c) is F for c in num.terms.values())


def test_substitute_cancels_terms_like_the_reference():
    # (x - y)^2 under x -> (u + s) / (2u), y -> (u - s) / (2u): the u^4,
    # u^3*s and u*s^3 terms cancel, leaving 16 u^2 s^2 over the clearing
    # (2u)^4; x*y - y*x cancels in f itself
    x, y = MultiPoly.generators("x", "y")
    u, s = MultiPoly.generators("u", "s")
    for f, want in (((x - y) ** 2, {(2, 2): F(16)}), (x * y - y * x + 1, {(0, 0): F(1)})):
        assignments = {"x": (u + s, 2 * u), "y": (u - s, 2 * u)}
        num, clearing = f.substitute(assignments)
        assert (num.terms, clearing.terms) == substitute_reference(f, assignments, ("u", "s"))
        assert num.terms == want


@pytest.mark.parametrize("seed", range(4))
def test_evaluate_matches_term_by_term_fractions(seed):
    rng = random.Random(100 + seed)
    x, y, t = gens = MultiPoly.generators("x", "y", "t")
    f = _random_sum(rng, gens, 8, 3)
    point = {"x": F(rng.randint(-5, 5), rng.randint(1, 4)), "y": F(0),
             "t": F(rng.randint(-5, 5), rng.randint(1, 4))}
    for names in (("x",), ("x", "t"), ("y",), ("x", "y", "t")):
        want = {}
        for e, c in f.terms.items():
            for name, k in zip(f.variables, e):
                if name in names:
                    c *= point[name] ** k
            key = tuple(0 if name in names else k for name, k in zip(f.variables, e))
            want[key] = want.get(key, F(0)) + c
        want = {e: c for e, c in want.items() if c}
        got = f.evaluate({name: point[name] for name in names})
        if len(names) == 3:
            assert got == want.get((0, 0, 0), F(0)) and type(got) is F
        else:
            assert got.terms == want


def test_substitute_polynomial_images():
    x, t = MultiPoly.generators("x", "t")
    f = x ** 2 + t
    u, = MultiPoly.generators("u")
    num, clr = f.substitute({"x": (u ** 2, None), "t": (u ** 4 + 1, None)})
    assert clr == MultiPoly.constant(1, ("u",))
    assert num == u ** 4 + u ** 4 + 1


def test_substitute_zero_denominator_rejected():
    x, = MultiPoly.generators("x")
    u, = MultiPoly.generators("u")
    with pytest.raises(MultiPolyError):
        x.substitute({"x": (u, MultiPoly(("u",), {}))})


def test_substitute_error_paths():
    x, t = MultiPoly.generators("x", "t")
    u, = MultiPoly.generators("u")
    v, = MultiPoly.generators("v")
    f = x * t
    bad = [
        {},                                                 # empty substitution
        {"x": u, "t": v},                                   # images on two rings
        {"x": (u, v)},                                      # denominator elsewhere
        {"z": u},                                           # unknown variable
        {"x": (u, MultiPoly(("u",), {}))},                  # zero denominator
        {"x": u},                                           # t not in the image ring
    ]
    for sigma in bad:
        with pytest.raises(MultiPolyError):
            f.substitute(sigma)


def test_valuation_and_reduce():
    u, x = MultiPoly.generators("u", "x")
    f = u ** 3 * (x ** 2 + 1) + u ** 5 * x
    assert f.valuation("u") == 3
    assert f.shift_down("u", 3) == x ** 2 + 1 + u ** 2 * x
    with pytest.raises(MultiPolyError):
        f.shift_down("u", 4)


def test_resultant_univariate_known():
    # res(x^2 - 1, x^2 - 4) = 9 (pairwise differences of roots multiplied)
    x, = MultiPoly.generators("x")
    r = resultant(x ** 2 - 1, x ** 2 - 4, "x")
    assert r == MultiPoly.constant(9, ("x",))
    # res(x - a, x - b) = b - a ... as constants
    r2 = resultant(x - 2, x - 5, "x")
    assert r2 == MultiPoly.constant(-3, ("x",))


def test_resultant_common_root_is_zero():
    x, = MultiPoly.generators("x")
    f = (x - 1) * (x + 2)
    g = (x - 1) * (x ** 2 + 1)
    assert resultant(f, g, "x").is_zero()


def test_resultant_with_a_zero_operand_is_zero():
    x, t = MultiPoly.generators("x", "t")
    zero = MultiPoly(("x", "t"), {})
    for f, g in ((zero, x - t), (x ** 2 - t, zero), (zero, zero)):
        r = resultant(f, g, "x")
        assert r.is_zero() and r.variables == ("x", "t")


def test_resultant_bivariate_elimination():
    # res_x(x^2 - t, x - 3) = 9 - t
    x, t = MultiPoly.generators("x", "t")
    r = resultant(x ** 2 - t, x - 3, "x")
    assert r == 9 - t + MultiPoly(("x", "t"), {})


def test_resultant_swap_sign():
    x, = MultiPoly.generators("x")
    f = x ** 3 - 2 * x + 1
    g = x ** 2 + x - 1
    rfg = resultant(f, g, "x")
    rgf = resultant(g, f, "x")
    # deg f * deg g = 6 even: equal
    assert rfg == rgf
    f2 = x ** 3 - x
    g2 = x ** 3 + 2 * x ** 2 - 1  # both degrees odd: antisymmetric
    assert resultant(f2, g2, "x") == -resultant(g2, f2, "x")


def _sylvester_det(f, g, var):
    """Determinant of the Sylvester matrix of f and g in var, by
    fraction-free (Bareiss) elimination over the MultiPoly ring."""
    vt = f.variables
    zero = MultiPoly(vt, {})
    a = [f.coefficient(var, k) for k in range(f.degree(var), -1, -1)]
    b = [g.coefficient(var, k) for k in range(g.degree(var), -1, -1)]
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    rows = ([[zero] * i + a + [zero] * (n - 1 - i) for i in range(n)]
            + [[zero] * i + b + [zero] * (m - 1 - i) for i in range(m)])
    sign, prev = 1, MultiPoly.constant(1, vt)
    for k in range(size):
        piv = next((r for r in range(k, size) if rows[r][k]), None)
        if piv is None:
            return zero
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * rows[k][k]
                              - rows[i][k] * rows[k][j]).exact_div(prev)
        prev = rows[k][k]
    return sign * prev


def _random_poly(rng, vt, degrees, nterms, frac=False):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, d) for d in degrees)
        terms[e] = F(rng.randint(-9, 9), rng.randint(1, 6) if frac else 1)
    return MultiPoly(vt, terms)


def _resultant_cases():
    """Seeded (name, f, g, var) cases, each aimed at one part of the
    evaluation/interpolation resultant."""
    rng = random.Random(20251001)
    vt = ("x", "t")
    x, t = MultiPoly.generators(*vt)
    bad = t * (t - 1) * (t + 1) * (t - 2)  # vanishes at 0, 1, -1 and 2
    cases = []
    for k in range(3):
        cases.append((f"lc-vanishes-at-first-points-{k}",
                      bad * x ** 3 + _random_poly(rng, vt, (2, 2), 5),
                      _random_poly(rng, vt, (2, 2), 4) + (t + 3) * x ** 2, "x"))
        a, c, d = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3))
        b = a * c - c * c + d
        # res = f(-c*t) = d * t^2 + 7: degree 2, below the bound 4
        cases.append((f"degree-below-bound-{k}",
                      x ** 2 + a * t * x + b * t ** 2 + 7, x + c * t, "x"))
        cases.append((f"fraction-coefficients-{k}",
                      _random_poly(rng, vt, (4, 2), 6, frac=True) + F(2, 3) * x ** 5,
                      _random_poly(rng, vt, (3, 3), 5, frac=True) - F(5, 7) * t * x ** 4, "x"))
        common = x - rng.randint(-3, 3) * t - 1
        cases.append((f"common-factor-{k}",
                      common * _random_poly(rng, vt, (2, 2), 4) * x,
                      common * (_random_poly(rng, vt, (2, 1), 3) + x ** 3), "x"))
        cases.append((f"var-degree-zero-{k}",
                      _random_poly(rng, vt, (0, 3), 3) + 1,
                      _random_poly(rng, vt, (3, 2), 5) + x ** 4, "x"))
        cases.append((f"eliminate-the-parameter-{k}",
                      _random_poly(rng, vt, (3, 3), 6) + t ** 4,
                      _random_poly(rng, vt, (2, 2), 5) + x * t ** 2, "t"))
    vt3 = ("Y", "W", "t")
    Y, W, tt = MultiPoly.generators(*vt3)
    for k in range(3):
        # the disc_W shape: a cubic in W with coefficients in Y and t
        G = (3 * W ** 3 + (tt - 1) * _random_poly(rng, vt3, (2, 1, 2), 6)
             + _random_poly(rng, vt3, (2, 0, 1), 3))
        cases.append((f"two-parameters-{k}", G, G.derivative("W"), "W"))
    # planted content in t: the resultant of the primitive parts is scaled
    # back by content^deg of the other operand
    content = (3 * t + 2) * t ** 2 * (t - 1) ** 3  # leading coefficient 3
    for k in range(2):
        f = _random_poly(rng, vt, (3, 2), 5) + x ** 4
        g = _random_poly(rng, vt, (2, 2), 4) + (t + 1) * x ** 3
        cases.append((f"content-on-one-operand-{k}", content * f, g, "x"))
        cases.append((f"content-on-both-operands-{k}", content * f,
                      (t - 1) ** 2 * (2 * t - 3) * g, "x"))
        cases.append((f"negative-leading-content-{k}", -(5 * t + 1) * t * f,
                      -(t + 4) * g, "x"))
        cases.append((f"content-with-fraction-coefficients-{k}",
                      F(2, 3) * content * (_random_poly(rng, vt, (3, 2), 5, frac=True)
                                           + F(1, 2) * x ** 3),
                      F(5, 7) * t ** 3 * (_random_poly(rng, vt, (2, 1), 4, frac=True)
                                          - x ** 2), "x"))
    # Y is specialised first: the coefficients in W have no common factor,
    # but at Y = 0 they share 2t and at Y = 1 they share 2t + 1
    vt4 = ("t", "W", "Y")
    t4, W4, Y4 = MultiPoly.generators(*vt4)
    for k in range(2):
        f = ((2 * t4 + Y4) * W4 ** 3 + (2 * t4 + Y4 ** 2) * W4 ** 2
             + (2 * t4 + Y4 ** 3) * (W4 + Y4 + 1))
        g = t4 * (t4 + 1) * W4 ** 2 + _random_poly(rng, vt4, (2, 1, 2), 4) + Y4
        cases.append((f"content-after-specialising-{k}", f, g, "W"))
    return cases


RESULTANT_CASES = _resultant_cases()


@pytest.mark.parametrize("name,f,g,var", RESULTANT_CASES,
                         ids=[c[0] for c in RESULTANT_CASES])
def test_resultant_matches_sylvester_determinant(name, f, g, var):
    r = resultant(f, g, var)
    assert r == _sylvester_det(f, g, var)
    assert r.degree(var) <= 0
    if name.startswith("common-factor"):
        assert r.is_zero()
    else:
        assert not r.is_zero()
    if name.startswith("degree-below-bound"):
        bound = (g.degree(var) * f.degree("t") + f.degree(var) * g.degree("t"))
        assert r.degree("t") == 2 < bound
    if name.startswith("var-degree-zero"):
        assert f.degree(var) == 0
        assert r == f ** g.degree(var)
        assert resultant(g, f, var) == r


@pytest.mark.parametrize("name,f,g,var", RESULTANT_CASES,
                         ids=[c[0] for c in RESULTANT_CASES])
def test_resultant_matches_sympy(name, f, g, var):
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(f.variables)

    def to_sympy(p):
        return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                           * sympy.Mul(*(s ** k for s, k in zip(syms, e)))
                           for e, c in p.terms.items()))

    want = sympy.resultant(to_sympy(f), to_sympy(g), syms[f.variables.index(var)])
    assert sympy.expand(to_sympy(resultant(f, g, var)) - want) == 0


def test_planted_content_costs_no_interpolation_points(monkeypatch):
    # t^20 is divided out before interpolating, so it adds no base-case
    # resultant; it comes back as (t^20)^deg g
    import shimura4.multipoly as multipoly
    calls = []
    base = multipoly._res_int
    monkeypatch.setattr(multipoly, "_res_int",
                        lambda A, B: calls.append(1) or base(A, B))
    x, t = MultiPoly.generators("x", "t")
    f = x ** 3 + (t + 2) * x ** 2 - 3 * t ** 2 * x + 5 * t - 1
    g = 2 * x ** 2 + t * x - 7
    plain = resultant(f, g, "x")
    n = len(calls)
    planted = resultant(t ** 20 * f, g, "x")
    assert len(calls) - n <= n
    assert planted == t ** (20 * g.degree("x")) * plain
    # on (x, s, t), t is set first, so s is the parameter left at the
    # one-parameter level: a content (s - 1)^5 * s^3 there is divided out
    # too and costs no base case
    x, s, t = MultiPoly.generators("x", "s", "t")
    f = x ** 3 + (s * t + 2) * x ** 2 - 3 * t ** 2 * x + 5 * s - t
    g = 2 * x ** 2 + (s - t) * x - 7 * s * t + 1
    c = (s - 1) ** 5 * s ** 3
    calls.clear()
    plain = resultant(f, g, "x")
    n = len(calls)
    planted = resultant(c * f, g, "x")
    assert len(calls) == 2 * n
    assert planted == c ** g.degree("x") * plain


def _sloped_poly(rng, vt, m, slope):
    """A polynomial of degree m in vt[0] whose coefficient of vt[0]^i has
    degree about 3 + slope*i in the last variable, and up to 1 in the
    others."""
    terms = {}
    for i in range(m + 1):
        d = max(0, 3 + slope * i + rng.randint(-1, 1))
        for k in range(rng.randint(1, 3)):
            top = d if k == 0 else rng.randint(0, d)
            rest = tuple(rng.randint(0, 1) for _ in vt[1:-1])
            terms[(i,) + rest + (top,)] = F(rng.choice([-3, -2, -1, 1, 2, 3]))
    return MultiPoly(vt, terms)


def test_degree_bound_lies_between_true_degree_and_row_bound():
    # coefficient degrees that grow or shrink linearly in the x-degree are
    # where the Newton polygon bound falls below the Sylvester row bound
    rng = random.Random(20261019)
    below = 0
    for vt in (("x", "t"), ("x", "s", "t")):
        for slope in (-2, -1, 0, 1, 2):
            for _ in range(2):
                f = _sloped_poly(rng, vt, rng.randint(2, 4), slope)
                g = _sloped_poly(rng, vt, rng.randint(1, 3), rng.choice([slope, -slope]))
                r = resultant(f, g, "x")
                assert r == _sylvester_det(f, g, "x")
                da = [f.coefficient("x", i).degree("t") for i in range(f.degree("x") + 1)]
                db = [g.coefficient("x", j).degree("t") for j in range(g.degree("x") + 1)]
                bound = _degree_bound(da, db)
                row_bound = g.degree("x") * max(da) + f.degree("x") * max(db)
                assert r.degree("t") <= bound <= row_bound
                below += bound < row_bound
    assert below >= 10


def _one_parameter_bounds(f, g):
    """(order bound at t = 0, degree bound) of the resultant in x of f and g
    on (x, t), as the one-parameter level of the resultant reads them."""
    import shimura4.multipoly as multipoly
    A, B = ([multipoly._group_last(c) for c in multipoly._integer_rows(
        p, 0, p.degree("x"), [1], gcd(*p._num.values()))] for p in (f, g))
    degrees = ([max(map(len, c.values()), default=0) - 1 for c in P] for P in (A, B))
    return multipoly._order_bound(A, B), _degree_bound(*degrees)


def _planted_pair(rng, r):
    """f = (x - r)^i * a + t^k * c and g = (x - r)^j * b + t^l * d, with r
    a rational, random small a, b, c, d and 1 <= i, j, k, l <= 3: both
    vanish at x = r when t = 0, so the resultant has positive order at
    t = 0."""
    x, t = MultiPoly.generators("x", "t")

    def small(deg):
        return sum((rng.choice([-3, -2, -1, 1, 2, 3]) * x ** e * t ** rng.randint(0, 2)
                    for e in range(deg + 1)), MultiPoly(("x", "t"), {}))
    f = (x - r) ** rng.randint(1, 3) * (x + rng.choice([-2, -1, 1, 2]) + small(1) * t)
    g = (x - r) ** rng.randint(1, 3) * (2 * x - rng.choice([-3, 1, 3]) + small(0) * t)
    return f + t ** rng.randint(1, 3) * small(2), g + t ** rng.randint(1, 3) * small(1)


def test_order_bound_lies_below_true_order_at_zero():
    # operands that share the rational root x = c at t = 0, with planted
    # powers of t in the rest: the order bound never exceeds the true order
    # of the resultant at t = 0, the resultant interpolated above it is the
    # Sylvester determinant, and the bound is the same under translations
    # of x, the one by c included, because the orders are read at the
    # common root
    rng = random.Random(20261020)
    x, t = MultiPoly.generators("x", "t")
    positive = 0
    for _ in range(12):
        c = F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        f, g = _planted_pair(rng, c)
        r = resultant(f, g, "x")
        assert r == _sylvester_det(f, g, "x")
        low, bound = _one_parameter_bounds(f, g)
        if not r.is_zero():
            assert low <= r.valuation("t") <= r.degree("t") <= bound
        positive += low > 0
        for shift in (c, *rng.sample(range(-3, 4), 3)):
            fs, gs = (p.substitute({"x": x + shift})[0] for p in (f, g))
            assert _one_parameter_bounds(fs, gs)[0] == low
            assert resultant(fs, gs, "x") == r
    assert positive >= 10


def test_shared_factor_gives_zero_without_evaluating(monkeypatch):
    # f and g share the factor x - 2, so their resultant is 0; read at the
    # common root x = 2 of f and g at t = 0, the order bound exceeds the
    # degree bound, so the resultant is 0 with no base case evaluated
    import shimura4.multipoly as multipoly
    calls = []
    base = multipoly._res_int
    monkeypatch.setattr(multipoly, "_res_int",
                        lambda A, B: calls.append(1) or base(A, B))
    x, t = MultiPoly.generators("x", "t")
    f = (x - 2) * (x - 2 + t)
    g = (x - 2) ** 2
    assert _one_parameter_bounds(f, g) == (4, 2)
    assert resultant(f, g, "x").is_zero()
    assert calls == []
    assert _sylvester_det(f, g, "x").is_zero()


def test_resultant_of_two_constants_is_one():
    x, t = MultiPoly.generators("x", "t")
    assert resultant(t + 2, 3 * t, "x") == 1


def test_constant_hashes_like_its_value():
    p = MultiPoly.constant(3, ("x",))
    assert p == 3 and hash(p) == hash(3)
    assert len({p, 3}) == 1
    half = MultiPoly.constant(F(1, 2), ("x", "t"))
    assert half == F(1, 2) and hash(half) == hash(F(1, 2))
    zero = MultiPoly(("x",), {})
    assert zero == 0 and hash(zero) == hash(0)


def test_discriminant_quadratic_cubic():
    x, = MultiPoly.generators("x")
    a, b, c = 3, -5, 7
    f = a * x ** 2 + b * x + c
    assert discriminant(f, "x") == MultiPoly.constant(b * b - 4 * a * c, ("x",))
    # depressed cubic x^3 + px + q: disc = -4p^3 - 27q^2
    p, q = -2, 3
    g = x ** 3 + p * x + q
    assert discriminant(g, "x") == MultiPoly.constant(-4 * p ** 3 - 27 * q ** 2, ("x",))


def test_discriminant_with_parameter():
    x, t = MultiPoly.generators("x", "t")
    f = x ** 2 - t
    assert discriminant(f, "x") == 4 * t + MultiPoly(("x", "t"), {})


def test_discriminant_degree_guard():
    x, = MultiPoly.generators("x")
    with pytest.raises(MultiPolyError):
        discriminant(x + 1, "x")


def test_gcd_univariate_monic():
    x, = MultiPoly.generators("x")
    f = (x - 1) ** 2 * (x + 3)
    g = (x - 1) * (x ** 2 + 2)
    assert monic(_zt_gcd(ints(f), ints(g))) == [-1, 1]
    assert monic(_zt_gcd(ints(f), ints(x + 7))) == [1]
    assert _zt_gcd([], []) == []


def test_pseudo_remainder_matches_the_fraction_remainder():
    # prem(A, B) = lc(B)^(deg A - deg B + 1) * rem(A, B), with rem the
    # remainder over Q by the monic B / lc(B); A = Q*B + R makes several
    # leading terms cancel in one step, so the leftover power is exercised
    rng = random.Random(20)
    for trial in range(400):
        B = [rng.randint(-40, 40) for _ in range(rng.randint(1, 6))]
        B.append(rng.choice([-6, -1, 1, 2, 5, 12]))
        if trial % 2:
            Q = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))] + [rng.randint(1, 9)]
            A = [int(c) for c in dense_mul([F(c) for c in Q], [F(c) for c in B])]
            for k in range(rng.randint(0, len(B) - 1)):
                A[k] += rng.randint(-5, 5)
        else:
            A = [rng.randint(-99, 99) for _ in range(rng.randint(len(B) - 1, 10))]
            A.append(rng.choice([-7, -1, 1, 3]))
        lb, scale = B[-1], B[-1] ** (len(A) - len(B) + 1)
        expected = [c * scale for c in dense_rem([F(c) for c in A], [F(c, lb) for c in B])]
        while expected and expected[-1] == 0:
            expected.pop()
        assert all(c.denominator == 1 for c in expected)
        assert _uni_pseudo_rem(A, B) == expected


def test_gcd_with_parameter_coefficients():
    # squarefree decompositions are univariate: a parameter is refused
    x, t = MultiPoly.generators("x", "t")
    common = x ** 2 + t
    with pytest.raises(MultiPolyError):
        squarefree_decomposition(common ** 2, "x")
    # a variable of the ring that does not occur is fine, and is kept
    assert _zt_squarefree(ints((x - 1) ** 2 * (x + 2))) == [-2, 1, 1]
    assert squarefree_decomposition((x - 1) ** 2, "x") == [(x - 1, 2)]


def test_squarefree_part():
    x, = MultiPoly.generators("x")
    f = x ** 2 * (x - 1)
    assert _zt_squarefree(ints(f)) == ints(x * (x - 1))
    assert _zt_squarefree(ints(x ** 3)) == [0, 1]


def test_squarefree_decomposition_yun():
    x, = MultiPoly.generators("x")
    f = (x - 1) * (x + 2) ** 2 * (x - 3) ** 4
    dec = squarefree_decomposition(f, "x")
    assert [(str(p), m) for p, m in dec] == [("x - 1", 1), ("x + 2", 2), ("x - 3", 4)]
    rebuilt = MultiPoly.constant(1, ("x",))
    for p, m in dec:
        rebuilt = rebuilt * p ** m
    assert f.exact_div(rebuilt).is_constant()


def _random_planted(rng, x):
    """A random product of 1..3 factors over Q, each to a power 1..3."""
    f = MultiPoly.constant(F(rng.randint(1, 9), rng.randint(1, 5)), ("x",))
    for _ in range(rng.randint(1, 3)):
        deg = rng.randint(1, 3)
        p = x ** deg + sum((F(rng.randint(-6, 6), rng.randint(1, 4)) * x ** k
                            for k in range(deg)), MultiPoly(("x",), {}))
        f = f * p ** rng.randint(1, 3)
    return f


def test_gcd_and_squarefree_match_sympy():
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("x")
    x, = MultiPoly.generators("x")

    def to_sympy(p):
        return sympy.Poly({e: sympy.Rational(c.numerator, c.denominator)
                           for e, c in p.terms.items()}, X, domain="QQ")

    def coeffs(p):  # lowest first, as Fractions
        return [F(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]

    def dense(p):
        return [p.coefficient("x", k).constant_value() for k in range(p.degree("x") + 1)]

    rng = random.Random(2025)
    for _ in range(40):
        shared = _random_planted(rng, x)
        f = shared * _random_planted(rng, x)
        g = shared * _random_planted(rng, x)
        sf, sg = to_sympy(f), to_sympy(g)
        assert monic(_zt_gcd(ints(f), ints(g))) == coeffs(sf.gcd(sg).monic())
        assert monic(_zt_squarefree(ints(f))) == coeffs(sf.sqf_part().monic())
        want = [(coeffs(p.monic()), m) for p, m in sf.sqf_list()[1]]
        got = [(dense(p), m) for p, m in squarefree_decomposition(f, "x")]
        assert got == sorted(want, key=lambda pm: pm[1])


def test_str_is_deterministic_graded_lex():
    x, t = MultiPoly.generators("x", "t")
    f = t * x ** 2 - 2 * x + t ** 3 - 1
    assert str(f) == "x^2*t + t^3 - 2*x - 1"


def test_content_primitive():
    x, = MultiPoly.generators("x")
    f = 6 * x ** 2 - 4 * x + 2
    assert f.content() == 2
    f2 = x / 2 + F(1, 3)
    assert f2.content() == F(1, 6)


@pytest.mark.parametrize("seed", range(6))
def test_operations_match_a_dict_and_fraction_reference(seed):
    # every operation on the integer numerators against the same operation
    # on Fraction term dicts, and after each one the result is reduced
    rng = random.Random(300 + seed)
    vt = ("x", "y", "t")
    x, y, t = MultiPoly.generators(*vt)
    f = _random_poly(rng, vt, (3, 2, 2), 6, frac=True) + F(2, 5) * x ** 4
    g = _random_poly(rng, vt, (2, 2, 1), 4, frac=True) + F(1, 7) * t ** 3
    A, B = f.terms, g.terms

    def check(p, want):
        assert_reduced(p)
        assert p.terms == want

    c = F(rng.choice([-5, -3, 2, 4]), rng.choice([3, 6, 9]))
    check(f + g, terms_add(A, B))
    check(f - g, terms_add(A, terms_scale(B, F(-1))))
    check(-f, terms_scale(A, F(-1)))
    check(f - f, {})
    check(c * f, terms_scale(A, c))
    check(f * c, terms_scale(A, c))
    check(f / c, terms_scale(A, 1 / c))
    check(f * 0, {})
    check(f * g, _terms_mul(A, B))
    check(f ** 3, _terms_mul(_terms_mul(A, A), A))
    check(f ** 0, {(0, 0, 0): F(1)})
    for i, v in enumerate(vt):
        for k in range(f.degree(v) + 1):
            check(f.coefficient(v, k), terms_coefficient(A, i, k))
        check(f.derivative(v), terms_derivative(A, i))
        k = f.valuation(v)
        check(f.shift_down(v, k), {e[:i] + (e[i] - k,) + e[i + 1:]: a for e, a in A.items()})
        check((t ** 2 * f).shift_down("t", 2), A)
    # the sum of two denominators 6 reduces to one over 2; a constant
    # differentiates to zero; x*t - y*t at x = y cancels
    check(F(1, 6) * x + F(1, 3) * x, {(1, 0, 0): F(1, 2)})
    check((F(1, 6) * x + F(1, 3)) - F(1, 6) * x, {(0, 0, 0): F(1, 3)})
    check(MultiPoly.constant(F(3, 4), vt).derivative("x"), {})
    check((x * t - y * t).evaluate({"x": c, "y": c}), {})
    fg = MultiPoly(vt, _terms_mul(A, B))
    check(fg.exact_div(g), A)
    check(fg.exact_div(f), B)
    with pytest.raises(MultiPolyError):
        (fg + x).exact_div(g)
    point = {0: F(rng.randint(-4, 4), rng.randint(1, 5)), 2: F(rng.randint(-4, 4), 3)}
    check(f.evaluate({vt[i]: a for i, a in point.items()}), terms_evaluate(A, point))
    point[1] = F(rng.randint(-4, 4), 7)
    got = f.evaluate({vt[i]: a for i, a in point.items()})
    assert type(got) is F and got == terms_evaluate(A, point).get((0, 0, 0), F(0))
    assert f.content() == terms_content(A) and g.content() == terms_content(B)
    assert (f - f).content() == 0


def test_equal_polynomials_have_equal_fields():
    # built by arithmetic, by the checked constructor from unreduced
    # fractions, and as an exact quotient: one set of fields, one hash
    x, y = MultiPoly.generators("x", "y")
    by_arithmetic = F(1, 2) * (x - 1) * (y + F(1, 3))
    by_constructor = MultiPoly(("x", "y"), {(1, 1): F(-2, -4), (1, 0): F(2, 12),
                                            (0, 1): F(-2, 4), (0, 0): F(-3, 18)})
    cofactor = 3 * x ** 2 + y - F(5, 2)
    by_division = (by_arithmetic * cofactor).exact_div(cofactor)
    for p in (by_constructor, by_division):
        assert_reduced(p)
        assert p == by_arithmetic and hash(p) == hash(by_arithmetic)
        assert (p._num, p._den) == (by_arithmetic._num, by_arithmetic._den)
    assert len({by_arithmetic, by_constructor, by_division}) == 1

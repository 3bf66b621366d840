"""Randomized property tests. Every test draws at least 100 instances from
a fixed-seed generator, so runs are deterministic."""

import itertools
import math
import random
from fractions import Fraction as F

from _helpers import (
    IDENTITY,
    arakelov_with,
    embedding_interval,
    mat_dist,
    mat_mul,
    rotation_generators,
    with_fields,
)

from shimura4.families import c7_discriminant, specialize_c7
from shimura4.hypergeom import (
    hypergeometric_data,
    invariant_table,
    stabilizer,
    units,
)
from shimura4.multipoly import MultiPoly, discriminant, resultant
from shimura4.numberfield import field_2cos
from shimura4.quaternion import uniformizer_triple
from shimura4.reductions import (
    DivideStep,
    ReductionPlan,
    SubstStep,
    apply_reduction,
    chart_orders,
    reduction_plans,
)
from shimura4.trianglestacks import classify, bezout_weights


def float_at_embedding(el, index):
    """The image of el at a real embedding, from an exact enclosure."""
    lo, hi = embedding_interval(el, index, F(1, 10 ** 20))
    return float((lo + hi) / 2)


def rand_frac(rng, num=9, den=5):
    return F(rng.randint(-num, num), rng.randint(1, den))


def rand_upoly(rng, var, max_deg, nonzero=True):
    deg = rng.randint(1, max_deg)
    x = MultiPoly.variable(var, (var,))
    p = MultiPoly.zero((var,))
    for k in range(deg + 1):
        p = p + rand_frac(rng) * x ** k
    if nonzero and p.is_zero():
        p = p + 1
    return p


def rand_mpoly(rng, variables, max_deg, max_terms):
    gens = MultiPoly.generators(*variables)
    p = MultiPoly.zero(tuple(variables))
    for _ in range(rng.randint(1, max_terms)):
        term = MultiPoly.constant(rand_frac(rng), tuple(variables))
        for g in gens:
            term = term * g ** rng.randint(0, max_deg)
        p = p + term
    return p


def test_resultant_is_multiplicative():
    rng = random.Random(101)
    done = 0
    while done < 100:
        f = rand_upoly(rng, "x", 3)
        g = rand_upoly(rng, "x", 3)
        h = rand_upoly(rng, "x", 3)
        if f.degree("x") < 1 or g.degree("x") < 1 or h.degree("x") < 1:
            continue
        lhs = resultant(f * g, h, "x")
        rhs = resultant(f, h, "x") * resultant(g, h, "x")
        assert lhs == rhs
        done += 1


def test_substitution_is_a_ring_map():
    rng = random.Random(202)
    out_vars = ("x", "u")
    xo, uo = MultiPoly.generators(*out_vars)
    done = 0
    while done < 100:
        f = rand_mpoly(rng, ("x", "t"), 2, 3)
        g = rand_mpoly(rng, ("x", "t"), 2, 3)
        if f.is_zero() or g.is_zero():
            continue
        den_x = uo + rng.randint(1, 3)
        num_x = rand_mpoly(rng, out_vars, 1, 2)
        num_t = rand_mpoly(rng, out_vars, 1, 2)
        sigma = {"x": (num_x, den_x), "t": (num_t, None)}
        nf, cf = f.substitute(sigma)
        ng, cg = g.substitute(sigma)
        nfg, cfg = (f * g).substitute(sigma)
        assert nfg == nf * ng
        assert cfg == cf * cg
        # pointwise identity f(sigma(P)) * clearing(P) == numerator(P)
        pt = {"x": rand_frac(rng), "u": rand_frac(rng)}
        dv = den_x.evaluate(pt)
        if dv == 0:
            continue
        img = {"x": num_x.evaluate(pt) / dv, "t": num_t.evaluate(pt)}
        assert f.evaluate(img) * cf.evaluate(pt) == nf.evaluate(pt)
        # a bare image, and x left out so that it maps to itself
        tau = {"t": num_t}
        nf, cf = f.substitute(tau)
        ng, _ = g.substitute(tau)
        assert (f * g).substitute(tau) == (nf * ng, cf)
        assert cf == 1
        img = {"x": pt["x"], "t": num_t.evaluate(pt)}
        assert f.evaluate(img) == nf.evaluate(pt)
        done += 1


def _rand_quaternion(rng, alg):
    K = alg.field
    d = K.degree
    return alg.element(*(K.element([rand_frac(rng, 3, 2) for _ in range(d)])
                         for _ in range(4)))


def test_quaternion_algebra_identities():
    rng = random.Random(303)
    alg = uniformizer_triple(7).algebra
    for _ in range(100):
        x = _rand_quaternion(rng, alg)
        y = _rand_quaternion(rng, alg)
        assert (x * y).reduced_norm() == x.reduced_norm() * y.reduced_norm()
        assert (x * y).conjugate() == y.conjugate() * x.conjugate()
        assert (x * y).reduced_trace() == (y * x).reduced_trace()


def test_exact_signs_agree_with_floats():
    rng = random.Random(404)
    comparisons = 0
    for n in (7, 9):
        K = field_2cos(n)
        while comparisons < 60 * (1 if n == 7 else 2):
            el = K.element([rand_frac(rng, 4, 3) for _ in range(K.degree)])
            for i in range(K.degree):
                approx = float_at_embedding(el, i)
                if abs(approx) < 1e-6:
                    continue
                exact = el.sign_at_embedding(i)
                assert exact == (1 if approx > 0 else -1)
                comparisons += 1
    assert comparisons >= 120


def test_rotation_relation_for_random_hyperbolic_triples():
    rng = random.Random(505)
    done = 0
    while done < 100:
        p, q, r = (rng.randint(2, 12) for _ in range(3))
        if F(1, p) + F(1, q) + F(1, r) >= 1:
            continue
        assert classify(p, q, r).kind == "hyperbolic"
        gp, gq, gr = rotation_generators(p, q, r)
        prod = mat_mul(mat_mul(gr, gq), gp)
        assert mat_dist(prod, IDENTITY) < 1e-9
        # each generator has the declared projective order
        for g, k in ((gp, p), (gq, q), (gr, r)):
            acc = g
            for _ in range(k - 1):
                acc = mat_mul(acc, g)
            assert mat_dist(acc, IDENTITY) < 1e-8
        done += 1


def _word_traces(n, seqs):
    """(geometric |Re trace|, quaternionic |trace at split place|) pairs."""
    trip = uniformizer_triple(n)
    quat = {0: trip.delta_p, 1: trip.delta_q}
    gp, gq, _ = rotation_generators(2, 3, n)
    geo = {0: gp, 1: gq}
    out = []
    for seq in seqs:
        g = geo[seq[0]]
        w = quat[seq[0]]
        for s in seq[1:]:
            g = mat_mul(g, geo[s])
            w = w * quat[s]
        tg = abs((g[0][0] + g[1][1]).real)
        tq = abs(float_at_embedding(w.reduced_trace(), 0))
        out.append((tg, tq))
    return out


def test_trace_spectra_agree_exhaustively_to_length_4():
    for n in (7, 9):
        seqs = [s for L in range(1, 5)
                for s in itertools.product((0, 1), repeat=L)]
        for tg, tq in _word_traces(n, seqs):
            assert abs(tg - tq) < 1e-6


def test_trace_spectra_agree_on_random_long_words():
    rng = random.Random(606)
    for n in (7, 9):
        seqs = [tuple(rng.randint(0, 1) for _ in range(rng.randint(5, 8)))
                for _ in range(50)]
        for tg, tq in _word_traces(n, seqs):
            assert abs(tg - tq) < 1e-6


def test_reduction_invariant_under_uniformizer_rescaling(monkeypatch):
    base = reduction_plans(7)[0]
    rng = random.Random(707)
    x, y, u = MultiPoly.generators("x", "y", "u")
    done = 0
    while done < 100:
        lam = rand_frac(rng, 6, 4)
        if lam == 0:
            continue
        lu = lam * u
        plan = ReductionPlan(
            name=base.name, family="hyperelliptic", base_point="0",
            uniformizer="u",
            steps=(SubstStep(assignments=(("x", lu ** 2 * x, None),
                                          ("y", lu ** 11 * y, None),
                                          ("t", lu ** 4, None))),
                   DivideStep("u", 22)),
            expected=base.expected, match_kind="twist")
        rep = apply_reduction(plan)
        # the chart is weighted-homogeneous, so the reduced equation and
        # hence the match data do not depend on the rescaling
        assert rep.match == ("twist", F(-567, 64), F(1))
        # nor does the weight, which reads only the exponents
        rescaled = arakelov_with(monkeypatch, 7, plan).contributions[0]
        assert rescaled == ("hyperelliptic-at-0", F(-6))
        done += 1


def test_weights_of_random_monomial_charts(monkeypatch):
    # x -> u^i x, y -> u^j y, t -> u^m at t = 0, with the equation divided
    # by u^k once the denominators that negative i, j put in are cleared
    # (deg_x = 10, deg_y = 2): the form x^a dx/y has order (a+1) i + j - k
    rng = random.Random(808)
    base = reduction_plans(7)[0]
    x, y, u = MultiPoly.generators("x", "y", "u")
    for _ in range(100):
        i, j = rng.randint(-6, 12), rng.randint(-6, 12)
        m, k = rng.randint(1, 8), rng.randint(0, 30)
        images = tuple((name, v * u ** e, None) if e >= 0 else (name, v, u ** -e)
                       for name, v, e in (("x", x, i), ("y", y, j)))
        cleared = 10 * max(0, -i) + 2 * max(0, -j)
        plan = with_fields(base, steps=(
            SubstStep(assignments=images + (("t", u ** m, None),)),
            DivideStep("u", k + cleared)))
        orders = [(a + 1) * i + j - k for a in range(4)]
        assert chart_orders(plan) == (orders, m)
        weight = F(sum(min(0, o) for o in orders), m)
        assert arakelov_with(monkeypatch, 7, plan).contributions[0][1] == weight


def test_bezout_weights_random_pairs():
    rng = random.Random(909)
    done = even_done = 0
    while done < 100:
        p = rng.randint(2, 50)
        q = rng.randint(2, 50)
        if math.gcd(p, q) != 1:
            continue
        a, b = bezout_weights(p, q)
        assert a * p - b * q == 1
        assert 1 <= a <= q
        if p % 2 == 0:
            assert b % 2 == 1
            assert math.gcd(b, 2 * p) == 1
            even_done += 1
        done += 1
    assert even_done >= 20


def test_discriminant_commutes_with_specialization():
    rng = random.Random(111)
    rep = c7_discriminant()
    done = 0
    while done < 100:
        t0 = F(rng.randint(-9, 9), rng.randint(1, 9))
        if t0 in (0, 1, F(27, 16)):
            continue
        fib = specialize_c7(t0)
        d = discriminant(fib, "x").constant_value()
        assert d == rep.constant * t0 ** 54 * (t0 - 1) ** 12
        done += 1


def test_invariants_fixed_by_stabilizer():
    pairs = 0
    for n in (7, 9):
        data = hypergeometric_data(n)
        table = invariant_table(data)
        N = data.level
        for u in stabilizer(data):
            for i in units(N):
                assert table[(u * i) % N] == table[i]
                pairs += 1
    assert pairs >= 100

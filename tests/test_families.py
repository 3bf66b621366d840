from fractions import Fraction as F

import pytest
from _helpers import arakelov_with, c9_fiber_components_t1, with_fields

from shimura4.families import (
    VerificationError,
    _split_constant,
    c7_discriminant,
    c7_equation,
    c7_family,
    c9_family,
    c9_family_flat_form,
    is_smooth_fiber_c7,
    j_invariant_depressed,
    quadratic_twist_factor,
    specialize_c7,
    t1_fiber_split_c7,
)
from shimura4.multipoly import (
    MultiPoly,
    MultiPolyError,
    discriminant,
    restrict_vars,
    squarefree_decomposition,
)
from shimura4.reductions import (
    ArakelovReport,
    DivideStep,
    ReductionPlan,
    SubstStep,
    apply_reduction,
    arakelov_check,
    chart_orders,
    match_hyperelliptic_up_to_twist,
    match_proportional,
    reduction_plans,
)
from shimura4.suites.disc7 import suite_disc7
from shimura4.suites.reductions import T1_TARGET_P, T1_TARGET_Q


def _curve_constant_factorization():
    """What the disc7 suite reports as the curve's discriminant constant."""
    (check,) = [c for c in suite_disc7(None).checks if c.id == "curve-constant-factorization"]
    return check.actual


def P(*names):
    return MultiPoly.generators(*names)


# ----------------------------------------------------------------------
# family definitions


def test_c7_family_shape():
    f = c7_family()
    assert f.variables == ("x", "t")
    assert f.degree("x") == 10
    assert f.degree("t") == 5
    x10 = f.coefficient("x", 10)
    t = MultiPoly.variable("t", x10.variables)
    assert x10 == t * t - F(27, 16) * t
    # odd curve: no constant term in x
    assert f.coefficient("x", 0).is_zero()


def test_c7_family_spot_value():
    # f(1, 2) computed by hand from the defining coefficients
    f = c7_family()
    v = f.evaluate({"x": F(1), "t": F(2)})
    expect = 2 * (F(2 - F(27, 16)) - F(567, 64) - F(189, 4) * 2
                  + (-84 * 4 - F(189, 4) * 2) - 189 * 4 - F(189, 2) * 4
                  + 84 * 8 + 108 * 8 - 28 * 16)
    assert v == expect


def test_c9_family_two_transcriptions_agree():
    assert c9_family() == c9_family_flat_form()


def test_c9_family_shape():
    f = c9_family()
    assert f.variables == ("Y", "W", "t")
    assert f.degree("W") == 3
    assert f.degree("Y") == 6
    assert f.degree("t") == 5
    w3 = f.coefficient("W", 3)
    assert w3.is_constant() and w3.constant_value() == 3


def test_restrict_vars_guard():
    x, t = P("x", "t")
    with pytest.raises(MultiPolyError, match="'t' still occurs"):
        restrict_vars(x * t, ("x",))
    with pytest.raises(MultiPolyError, match="duplicate"):
        restrict_vars(x * x, ("x", "x"))
    q = restrict_vars(x * x + 1, ("x",))
    assert q.variables == ("x",)
    assert q.degree("x") == 2


# ----------------------------------------------------------------------
# discriminant


def test_c7_discriminant_valuations_and_constant():
    rep = c7_discriminant()
    assert rep.t_valuation == 54
    assert rep.t1_valuation == 12
    assert dict(rep.constant_factors) == {2: 20, 3: 36, 7: 10}
    assert rep.constant == F(2) ** 20 * F(3) ** 36 * F(7) ** 10
    assert rep.cofactor == MultiPoly.constant(1, ("t",))
    assert _curve_constant_factorization() == "2^36*3^36*7^10"


def test_split_over_the_family_primes_gives_the_exact_exponents():
    assert _split_constant(1) == {}
    assert _split_constant(2 ** 10) == {2: 10}
    assert _split_constant(2 ** 20 * 3 ** 36 * 7 ** 10) == {2: 20, 3: 36, 7: 10}
    # a prime not among those split over is a cofactor, even a small one
    assert _split_constant(360) == {2: 3, 3: 2, 5: 1}


def test_split_over_the_family_primes_keeps_a_semiprime_whole():
    # nothing is factored: a prime and a semiprime left over each come back
    # as one factor with exponent 1
    p, q = 1000003, 1000033
    assert _split_constant(p) == {p: 1}
    assert _split_constant(p * q) == {p * q: 1}


def test_split_over_the_family_primes_keeps_the_cofactor_whole():
    # a composite or a prime power left over beside the family primes comes
    # back as one factor with exponent 1, next to the exact exponents
    p, q = 1000003, 1000033
    assert _split_constant(7 ** 2 * p * q) == {7: 2, p * q: 1}
    assert _split_constant(2 * 3 ** 4 * p ** 5) == {2: 1, 3: 4, p ** 5: 1}
    p, q = 35184372088891, 70368744177679
    assert _split_constant(7 ** 2 * p * q) == {7: 2, p * q: 1}
    # a denominator splits the same way, with negative exponents
    assert _split_constant(F(2 ** 20, 3 * 5 ** 18)) == {2: 20, 3: -1, 5 ** 18: -1}


def test_discriminant_report_hashes_by_its_fields():
    # a rebuilt report equals the original, hashes alike and collapses in a
    # set; the factorizations are (prime, exponent) pairs, primes increasing
    rep = c7_discriminant()
    copy = with_fields(rep)
    assert copy is not rep
    assert copy == rep and hash(copy) == hash(rep) and len({copy, rep}) == 1
    assert rep.constant_factors == ((2, 20), (3, 36), (7, 10))
    assert _curve_constant_factorization() == "2^36*3^36*7^10"


def test_plane_family_eliminant():
    # disc_Y(disc_W F) = C * t^100 * (t-1)^67 * c(t)^3, c a monic cubic
    d = restrict_vars(discriminant(discriminant(c9_family(), "W"), "Y"), ("t",))
    t, = P("t")
    c = t ** 3 - F(237089, 6859) * t ** 2 - F(29727, 6859) * t - F(2187, 6859)
    rest = d.exact_div(t ** 100 * (t - 1) ** 67)
    assert squarefree_decomposition(rest, "t") == [(c, 3)]
    assert rest.exact_div(c ** 3).is_constant()
    assert rest.evaluate({"t": 0}) != 0 and rest.evaluate({"t": 1}) != 0


def test_eliminations_interpolate_through_the_newton_polygon_bound(monkeypatch):
    # the Newton polygons at t = oo and t = 0 bound the degree and the
    # order of each one-parameter resultant, so the plane elimination makes
    # 119 + 36 base-case resultants and the c7 discriminant 14, where the
    # degree bound alone made 119 + 91 and 50, and the Sylvester row bound
    # 452 + 127 and 77. The order is read at the common root of the
    # operands at t = 0, so translating Y and W changes no count
    import shimura4.multipoly as multipoly
    calls = []
    base = multipoly._res_int
    monkeypatch.setattr(multipoly, "_res_int",
                        lambda A, B: calls.append(1) or base(A, B))
    f = c9_family()
    Y, W, _ = P(*f.variables)
    for g in (f, f.substitute({"Y": Y + 1, "W": W + 2})[0]):
        calls.clear()
        disc_w = discriminant(g, "W")
        assert len(calls) == 119
        discriminant(disc_w, "Y")
        assert len(calls) == 119 + 36
    calls.clear()
    c7_discriminant.__wrapped__()  # past the cache
    assert len(calls) == 14


def test_smoothness_predicate():
    assert not is_smooth_fiber_c7(0)
    assert not is_smooth_fiber_c7(1)
    assert is_smooth_fiber_c7(2)
    assert is_smooth_fiber_c7(F(1, 2))
    assert is_smooth_fiber_c7(-1)


def test_specialization_commutes_with_discriminant():
    rep = c7_discriminant()
    t0 = F(2)
    fib = specialize_c7(t0)
    d_direct = discriminant(fib, "x").constant_value()
    d_family = rep.constant * t0 ** 54 * (t0 - 1) ** 12
    assert d_direct == d_family


# ----------------------------------------------------------------------
# matchers


def test_twist_matcher_recovers_scaling():
    x, = P("x")
    target = x ** 3 - 2 * x + 5
    lhs = 2 * (27 * x ** 3 - 6 * x + 5)  # c = 2, lambda = 3
    got = match_hyperelliptic_up_to_twist(lhs, target, "x")
    assert got == (F(2), F(3))


def test_twist_matcher_prefers_positive_lambda():
    x, = P("x")
    target = x ** 4 + x ** 2 + 1  # even support: both signs fit
    lhs = 16 * x ** 4 + 4 * x ** 2 + 1
    got = match_hyperelliptic_up_to_twist(lhs, target, "x")
    assert got == (F(1), F(2))


def test_twist_matcher_rejects():
    x, = P("x")
    target = x ** 3 + x
    assert match_hyperelliptic_up_to_twist(x ** 3 + 1, target, "x") is None
    assert match_hyperelliptic_up_to_twist(x ** 3 + 2 * x + 1, target, "x") is None
    assert match_hyperelliptic_up_to_twist(x ** 3 + x ** 2, target, "x") is None
    assert match_hyperelliptic_up_to_twist(8 * x ** 3, target, "x") is None
    # an operand in a second variable is no curve y^2 = g(x)
    u, v = P("u", "v")
    assert match_hyperelliptic_up_to_twist(u ** 3 + u * v, u ** 3 + u, "u") is None
    assert match_hyperelliptic_up_to_twist(u ** 3 + u, u ** 3 + u * v, "u") is None


def test_proportional_matcher():
    y, w = P("Y", "W")
    t = 3 * w ** 3 + 16 * y
    assert match_proportional(-2 * t, t) == F(-2)
    assert match_proportional(t + y, t) is None
    # equal contents leave the sign to decide
    assert match_proportional(-t, t) == F(-1)
    zero = MultiPoly(("Y", "W"), {})
    assert match_proportional(zero, t) is None
    assert match_proportional(t, zero) is None


# ----------------------------------------------------------------------
# reduction plans, family 7


def test_reduction_7_at_0():
    plan = reduction_plans(7)[0]
    rep = apply_reduction(plan)
    x, = P("x")
    assert rep.reduced == (-F(567, 64) * x ** 9 - F(189, 4) * x ** 7
                           - F(189, 2) * x ** 5 + 108 * x ** 3 - 28 * x)
    assert rep.match == ("twist", F(-567, 64), F(1))


def test_reduction_7_at_1():
    plan = reduction_plans(7)[1]
    rep = apply_reduction(plan)
    x, = P("x")
    assert rep.reduced == -1152 * x ** 7 + 3456
    assert rep.match == ("twist", F(-1152), F(1))


def test_reduction_7_at_1_inverts_before_translating():
    # x -> 2/x, y -> y/x^5 clears x^20, of which the equation needs only x^10
    plan = reduction_plans(7)[1]
    inversion, divide, *rest = plan.steps
    eq, clearing = c7_equation().substitute(
        {v: (num, den) for v, num, den in inversion.assignments})
    assert clearing == P("x", "y", "t2")[0] ** 20
    assert eq.valuation("x") == 10
    assert divide == DivideStep("x", 10)
    over = with_fields(plan, steps=(inversion, DivideStep("x", 11), *rest))
    with pytest.raises(VerificationError, match="declared division"):
        apply_reduction(over)


def test_reduction_7_at_infinity():
    plan = reduction_plans(7)[2]
    rep = apply_reduction(plan)
    x, = P("x")
    assert rep.reduced == x ** 10 - 84 * x ** 7 + 84 * x ** 4 - 28 * x
    assert rep.match == ("twist", F(1), F(1))


# ----------------------------------------------------------------------
# reduction plans, family 9


def test_reduction_9_at_0():
    plan = reduction_plans(9)[0]
    rep = apply_reduction(plan)
    assert rep.square_scalar == F(-9)
    y, = P("Y")
    assert rep.reduced == (-F(1, 3) * y ** 9 + F(4, 3) * y ** 7 - 2 * y ** 5
                           + F(44, 81) * y ** 3 - F(1, 3) * y)
    assert rep.match == ("twist", F(-1, 3), F(1))


def test_reduction_9_at_1_first_component_flagged():
    plan = reduction_plans(9)[1]
    rep = apply_reduction(plan)
    Y, W = P("Y", "W")
    assert restrict_vars(rep.reduced, ("Y", "W")) == \
        3 * W ** 3 + 7 * Y ** 6 - 20 * Y ** 5 + 16 * Y ** 4
    assert rep.match == ("display-gap", F(7), F(3))


@pytest.mark.parametrize("extra", ["5*Y*W", "Y^2*W^3"])
def test_display_gap_reads_the_whole_equation(extra):
    # each side must be f(Y) + c*W^3 with c constant: a W-term outside W^3,
    # or a W^3 coefficient in Y, fails instead of being flagged as the same
    # curve over the closure
    from shimura4.suites.reductions import _plan_checks
    from shimura4.reductions import _match_display_gap
    plan = reduction_plans(9)[1]
    Y, W = P("Y", "W")
    term = {"5*Y*W": 5 * Y * W, "Y^2*W^3": Y ** 2 * W ** 3}[extra]
    computed = 3 * W ** 3 + 7 * Y ** 6 - 20 * Y ** 5 + 16 * Y ** 4
    assert _match_display_gap(plan, computed) == ("display-gap", F(7), F(3))
    with pytest.raises(VerificationError, match=r"is not f\(Y\) \+ c\*W\^3"):
        _match_display_gap(plan, computed + term)
    # in the expected display, the same term is a failed check, not a crash
    (check,) = _plan_checks(with_fields(plan, expected=plan.expected + term))
    assert (check.id, check.status) == (f"{plan.name}-match", "fail")


def test_reduction_9_at_1_second_component():
    plan = reduction_plans(9)[2]
    rep = apply_reduction(plan)
    Y, W = P("Y", "W")
    assert restrict_vars(rep.reduced, ("Y", "W")) == \
        3 * W ** 3 + 16 * Y ** 4 + 16 * Y
    assert rep.match == ("proportional", F(1))


def test_reduction_9_at_infinity():
    plan = reduction_plans(9)[3]
    rep = apply_reduction(plan)
    assert rep.match == ("proportional", F(1))


def test_c9_fiber_components_helper():
    a, b = c9_fiber_components_t1()
    assert a.match == ("display-gap", F(7), F(3))
    assert b.match == ("proportional", F(1))


# ----------------------------------------------------------------------
# engine honesty: corrupted plans must fail loudly


# (family n, plan index, exact power): one declared division per family
DIVISIONS = pytest.mark.parametrize(
    "n,index,power", [(9, 3, 21), (7, 0, 22)],
    ids=["plane-at-infinity", "hyperelliptic-at-0"])


def _with_division(n, index, power):
    good = reduction_plans(n)[index]
    return ReductionPlan(
        name=good.name, family=good.family, base_point=good.base_point,
        uniformizer=good.uniformizer,
        steps=(good.steps[0], DivideStep(good.uniformizer, power)),
        expected=good.expected, match_kind=good.match_kind)


@DIVISIONS
def test_engine_rejects_wrong_division(n, index, power):
    assert apply_reduction(_with_division(n, index, power)).match
    with pytest.raises(VerificationError, match="declared division"):
        apply_reduction(_with_division(n, index, power + 1))


@DIVISIONS
def test_engine_rejects_under_division(n, index, power):
    with pytest.raises(VerificationError, match="leftover"):
        apply_reduction(_with_division(n, index, power - 1))


def test_engine_rejects_wrong_expected():
    good = reduction_plans(7)[2]
    x, = P("x")
    bad = ReductionPlan(
        name=good.name, family=good.family, base_point=good.base_point,
        uniformizer=good.uniformizer, steps=good.steps,
        expected=x ** 10 - 83 * x ** 7 + 84 * x ** 4 - 28 * x,
        match_kind="twist")
    with pytest.raises(VerificationError):
        apply_reduction(bad)


# ----------------------------------------------------------------------
# local weights read off the plans, and the degree identity


@pytest.mark.parametrize("n,index,skip,orders,m", [
    (7, 0, 0, [-9, -7, -5, -3], 4),
    (7, 1, 0, [-5, -3, -1, 1], 7),
    (7, 2, 0, [7, 6, 5, 4], -3),
    (9, 0, 0, [-9, -7, -5, -3], 4),
    (9, 1, 0, [-2, -2, -2, -1], 3),
    (9, 2, 0, [-11, -8, -5, -4], 9),
    (9, 2, 2, [-5, -2, 1, -1], 9),
    (9, 3, 0, [9, 8, 7, 4], -3),
], ids=["hyperelliptic-at-0", "hyperelliptic-at-1", "hyperelliptic-at-infinity",
        "plane-at-0", "plane-at-1-first", "plane-at-1-second",
        "plane-at-1-second-after-first", "plane-at-infinity"])
def test_chart_orders(n, index, skip, orders, m):
    # per canonical form, its order in the last uniformizer; m is the order
    # of t - t0 there. At t = 1 the second plane component counts only the
    # steps after the two it shares with the first
    assert chart_orders(reduction_plans(n)[index], skip) == (orders, m)


def _mistyped_at_0(y_power=11, divide=22):
    x, y, u = P("x", "y", "u")
    return with_fields(reduction_plans(7)[0], steps=(
        SubstStep(assignments=(("x", u ** 2 * x, None),
                               ("y", u ** y_power * y, None),
                               ("t", u ** 4, None))),
        DivideStep("u", divide)))


@pytest.mark.parametrize("plan,weight", [
    (_mistyped_at_0(y_power=12), F(-5)),
    (_mistyped_at_0(divide=23), F(-7)),
], ids=["y-power-12", "divide-23"])
def test_mistyped_chart_fails_the_weight_check(monkeypatch, plan, weight):
    assert _mistyped_at_0() == reduction_plans(7)[0]
    rep = arakelov_with(monkeypatch, 7, plan)
    assert rep.contributions[0] == ("hyperelliptic-at-0", weight)
    assert not rep.equal


def test_omega_contributions_7():
    vals = [c for _, c in arakelov_check(7).contributions]
    assert vals == [F(-6), F(-9, 7), F(22, 3)]


def test_omega_contributions_9():
    vals = [c for _, c in arakelov_check(9).contributions]
    assert vals == [F(-6), F(-29, 9), F(28, 3)]


def test_second_component_must_continue_the_first(monkeypatch):
    second = reduction_plans(9)[2]
    moved = with_fields(second, steps=second.steps[2:])
    with pytest.raises(VerificationError, match="does not continue"):
        arakelov_with(monkeypatch, 9, moved)


def test_arakelov_identity_7():
    rep = arakelov_check(7)
    assert isinstance(rep, ArakelovReport)
    assert rep.lhs == F(1, 21)
    assert rep.degree == F(1, 42)
    assert rep.stack_degree == F(1, 84)
    assert rep.lhs == rep.rhs == F(1, 21)
    assert rep.equal


def test_arakelov_identity_9():
    rep = arakelov_check(9)
    assert rep.lhs == F(1, 9)
    assert rep.degree == F(1, 18)
    assert rep.stack_degree == F(1, 36)
    assert rep.equal


def test_arakelov_mutation_breaks_equality():
    # perturbing any single local weight must destroy the identity
    for n in (7, 9):
        base = arakelov_check(n)
        for idx in range(len(base.contributions)):
            total = sum((c for i, (_, c) in enumerate(base.contributions)
                         if i != idx), F(0))
            total += base.contributions[idx][1] + F(1, 5)
            assert 2 * (total / 2) != 4 * base.stack_degree


# ----------------------------------------------------------------------
# the t = 1 fiber of the hyperelliptic family


def test_t1_split_structure():
    split = t1_fiber_split_c7()
    mults = sorted(split.multiplicities)
    assert mults == [1, 7]
    x, = P("x")
    assert split.elliptic.quartic == (-F(11, 16) * x ** 4 - F(39, 64) * x ** 3
                                      + F(21, 16) * x ** 2 - F(7, 16) * x)


def test_t1_elliptic_invariants():
    e = t1_fiber_split_c7().elliptic
    assert e.cubic_p == F(-315, 1024)
    assert e.cubic_q == F(-1323, 16384)
    assert e.j == F(-3375)
    assert j_invariant_depressed(T1_TARGET_P, T1_TARGET_Q) == F(-3375)
    twist = quadratic_twist_factor(e.cubic_p, e.cubic_q, T1_TARGET_P, T1_TARGET_Q)
    assert twist == F(-7, 16)
    # twist really transports the target onto the piece
    assert e.cubic_p == twist ** 2 * T1_TARGET_P
    assert e.cubic_q == twist ** 3 * T1_TARGET_Q


def test_j_invariant_formula():
    assert j_invariant_depressed(F(0), F(1)) == 0
    assert j_invariant_depressed(F(1), F(0)) == 1728
    with pytest.raises(VerificationError):
        j_invariant_depressed(F(-3), F(2))  # 4p^3 + 27q^2 = 0


def test_quadratic_twist_factor():
    assert quadratic_twist_factor(F(-315, 1024), F(-1323, 16384),
                                  F(-45, 28), F(27, 28)) == F(-7, 16)
    assert quadratic_twist_factor(F(1), F(1), F(1), F(2)) is None


def test_fraction_nth_root():
    from shimura4.reductions import _fraction_nth_root
    assert _fraction_nth_root(F(27, 8), 3) == F(3, 2)
    assert _fraction_nth_root(F(16, 81), 4) == F(2, 3)
    assert _fraction_nth_root(F(5, 4), 2) is None  # numerator not a square
    assert _fraction_nth_root(F(4, 5), 2) is None  # denominator not a square
    assert _fraction_nth_root(F(2 ** 90 + 1), 3) is None
    assert _fraction_nth_root(F(-32, 243), 5) == F(-2, 3)
    assert _fraction_nth_root(F(-4), 2) is None
    assert _fraction_nth_root(F(0), 7) == 0
    assert _fraction_nth_root(F(1), 1) == 1
    with pytest.raises(ValueError):
        _fraction_nth_root(F(1), 0)

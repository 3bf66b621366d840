"""Two one-parameter families of genus-4 curves and their degenerations.

The first family is hyperelliptic, y^2 = f(x, t); the second is cut out by a
conic and a cubic in P^3 and is handled through its affine plane model
F(Y, W, t) = 0 (conic parametrized by Y, so X = Y^2, Z = 1).

This module recomputes, from scratch and exactly:

- the t-discriminant of the hyperelliptic family, with its full integer
  factorization and the valuations at t = 0 and t = 1;
- the semistable-reduction charts at t = 0, 1, infinity for both families.
  Each family is one equation, y^2 - f(x, t) = 0 or F(Y, W, t) = 0, and
  each chart is an explicit plan of substitutions and declared exact
  divisions. Every denominator in a plan is a monomial: a chart at infinity
  inverts t, and the hyperelliptic chart at 1 inverts x (x -> 2/x) before it
  translates (x -> s^2 x - 1). One small engine runs every plan: it verifies
  each declared division and the final valuation, then matches the reduced
  equation against the expected curve by the plan's match kind:
  - "twist": the equation is solved for y^2 = g(x) and g = c * target(lambda
    x) is solved on the dense coefficient lists: two nonzero coefficients
    fix lambda up to sign by an exact rational root, then c, and every
    other coefficient is compared;
  - "proportional": lhs = r * target, where the contents fix |r|, so only
    r and -r are tried;
  - "display-gap": both equations must have the shape f(Y) + c*W^3; the
    W-free parts must be proportional, and the W^3 coefficients may differ
    from that ratio (reported as a flag);
- the splitting of the t = 1 hyperelliptic fiber into an elliptic piece
  (j-invariant and the exact quadratic twist constant) and a genus-3 piece;
- the local weights of the canonical section of the Hodge bundle, read off
  the same reduction plans without running them, and the resulting degree
  identity against the triangle-stack degree.

Plans carry expected values that were derived independently and frozen; the
engine never invents an expected value at run time.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod

from .multipoly import (
    MultiPoly,
    MultiPolyError,
    discriminant,
    poly_to_dense,
    restrict_vars,
    squarefree_decomposition,
)
from .record import Record

F = Fraction


class VerificationError(ValueError):
    """A declared reduction/matching step failed to verify."""


# ----------------------------------------------------------------------
# the two families


@lru_cache(maxsize=None)
def c7_family() -> MultiPoly:
    """y^2 = c7_family(x, t): the hyperelliptic family on variables (x, t).

    The right-hand side includes the outer factor t, so the x^10 coefficient
    is t^2 - (27/16) t.
    """
    x, t = MultiPoly.generators("x", "t")
    inner = ((t - F(27, 16)) * x ** 10
             - F(567, 64) * x ** 9
             - F(189, 4) * t * x ** 8
             + (-84 * t ** 2 - F(189, 4) * t) * x ** 7
             - 189 * t ** 2 * x ** 6
             - F(189, 2) * t ** 2 * x ** 5
             + 84 * t ** 3 * x ** 4
             + 108 * t ** 3 * x ** 3
             - 28 * t ** 4 * x)
    return t * inner


@lru_cache(maxsize=None)
def c7_equation() -> MultiPoly:
    """E(x, y, t) = y^2 - c7_family(x, t): the hyperelliptic family as the one
    equation its reduction plans transform."""
    x, y, t = MultiPoly.generators("x", "y", "t")
    return y ** 2 - c7_family().substitute({"x": x, "t": t})[0]


@lru_cache(maxsize=None)
def c9_family() -> MultiPoly:
    """F(Y, W, t) = 0: affine plane model of the second family.

    Expansion of the projective pair {XZ = Y^2, cubic} on the affine chart
    Z = 1 with the conic parametrized by X = Y^2.
    """
    Y, W, t = MultiPoly.generators("Y", "W", "t")
    X = Y ** 2
    cubic_w = (5 * X ** 2 + 6 * X * Y + 2 * t * Y + 3 * t) * (3 * W)
    cubic_rest = ((-2 * t + 9) * X ** 3 + 22 * t * X ** 2 * Y + 21 * t * X ** 2
                  + (-14 * t ** 2 + 18 * t) * X * Y + t ** 2 * X
                  + 6 * t ** 2 * Y + (-3 * t ** 3 + 6 * t ** 2))
    return 3 * W ** 3 + t * (t - 1) * (cubic_w + cubic_rest)


def c9_family_flat_form() -> MultiPoly:
    """The same plane model written out monomial by monomial.

    Kept as an independent transcription; a test asserts it equals
    c9_family() so a typo in either form cannot survive.
    """
    Y, W, t = MultiPoly.generators("Y", "W", "t")
    return (-3 * t ** 5 - 14 * t ** 4 * Y ** 3 + t ** 4 * Y ** 2
            + 6 * t ** 4 * Y + 9 * t ** 4 - 2 * t ** 3 * Y ** 6
            + 22 * t ** 3 * Y ** 5 + 21 * t ** 3 * Y ** 4
            + 32 * t ** 3 * Y ** 3 - t ** 3 * Y ** 2
            + 6 * t ** 3 * Y * W - 6 * t ** 3 * Y + 9 * t ** 3 * W
            - 6 * t ** 3 + 11 * t ** 2 * Y ** 6 - 22 * t ** 2 * Y ** 5
            + 15 * t ** 2 * Y ** 4 * W - 21 * t ** 2 * Y ** 4
            + 18 * t ** 2 * Y ** 3 * W - 18 * t ** 2 * Y ** 3
            - 6 * t ** 2 * Y * W - 9 * t ** 2 * W - 9 * t * Y ** 6
            - 15 * t * Y ** 4 * W - 18 * t * Y ** 3 * W + 3 * W ** 3)


# ----------------------------------------------------------------------
# discriminant of the hyperelliptic family


class DiscriminantReport(Record):
    t_valuation: int
    t1_valuation: int
    constant: Fraction              # polynomial-level constant
    constant_factors: dict          # prime -> exponent
    curve_constant: Fraction        # constant * 2^(4g), g = 4
    curve_constant_factors: dict


@lru_cache(maxsize=None)
def c7_discriminant() -> DiscriminantReport:
    """disc_x of the family polynomial, peeled as c * t^a * (t-1)^b.

    The degree-16 power of 2 separating `constant` from `curve_constant` is
    the usual normalization between the discriminant of the right-hand side
    and the discriminant of the hyperelliptic model (2^(4g) with g = 4).
    """
    from .intfactor import factor_integer
    dt = restrict_vars(discriminant(c7_family(), "x"), ("t",))
    a = dt.valuation("t")
    # translated by t -> t + 1, the cofactor of t^a is c * t^b
    shifted, _ = dt.shift_down("t", a).substitute({"t": MultiPoly.variable("t", ("t",)) + 1})
    b = shifted.valuation("t")
    rest = shifted.shift_down("t", b)
    if not rest.is_constant():
        raise VerificationError("discriminant does not factor as c*t^a*(t-1)^b")
    c = rest.constant_value()
    if c.denominator != 1:
        raise VerificationError("discriminant constant is not an integer")
    fac, certified = factor_integer(abs(c.numerator))
    if not certified:
        raise VerificationError("discriminant constant factorization uncertified")
    curve_c = c * 2 ** 16
    fac_curve = dict(fac)
    fac_curve[2] = fac_curve.get(2, 0) + 16
    return DiscriminantReport(a, b, c, fac, curve_c, dict(sorted(fac_curve.items())))


def specialize_c7(t0) -> MultiPoly:
    """The fiber polynomial f(x, t0) as a univariate polynomial in x."""
    f = c7_family().evaluate({"t": F(t0)})
    if isinstance(f, F):
        raise VerificationError(f"fiber at t = {t0} degenerates to a constant")
    return restrict_vars(f, ("x",))


def is_smooth_fiber_c7(t0) -> bool:
    """Whether the fiber at t0 is smooth: nonvanishing family discriminant."""
    rep = c7_discriminant()
    t0 = F(t0)
    return rep.constant * t0 ** rep.t_valuation * (t0 - 1) ** rep.t1_valuation != 0


# ----------------------------------------------------------------------
# reduction engine


class SubstStep(Record):
    """One change of variables of the family's equation.

    `assignments` maps variables to (numerator, denominator) polynomials on
    one new variable tuple (denominator None for a polynomial image); a
    variable left out maps to itself. The engine keeps the numerator of the
    substituted equation and drops the clearing factor, a product of the
    declared denominators: the equation is only defined up to it. The
    plans declare monomial denominators only, so the clearing factor is a
    monomial too, and a DivideStep takes out any power of it that the
    equation does not need.
    """
    assignments: tuple  # ((var, num, den|None), ...)


class DivideStep(Record):
    """Declared exact division of the equation by var**power."""
    var: str
    power: int


class SquareCheck(Record):
    """Assert the fiber at var = 0 is const * root**2; record const."""
    var: str
    root: MultiPoly


class ReductionPlan(Record):
    name: str
    family: str          # "hyperelliptic" | "plane"
    base_point: str      # "0" | "1" | "inf"
    uniformizer: str
    steps: tuple
    # expected reduced equation and how to compare against it:
    #   "twist":         the reduced equation is solved for y^2 = g(x), and g
    #                    is matched as g = c * target(lambda x)
    #   "proportional":  plane equation matched as lhs = r * target
    #   "display-gap":   both f(Y) + c*W^3, the f proportional, the c not;
    #                    known deviation, flagged
    expected: MultiPoly
    match_kind: str


class ReductionReport(Record):
    reduced: MultiPoly
    match: tuple    # ("twist", c, lam) | ("proportional", r) | ("display-gap", scale, w_ratio)
    square_scalar: Fraction | None


def apply_reduction(plan: ReductionPlan) -> ReductionReport:
    """Execute a reduction plan and verify it against its expected data.

    Raises VerificationError when a step or the uniformizer lies off the
    ring of the equation it applies to, a declared division is not exact,
    the uniformizer does not fully cancel, or a non-flagged match fails.
    """
    if plan.family == "hyperelliptic":
        eq = c7_equation()
    elif plan.family == "plane":
        eq = c9_family()
    else:
        raise VerificationError(f"unknown family {plan.family!r}")
    u = plan.uniformizer
    square_scalar = None

    for step in plan.steps:
        _check_ring(plan, eq.variables, step)
        if isinstance(step, SubstStep):
            eq, _ = eq.substitute({v: (num, den) for v, num, den in step.assignments})
        elif isinstance(step, DivideStep):
            val = eq.valuation(step.var)
            if val < step.power:
                raise VerificationError(
                    f"{plan.name}: declared division by {step.var}^{step.power} "
                    f"but valuation is {val}")
            eq = eq.shift_down(step.var, step.power)
        elif isinstance(step, SquareCheck):
            fiber = eq.evaluate({step.var: F(0)})
            if isinstance(fiber, F):
                raise VerificationError(f"{plan.name}: fiber degenerated to a constant")
            sq = step.root * step.root
            ratio = fiber.exact_div(sq)
            if not ratio.is_constant():
                raise VerificationError(f"{plan.name}: fiber is not a scalar "
                                        f"multiple of the declared square")
            square_scalar = ratio.constant_value()
        else:
            raise VerificationError(f"unknown step {step!r}")

    if u not in eq.variables:
        raise VerificationError(f"{plan.name}: uniformizer {u!r} is not on {eq.variables}")
    val = eq.valuation(u)
    if val != 0:
        raise VerificationError(
            f"{plan.name}: plan does not reduce, leftover {u}^{val}")
    reduced = eq.evaluate({u: F(0)})
    if isinstance(reduced, F):
        raise VerificationError(f"{plan.name}: reduction degenerated to a constant")
    reduced = restrict_vars(reduced, tuple(v for v in reduced.variables if v != u))
    if plan.match_kind == "twist":
        reduced = _solve_for_square(reduced, "y")
    return ReductionReport(reduced, _match_reduced(plan, reduced), square_scalar)


def _check_ring(plan: ReductionPlan, ring: tuple, step) -> None:
    """Raise VerificationError naming the plan when step reads a variable
    or a polynomial off the ring it applies to, where MultiPoly would raise."""
    if isinstance(step, SubstStep):
        keys = {v for v, _, _ in step.assignments}
        images = {p.variables for _, num, den in step.assignments
                  for p in (num, den) if p is not None}
        ok = (len(images) == 1 and keys <= set(ring)
              and set(ring) - keys <= set(*images))
    elif isinstance(step, SquareCheck):
        ok = step.var in ring and step.root.variables == ring
    else:
        ok = not isinstance(step, DivideStep) or step.var in ring
    if not ok:
        raise VerificationError(f"{plan.name}: step {type(step).__name__} is not on {ring}")


def _solve_for_square(p: MultiPoly, yvar: str) -> MultiPoly:
    """From A*y^2 + B(rest) = 0 (A constant) to g = -B/A with y^2 = g."""
    if p.degree(yvar) != 2:
        raise VerificationError(f"expected degree 2 in {yvar}")
    A = p.coefficient(yvar, 2)
    if not A.is_constant():
        raise VerificationError(f"{yvar}^2 coefficient is not constant")
    if not p.coefficient(yvar, 1).is_zero():
        raise VerificationError(f"unexpected linear {yvar} term")
    B = p.coefficient(yvar, 0)
    g = B / (-A.constant_value())
    return restrict_vars(g, tuple(v for v in g.variables if v != yvar))


def _match_reduced(plan: ReductionPlan, reduced: MultiPoly):
    if reduced.variables != plan.expected.variables:
        raise VerificationError(f"{plan.name}: reduced equation is on {reduced.variables}, "
                                f"the target on {plan.expected.variables}")
    if plan.match_kind == "twist":
        var = plan.expected.variables_used()[0]
        m = match_hyperelliptic_up_to_twist(reduced, plan.expected, var)
        if m is None:
            raise VerificationError(f"{plan.name}: reduced equation does not "
                                    f"match the expected curve up to twist")
        return ("twist",) + m
    if plan.match_kind == "proportional":
        r = match_proportional(reduced, plan.expected)
        if r is None:
            raise VerificationError(f"{plan.name}: reduced equation is not "
                                    f"proportional to the expected one")
        return ("proportional", r)
    if plan.match_kind == "display-gap":
        return _match_display_gap(plan, reduced)
    raise VerificationError(f"unknown match kind {plan.match_kind!r}")


def _split_cube(name: str, p: MultiPoly) -> tuple:
    """(f, c) with p = f(Y) + c*W^3 and c a nonzero constant, or raise."""
    free, cube = p.coefficient("W", 0), p.coefficient("W", 3)
    W = MultiPoly.variable("W", p.variables)
    if cube.is_zero() or not cube.is_constant() or p != free + cube * W ** 3:
        raise VerificationError(f"{name}: {p} is not f(Y) + c*W^3")
    return free, cube.constant_value()


def _match_display_gap(plan: ReductionPlan, reduced: MultiPoly):
    """Structured comparison for the one chart whose published display does
    not equal the computed equation under any rational rescaling.

    Both equations must have the shape f(Y) + c*W^3. The W-free parts match
    exactly after a forced normalization; the W^3 coefficients then disagree
    by a factor whose cube root is irrational, which is reported as a flag
    rather than a failure (the underlying curve is the same over the
    algebraic closure).
    """
    lw, l3 = _split_cube(plan.name, reduced)
    tw, t3 = _split_cube(plan.name, plan.expected)
    scale = match_proportional(lw, tw)
    if scale is None:
        raise VerificationError(f"{plan.name}: W-free parts not proportional")
    w_ratio = l3 / t3
    if w_ratio == scale:
        # would be a clean proportional match after all
        return ("proportional", scale)
    return ("display-gap", scale, w_ratio)


# ----------------------------------------------------------------------
# matching helpers


def _fraction_nth_root(x: Fraction, n: int) -> Fraction | None:
    """Exact rational n-th root, or None. For even n the positive root."""
    if n <= 0:
        raise ValueError("n must be positive")
    if x < 0 and n % 2 == 0:
        return None
    from .intfactor import _int_nth_root
    ax = abs(x)
    r = F(_int_nth_root(ax.numerator, n), _int_nth_root(ax.denominator, n))
    if r ** n != ax:
        return None
    return r if x >= 0 else -r


def match_hyperelliptic_up_to_twist(lhs: MultiPoly, target: MultiPoly,
                                    var: str) -> tuple | None:
    """Solve lhs(x) = c * target(lambda x) for rational c, lambda.

    Returns (c, lambda) or None; None also when an operand involves a
    variable other than var. When both (c, lambda) and the mirrored
    solution fit, the one with lambda > 0 is returned.
    """
    if lhs.variables != target.variables:
        raise MultiPolyError("matcher operands must share a variable tuple")
    try:
        lc, tc = poly_to_dense(lhs, var), poly_to_dense(target, var)
    except MultiPolyError:
        if var not in lhs.variables:
            raise
        return None
    # equal supports give equal degrees, as dense rows have no trailing zeros
    support = [k for k, c in enumerate(lc) if c]
    if len(lc) < 2 or support != [k for k, c in enumerate(tc) if c]:
        return None
    k0 = support[0]

    def check(lam: Fraction) -> tuple | None:
        c = lc[k0] / (tc[k0] * lam ** k0)
        if all(lc[k] == c * tc[k] * lam ** k for k in support):
            return (c, lam)
        return None

    if len(support) == 1:
        return check(F(1))
    k1 = support[1]
    root = _fraction_nth_root(lc[k1] * tc[k0] / (tc[k1] * lc[k0]), k1 - k0)
    if root is None:
        return None
    # for an even k1 - k0 the root is positive, so it is tried first
    candidates = [root, -root] if (k1 - k0) % 2 == 0 else [root]
    return next(filter(None, map(check, candidates)), None)


def match_proportional(lhs: MultiPoly, target: MultiPoly) -> Fraction | None:
    """The rational r with lhs = r * target, or None.

    The contents fix |r|, so only r and -r are tried.
    """
    if lhs.variables != target.variables:
        raise MultiPolyError("matcher operands must share a variable tuple")
    if lhs.is_zero() or target.is_zero():
        return None
    r = lhs.content() / target.content()
    return next((s for s in (r, -r) if lhs == s * target), None)


# ----------------------------------------------------------------------
# the six reduction plans


@lru_cache(maxsize=None)
def reduction_plans(n: int) -> tuple:
    """The three frozen reduction plans for the family labeled by n (7 or 9)."""
    if n == 7:
        xyu = ("x", "y", "u")
        x, y, u = MultiPoly.generators(*xyu)
        xyt2 = ("x", "y", "t2")
        x2, y2, t2 = MultiPoly.generators(*xyt2)
        xys = ("x", "y", "s")
        xs_x, xs_y, s = MultiPoly.generators(*xys)
        tx, = MultiPoly.generators("x")

        plan0 = ReductionPlan(
            name="hyperelliptic-at-0",
            family="hyperelliptic", base_point="0", uniformizer="u",
            steps=(
                SubstStep(assignments=(("x", u ** 2 * x, None),
                                       ("y", u ** 11 * y, None),
                                       ("t", u ** 4, None))),
                DivideStep("u", 22),
            ),
            expected=(tx ** 9 + F(16, 3) * tx ** 7 + F(32, 3) * tx ** 5
                      - F(256, 21) * tx ** 3 + F(256, 81) * tx),
            match_kind="twist",
        )
        plan1 = ReductionPlan(
            name="hyperelliptic-at-1",
            family="hyperelliptic", base_point="1", uniformizer="s",
            steps=(
                SubstStep(assignments=(("x", MultiPoly.constant(2, xyt2), x2),
                                       ("y", y2, x2 ** 5),
                                       ("t", t2 + 1, None))),
                DivideStep("x", 10),
                SubstStep(assignments=(("x", s ** 2 * xs_x - 1, None),
                                       ("y", s ** 7 * xs_y, None),
                                       ("t2", s ** 7, None))),
                DivideStep("s", 14),
            ),
            expected=tx ** 7 - 3,
            match_kind="twist",
        )
        plan_inf = ReductionPlan(
            name="hyperelliptic-at-infinity",
            family="hyperelliptic", base_point="inf", uniformizer="u",
            steps=(
                SubstStep(assignments=(("x", x, u),
                                       ("y", y, u ** 8),
                                       ("t", MultiPoly.constant(1, xyu), u ** 3))),
                DivideStep("u", 25),
            ),
            expected=tx ** 10 - 84 * tx ** 7 + 84 * tx ** 4 - 28 * tx,
            match_kind="twist",
        )
        return plan0, plan1, plan_inf

    if n == 9:
        yws = ("Y", "W", "s")
        Y1, W1, s1 = MultiPoly.generators(*yws)
        yyv = ("Y", "y", "v")
        Y2, y2, v2 = MultiPoly.generators(*yyv)
        ywv = ("Y", "W", "v")
        Y3, W3, v3 = MultiPoly.generators(*ywv)
        ywu = ("Y", "W", "u")
        Y4, W4, u4 = MultiPoly.generators(*ywu)
        tY, = MultiPoly.generators("Y")
        dY, dW = MultiPoly.generators("Y", "W")

        plan0 = ReductionPlan(
            name="plane-at-0",
            family="plane", base_point="0", uniformizer="v",
            steps=(
                SubstStep(assignments=(("t", s1 ** 2, None),
                                       ("Y", s1 * Y1, None),
                                       ("W", s1 ** 3 * (-W1 - Y1 / 3) - s1 ** 2, None))),
                DivideStep("s", 8),
                SquareCheck(var="s", root=Y1 ** 3 - W1),
                SubstStep(assignments=(("s", v2 ** 2, None),
                                       ("Y", Y2, None),
                                       ("W", Y2 ** 3 - v2 * y2, None))),
                DivideStep("v", 2),
            ),
            expected=(tY ** 9 - 4 * tY ** 7 + 6 * tY ** 5
                      - F(44, 27) * tY ** 3 + tY),
            match_kind="twist",
        )
        plan1a = ReductionPlan(
            name="plane-at-1-first-component",
            family="plane", base_point="1", uniformizer="s",
            steps=(
                SubstStep(assignments=(("t", s1 ** 3 + 1, None),
                                       ("Y", Y1 - 1, None),
                                       ("W", s1 * W1, None))),
                DivideStep("s", 3),
            ),
            expected=(dY ** 6 - F(20, 7) * dY ** 5 + F(16, 7) * dY ** 4
                      + dW ** 3),
            match_kind="display-gap",
        )
        plan1b = ReductionPlan(
            name="plane-at-1-second-component",
            family="plane", base_point="1", uniformizer="v",
            steps=(
                SubstStep(assignments=(("t", s1 ** 3 + 1, None),
                                       ("Y", Y1 - 1, None),
                                       ("W", s1 * W1, None))),
                DivideStep("s", 3),
                SubstStep(assignments=(("s", v3 ** 3, None),
                                       ("Y", v3 ** 3 * Y3, None),
                                       ("W", v3 ** 4 * W3, None))),
                DivideStep("v", 12),
            ),
            expected=16 * dY ** 4 + 16 * dY + 3 * dW ** 3,
            match_kind="proportional",
        )
        plan_inf = ReductionPlan(
            name="plane-at-infinity",
            family="plane", base_point="inf", uniformizer="u",
            steps=(
                SubstStep(assignments=(("t", MultiPoly.constant(1, ywu), u4 ** 3),
                                       ("Y", Y4, u4),
                                       ("W", W4, u4 ** 5))),
                DivideStep("u", 21),
            ),
            expected=(-2 * dY ** 6 + 15 * dY ** 4 * dW - 14 * dY ** 3
                      + 6 * dY * dW + 3 * dW ** 3 - 3),
            match_kind="proportional",
        )
        return plan0, plan1a, plan1b, plan_inf

    raise VerificationError("plans are defined for n = 7 and n = 9")


# ----------------------------------------------------------------------
# local weights of the canonical forms, read off the plans

# the canonical forms of each family, as exponents of its two coordinates:
# x^a dx/y for a < 4, and {1, Y, Y^2, W} dY/F_W
CANONICAL_BASIS = {"hyperelliptic": ((0, 0), (1, 0), (2, 0), (3, 0)),
                   "plane": ((0, 0), (1, 0), (2, 0), (0, 1))}


def _laurent_exponents(num: MultiPoly, den: MultiPoly) -> list:
    """The exponent tuples of num / den, for a monomial den."""
    (d,) = den.exponents()
    return [tuple(a - b for a, b in zip(e, d)) for e in num.exponents()]


def chart_orders(plan: ReductionPlan, skip: int = 0) -> tuple[list[int], int]:
    """The orders of the canonical forms in a plan's last uniformizer, and m,
    the order of t - t0 in it (negative at infinity), read off the steps.

    Each variable tuple lists two coordinates, then the parameter. A
    SubstStep into a parameter w rescales the orders by m_w, the w-order of
    the image of t - t0 (of the last parameter after the first step), and
    adds ord_w(b) + i + j + c to the form b dx/E_y or b dY/F_W: i and j are
    the w-orders of the derivatives of the coordinates' images by the new
    coordinates (the first image must not involve the second coordinate),
    c is the w-exponent of the cleared denominators, prod den_v ** deg_v of
    the family's equation (only a first step has w in a denominator), and
    ord_w(b) is the order of b's image at the first monomial that no earlier
    form's image led with. A DivideStep by w^k subtracts k. Steps before
    `skip` only set m.
    """
    eq = c7_equation() if plan.family == "hyperelliptic" else c9_family()
    basis = CANONICAL_BASIS[plan.family]
    old = eq.variables
    t0 = 1 if plan.base_point == "1" else 0
    orders, m, w = [0] * len(basis), 1, None
    for at, step in enumerate(plan.steps):
        if isinstance(step, DivideStep) and step.var == w and at >= skip:
            orders = [o - step.power for o in orders]
        if not isinstance(step, SubstStep):
            continue
        new = step.assignments[0][1].variables
        w = new[2]
        one = MultiPoly.constant(1, new)
        images = {v: (num, one if den is None else den) for v, num, den in step.assignments}
        images.update({v: (MultiPoly.variable(v, new), one) for v in old if v not in images})
        cleared = sum(eq.degree(v) * den.degree(w) for v, (_, den) in images.items()
                      if den.degree(w))
        num, den = images[old[2]]
        m_w = min(e[2] for e in _laurent_exponents(num - t0 * den, den))
        first, second = (_laurent_exponents(*images[v]) for v in old[:2])
        i = min(e[2] for e in first if e[0])
        j = min(e[2] for e in second if e[1])
        used, gains = set(), []
        for b in basis:
            factors = [images[v] for v, p in zip(old, b) for _ in range(p)]
            num = prod((n for n, _ in factors), start=one)
            den = prod((d for _, d in factors), start=one)
            order, lead = min((e[2], e[:2]) for e in _laurent_exponents(num, den)
                              if e[:2] not in used)
            used.add(lead)
            gains.append(order + i + j + cleared)
        if at >= skip:
            orders = [o * m_w + g for o, g in zip(orders, gains)]
        m *= m_w
        old, t0 = new, 0
    return orders, m


class ArakelovReport(Record):
    n: int
    contributions: tuple        # ((name, Fraction), ...)
    degree: Fraction            # lhs / 2
    stack_degree: Fraction      # canonical degree of the (2,3,n) stack
    lhs: Fraction               # sum of the contributions, 2 * degree
    rhs: Fraction               # 4 * stack_degree
    equal: bool


def arakelov_check(n: int) -> ArakelovReport:
    """Compare twice the computed Hodge-bundle degree with four times the
    triangle-stack canonical degree; equality is the expected identity.

    A degenerate fiber's weight is that of its first plan's chart plus, for
    each further component, that of the steps its plan runs after the first
    plan's, which it must start with.
    """
    from .trianglestacks import canonical_degree
    weights, firsts = {}, {}
    for plan in reduction_plans(n):
        first = firsts.setdefault(plan.base_point, plan)
        shared = 0 if first is plan else len(first.steps)
        if plan.steps[:shared] != first.steps[:shared]:
            raise VerificationError(f"{plan.name} does not continue {first.name}")
        point = "infinity" if plan.base_point == "inf" else plan.base_point
        name = f"{plan.family}-at-{point}"
        orders, m = chart_orders(plan, shared)
        # min(0, .) over the forms at a finite point, max(0, .) at infinity
        weight = F(sum(min(0, o) if m > 0 else max(0, o) for o in orders), abs(m))
        weights[name] = weights.get(name, 0) + weight
    contribs = tuple(weights.items())
    lhs = sum((c for _, c in contribs), F(0))
    stack = canonical_degree(2, 3, n)
    rhs = 4 * stack
    return ArakelovReport(n, contribs, lhs / 2, stack, lhs, rhs, lhs == rhs)


# ----------------------------------------------------------------------
# the t = 1 fiber of the hyperelliptic family


class EllipticPiece(Record):
    quartic: MultiPoly          # y^2 = quartic(x), root at x = 0
    cubic_p: Fraction           # depressed cubic y^2 = x^3 + p x + q
    cubic_q: Fraction
    j: Fraction
    target_p: Fraction
    target_q: Fraction
    target_j: Fraction
    twist: Fraction             # d with p = d^2 target_p, q = d^3 target_q


class T1Split(Record):
    multiplicities: tuple       # ((factor-string, multiplicity), ...)
    elliptic: EllipticPiece


def j_invariant_depressed(p: Fraction, q: Fraction) -> Fraction:
    """j of y^2 = x^3 + p x + q (must be nonsingular)."""
    disc = 4 * p ** 3 + 27 * q ** 2
    if disc == 0:
        raise VerificationError("singular cubic has no j-invariant")
    return 6912 * p ** 3 / disc


def _cubic_to_depressed(a3: Fraction, a2: Fraction, a1: Fraction,
                        a0: Fraction) -> tuple:
    """y^2 = a3 x^3 + a2 x^2 + a1 x + a0 -> (p, q) of the depressed form."""
    if a3 == 0:
        raise VerificationError("not a cubic")
    b2, b1, b0 = a2, a1 * a3, a0 * a3 * a3
    p = b1 - b2 ** 2 / 3
    q = 2 * b2 ** 3 / 27 - b2 * b1 / 3 + b0
    return p, q


def quadratic_twist_factor(p: Fraction, q: Fraction, pt: Fraction,
                           qt: Fraction) -> Fraction | None:
    """d with (p, q) = (d^2 pt, d^3 qt), if a rational one exists."""
    if pt == 0 or qt == 0 or p == 0 or q == 0:
        # not needed for curves with extra automorphisms here
        return None
    d = (q * pt) / (qt * p)
    if p == d * d * pt and q == d ** 3 * qt:
        return d
    return None


T1_TARGET_P = F(-45, 28)
T1_TARGET_Q = F(27, 28)


def t1_fiber_split_c7() -> T1Split:
    """Split the t = 1 fiber into its square part and an elliptic quartic.

    The fiber polynomial factors with one multiplicity-7 linear factor; the
    odd-multiplicity kernel is a quartic with a root at x = 0, which after
    inverting x and depressing gives an elliptic curve. Its j-invariant and
    the exact quadratic-twist constant against y^2 = x^3 - (45/28) x + 27/28
    are verified here.
    """
    f1 = specialize_c7(1)
    dec = squarefree_decomposition(f1, "x")
    mults = tuple((str(pp), m) for pp, m in dec)
    # divide out the largest square: S = prod p^(m//2)
    S = MultiPoly.constant(1, f1.variables)
    for pp, m in dec:
        S = S * pp ** (m // 2)
    quartic = f1.exact_div(S * S)
    coeffs = poly_to_dense(quartic, "x")
    if len(coeffs) != 5:
        raise VerificationError("odd-multiplicity kernel is not a quartic")
    if coeffs[0]:
        raise VerificationError("quartic has no root at x = 0")
    # x -> 1/x turns y^2 = q4 x^4 + ... + q1 x into y^2 = q1 x^3 + ... + q4
    p, q = _cubic_to_depressed(*coeffs[1:])
    j = j_invariant_depressed(p, q)
    tj = j_invariant_depressed(T1_TARGET_P, T1_TARGET_Q)
    if j != tj:
        raise VerificationError(f"elliptic piece has j = {j}, expected {tj}")
    d = quadratic_twist_factor(p, q, T1_TARGET_P, T1_TARGET_Q)
    if d is None:
        raise VerificationError("no rational quadratic twist relates the "
                                "elliptic piece to its expected model")
    piece = EllipticPiece(quartic, p, q, j, T1_TARGET_P, T1_TARGET_Q, tj, d)
    return T1Split(mults, piece)

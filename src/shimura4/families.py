"""Two one-parameter families of genus-4 curves and their degenerations.

The first family is hyperelliptic, y^2 = f(x, t); the second is cut out by a
conic and a cubic in P^3 and is handled through its affine plane model
F(Y, W, t) = 0 (conic parametrized by Y, so X = Y^2, Z = 1).

This module holds the equations of both families and recomputes, from
scratch and exactly:

- the t-discriminant of the hyperelliptic family, its integer constant
  split over the primes of the family's coefficients, and the valuations
  at t = 0 and t = 1;
- the splitting of the t = 1 hyperelliptic fiber into an elliptic piece
  (j-invariant and the exact quadratic twist constant) and a genus-3 piece.

The semistable-reduction charts at t = 0, 1, infinity and the local weights
read off them live in `reductions`, which imports this module; a caller
that needs only the equations, such as an elimination, loads no reduction
engine.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .multipoly import (
    MultiPoly,
    discriminant,
    poly_to_dense,
    restrict_vars,
    squarefree_decomposition,
)
from .record import Record

F = Fraction


class VerificationError(ValueError):
    """A recomputed fact, or a declared reduction or matching step, failed
    to verify."""


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


# the primes of the hyperelliptic family's coefficients (16, 64, 567, 189,
# 84, 108, 28), over which the stated discriminant constant 2^20 3^36 7^10
# splits; anything else that divides the constant is kept whole
_FAMILY_PRIMES = (2, 3, 7)


def _split_constant(n: int) -> dict:
    """{p: e} for each family prime p dividing the positive integer n, with
    p^e the largest such power, and what is left of n, if not 1, as one more
    factor with exponent 1. Nothing is factored: a cofactor is kept whole."""
    factors = {}
    for p in _FAMILY_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n > 1:
        factors[n] = 1
    return factors


class DiscriminantReport(Record):
    t_valuation: int
    t1_valuation: int
    constant: Fraction              # polynomial-level constant
    constant_factors: tuple         # ((factor, exponent), ...), increasing
    curve_constant: Fraction        # constant * 2^(4g), g = 4
    curve_constant_factors: tuple


@lru_cache(maxsize=None)
def c7_discriminant() -> DiscriminantReport:
    """disc_x of the family polynomial, peeled as c * t^a * (t-1)^b.

    The degree-16 power of 2 separating `constant` from `curve_constant` is
    the usual normalization between the discriminant of the right-hand side
    and the discriminant of the hyperelliptic model (2^(4g) with g = 4).
    The constant is split over the primes of the family's coefficients, so
    a wrong constant shows its cofactor among `constant_factors`.
    """
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
    fac = _split_constant(abs(c.numerator))
    curve_c = c * 2 ** 16
    fac_curve = dict(fac)
    fac_curve[2] = fac_curve.get(2, 0) + 16
    return DiscriminantReport(a, b, c, tuple(sorted(fac.items())), curve_c,
                              tuple(sorted(fac_curve.items())))


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

"""Quaternion algebras over totally real fields, and their real splittings.

An algebra (a, b / K) has basis 1, i, j, k with i^2 = a, j^2 = b, ij = -ji
= k. Everything structural (products, norms, projective orders, which real
places split) is decided exactly through NumberField arithmetic; only the
2x2 matrix realization at a split place is numerical, via mpmath at a
requested working precision.

The `uniformizer_triple` constructor builds the (2, 3, n) triple used by the
verification suites: delta_p = i, delta_q = 1/2 + (v/2) i + (1/2) j over
K = Q(2 cos(2 pi / n)), delta_r = delta_p^-1 delta_q^-1, inside the algebra
(-1, v^2 - 3 / K).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import mpmath as mp

from .numberfield import NumberField, NumberFieldElem, field_2cos

Coord = Union[int, Fraction, NumberFieldElem]


class QuaternionError(ValueError):
    pass


@dataclass(frozen=True)
class QuaternionAlgebra:
    """(a, b / K): i^2 = a, j^2 = b, k = ij = -ji, k^2 = -a b."""
    field: NumberField
    a: NumberFieldElem
    b: NumberFieldElem

    def __post_init__(self):
        if self.a.is_zero() or self.b.is_zero():
            raise QuaternionError("a and b must be nonzero")

    def element(self, x0, x1=0, x2=0, x3=0) -> "Quaternion":
        co = tuple(self._coerce(c) for c in (x0, x1, x2, x3))
        return Quaternion(self, co)

    def _coerce(self, c) -> NumberFieldElem:
        if isinstance(c, NumberFieldElem):
            return c
        return self.field.element([Fraction(c)])

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def basis(self):
        one = self.field.one()
        z = self.field.zero()
        return (Quaternion(self, (one, z, z, z)),
                Quaternion(self, (z, one, z, z)),
                Quaternion(self, (z, z, one, z)),
                Quaternion(self, (z, z, z, one)))

    # ------------------------------------------------------------------
    # real places

    def split_real_places(self) -> list:
        """Indices of the real places of K where the algebra is M_2(R).

        (a, b / R) is split unless both a and b are negative there.
        """
        out = []
        for idx in range(self.field.degree):
            sa = self.a.sign_at_embedding(idx)
            sb = self.b.sign_at_embedding(idx)
            if sa == 0 or sb == 0:
                raise QuaternionError("a or b vanishes at a real place")
            if sa > 0 or sb > 0:
                out.append(idx)
        return out

    def __repr__(self):
        return f"QuaternionAlgebra(({self.a}, {self.b}) over {self.field.name})"


class Quaternion:
    """Element x0 + x1 i + x2 j + x3 k with NumberFieldElem coordinates."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: QuaternionAlgebra, coords: tuple):
        self.algebra = algebra
        self.coords = tuple(coords)
        if len(self.coords) != 4:
            raise QuaternionError("need exactly 4 coordinates")

    def _coerce(self, other):
        if isinstance(other, Quaternion):
            if other.algebra != self.algebra:
                raise QuaternionError("elements of different algebras")
            return other
        if isinstance(other, (int, Fraction, NumberFieldElem)):
            return self.algebra.element(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Quaternion(self.algebra,
                          tuple(p + q for p, q in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return Quaternion(self.algebra, tuple(-p for p in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.algebra.a, self.algebra.b
        x0, x1, x2, x3 = self.coords
        y0, y1, y2, y3 = o.coords
        ab = a * b
        z0 = x0 * y0 + a * x1 * y1 + b * x2 * y2 - ab * x3 * y3
        z1 = x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2
        z2 = x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1
        z3 = x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1
        return Quaternion(self.algebra, (z0, z1, z2, z3))

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def conjugate(self) -> "Quaternion":
        x0, x1, x2, x3 = self.coords
        return Quaternion(self.algebra, (x0, -x1, -x2, -x3))

    def reduced_trace(self) -> NumberFieldElem:
        return self.coords[0] + self.coords[0]

    def reduced_norm(self) -> NumberFieldElem:
        a, b = self.algebra.a, self.algebra.b
        x0, x1, x2, x3 = self.coords
        return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3

    def inverse(self) -> "Quaternion":
        n = self.reduced_norm()
        if n.is_zero():
            raise QuaternionError("element has reduced norm 0")
        ni = n.inverse()
        c = self.conjugate()
        return Quaternion(self.algebra, tuple(p * ni for p in c.coords))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.algebra.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return all((p - q).is_zero() for p, q in zip(self.coords, o.coords))

    def __hash__(self):
        # a scalar equals its coordinate, so it hashes like it
        if self.is_scalar():
            return hash(self.coords[0])
        return hash(self.coords)

    def is_scalar(self) -> bool:
        return all(c.is_zero() for c in self.coords[1:])

    def projective_order(self, cap: int = 200) -> int:
        """Smallest n >= 1 with self^n scalar; raises past the cap.

        Orders here are small by construction; the cap guards against a
        non-torsion element looping forever.
        """
        p = self
        for n in range(1, cap + 1):
            if p.is_scalar():
                return n
            p = p * self
        raise QuaternionError(f"no projective order found up to {cap}")

    def __repr__(self):
        names = ("", "i", "j", "k")
        parts = []
        for c, n in zip(self.coords, names):
            if c.is_zero():
                continue
            cs = repr(c)
            if n and ("+" in cs or "-" in cs.strip("-")):
                cs = f"({cs})"
            parts.append(f"{cs}*{n}" if n else cs)
        return " + ".join(parts) if parts else "0"


# ----------------------------------------------------------------------
# the (2, 3, n) triples


@dataclass(frozen=True)
class UniformizerTriple:
    """delta_p, delta_q, delta_r of projective orders 2, 3, n with
    delta_r delta_q delta_p = 1, inside (-1, v^2-3 / Q(2 cos 2pi/n))."""
    n: int
    algebra: QuaternionAlgebra
    delta_p: Quaternion
    delta_q: Quaternion
    delta_r: Quaternion


def uniformizer_triple(n: int) -> UniformizerTriple:
    """Build the standard order-(2, 3, n) triple for odd n >= 7.

    delta_p = i, delta_q = 1/2 + (v/2) i + (1/2) j, and delta_r is forced by
    the relation delta_r delta_q delta_p = 1.
    """
    if n < 7 or n % 2 == 0:
        raise QuaternionError("triple is defined here for odd n >= 7")
    K = field_2cos(n)
    v = K.gen()
    alg = QuaternionAlgebra(K, K.element([-1]), v * v - 3)
    half = Fraction(1, 2)
    dp = alg.element(0, 1, 0, 0)
    dq = Quaternion(alg, (K.element([half]), v * K.element([half]),
                          K.element([half]), K.zero()))
    dr = dp.inverse() * dq.inverse()
    return UniformizerTriple(n, alg, dp, dq, dr)


# ----------------------------------------------------------------------
# 2x2 realization at a split real place


def matrix_embedding(x: Quaternion, place_index: int, precision: int = 30):
    """Numerical 2x2 real matrix image of x at a split real place.

    Requires a < 0 < b at that place (the pattern the standard triples
    produce); other sign patterns raise. With s = sqrt(b):

        1 -> I,   i -> [[0, 1], [a, 0]],   j -> [[s, 0], [0, -s]],
        k = ij -> [[0, -s], [a s, 0]]

    (each image M satisfies M^2 = a, b, -ab respectively and i j = -j i).
    Returns an mpmath matrix computed with `precision` decimal digits plus
    guard digits; coordinates of x are evaluated at the place by exact
    interval refinement before conversion, so the only error is the final
    rounding.
    """
    alg = x.algebra
    sa = alg.a.sign_at_embedding(place_index)
    sb = alg.b.sign_at_embedding(place_index)
    if not (sa < 0 < sb):
        raise QuaternionError("splitting pattern unsupported: need a < 0 < b")
    work = precision + 10
    width = Fraction(1, 10 ** (precision + 5))

    def val(e: NumberFieldElem):
        lo, hi = e.embedding_interval(place_index, width)
        return (lo + hi) / 2

    with mp.workdps(work):
        a = mp.mpf(val(alg.a).numerator) / mp.mpf(val(alg.a).denominator)
        bf = val(alg.b)
        s = mp.sqrt(mp.mpf(bf.numerator) / mp.mpf(bf.denominator))
        x0, x1, x2, x3 = (val(c) for c in x.coords)
        c0 = mp.mpf(x0.numerator) / mp.mpf(x0.denominator)
        c1 = mp.mpf(x1.numerator) / mp.mpf(x1.denominator)
        c2 = mp.mpf(x2.numerator) / mp.mpf(x2.denominator)
        c3 = mp.mpf(x3.numerator) / mp.mpf(x3.denominator)
        m = mp.matrix([[c0 + c2 * s, c1 - c3 * s],
                       [c1 * a + c3 * a * s, c0 - c2 * s]])
    return m


def embedding_tolerance(precision: int) -> float:
    """Comparison tolerance matched to matrix_embedding's precision."""
    return 10.0 ** (1 - precision)

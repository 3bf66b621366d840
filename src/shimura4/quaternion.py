"""Quaternion algebras over totally real fields, and their real splittings.

An algebra (a, b / K) has basis 1, i, j, k with i^2 = a, j^2 = b, ij = -ji
= k. Everything (products, norms, projective orders, which real places
split) is decided exactly through NumberField arithmetic; there is no float
in this module. A product runs over the integers: both factors are brought
to one common denominator, and each coordinate of the result is a sum of
integer convolutions folded once by the field's minimal polynomial, with a,
b and ab kept as integer rows on the algebra.

The `uniformizer_triple` constructor builds the (2, 3, n) triple used by the
verification suites: delta_p = i, delta_q = 1/2 + (v/2) i + (1/2) j over
K = Q(2 cos(2 pi / n)), delta_r = delta_p^-1 delta_q^-1, inside the algebra
(-1, v^2 - 3 / K).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .numberfield import NumberField, NumberFieldElem, _int_rows, _mul_fold, field_2cos
from .record import Record

Coord = int | Fraction | NumberFieldElem


class QuaternionError(ValueError):
    pass


class QuaternionAlgebra(Record):
    """(a, b / K): i^2 = a, j^2 = b, k = ij = -ji, k^2 = -a b."""
    field: NumberField
    a: NumberFieldElem
    b: NumberFieldElem

    def __post_init__(self):
        if self.a.is_zero() or self.b.is_zero():
            raise QuaternionError("a and b must be nonzero")
        # a, b and ab as integer rows over one denominator, for __mul__
        rows, den = _int_rows((self.a, self.b, self.a * self.b))
        object.__setattr__(self, "_const_rows", tuple(rows))
        object.__setattr__(self, "_const_den", den)

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
            if other.algebra is not self.algebra and other.algebra != self.algebra:
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
        alg = self.algebra
        field = alg.field
        xs, dx = _int_rows(self.coords)
        ys, dy = _int_rows(o.coords)
        x0, x1, x2, x3 = xs
        y0, y1, y2, y3 = ys
        # a y1, a y3, b y2, b y3 and ab y3 come out over scale * dy, with
        # scale = fold_den * const_den; the plain y rows are brought to it
        ra, rb, rab = alg._const_rows
        ay1, ay3, by2, by3, aby3 = (_mul_fold(field, ((r, y),)) for r, y in (
            (ra, y1), (ra, y3), (rb, y2), (rb, y3), (rab, y3)))
        scale = field._fold_den * alg._const_den
        if scale != 1:
            y0, y1, y2, y3 = ([scale * c for c in y] for y in (y0, y1, y2, y3))
        y1n, ay1n, by3n, aby3n = ([-c for c in y] for y in (y1, ay1, by3, aby3))
        zs = (_mul_fold(field, ((x0, y0), (x1, ay1), (x2, by2), (x3, aby3n))),
              _mul_fold(field, ((x0, y1), (x1, y0), (x3, by2), (x2, by3n))),
              _mul_fold(field, ((x0, y2), (x2, y0), (x1, ay3), (x3, ay1n))),
              _mul_fold(field, ((x0, y3), (x3, y0), (x1, y2), (x2, y1n))))
        den = scale * field._fold_den * dx * dy
        return Quaternion(alg, tuple(
            NumberFieldElem(field, tuple(Fraction(c, den) for c in z)) for z in zs))

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
        if (isinstance(other, Quaternion) and other.algebra is not self.algebra
                and other.algebra != self.algebra):
            # across algebras only equal scalars are equal, as they are to
            # their common scalar (arithmetic across algebras still raises)
            return (self.is_scalar() and other.is_scalar()
                    and self.coords[0] == other.coords[0])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coords == o.coords

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


class UniformizerTriple(Record):
    """delta_p, delta_q, delta_r of projective orders 2, 3, n with
    delta_r delta_q delta_p = 1, inside (-1, v^2-3 / Q(2 cos 2pi/n))."""
    n: int
    algebra: QuaternionAlgebra
    delta_p: Quaternion
    delta_q: Quaternion
    delta_r: Quaternion


@lru_cache(maxsize=None)
def uniformizer_triple(n: int) -> UniformizerTriple:
    """Build the standard order-(2, 3, n) triple for odd n >= 7.

    delta_p = i, delta_q = 1/2 + (v/2) i + (1/2) j, and delta_r is forced by
    the relation delta_r delta_q delta_p = 1. Cached: the quaternion and
    triangle suites share one triple, and so one field, per n.
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

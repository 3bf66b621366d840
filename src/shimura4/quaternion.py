"""Quaternion algebras over totally real fields, and their real splittings.

An algebra (a, b / K) has basis 1, i, j, k with i^2 = a, j^2 = b, ij = -ji
= k. Everything (products, norms, projective orders, which real places
split) is decided exactly through NumberField arithmetic; there is no float
in this module. Products run over the integers, read off the structure
constants e_s e_t = c e_u (c = +-1, +-a, +-b, +-ab, kept as integer rows
on the algebra): each coordinate of a product is a sum of integer
convolutions folded once by the field's minimal polynomial, and
`_left_matrix` gives the integer matrix of left multiplication.

The `uniformizer_triple` constructor builds the (2, 3, n) triple used by the
verification suites: delta_p = i, delta_q = 1/2 + (v/2) i + (1/2) j over
K = Q(2 cos(2 pi / n)), delta_r = delta_p^-1 delta_q^-1, inside the algebra
(-1, v^2 - 3 / K).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .dense import _power
from .numberfield import (NumberField, NumberFieldElem, _elem, _int_rows, _mul_fold,
                          _mul_matrix, field_2cos)
from .record import Record


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
        # 1, a, b, ab (the table's constants) as integer rows over one den
        rows, den = _int_rows((self.field.one(), self.a, self.b, self.a * self.b))
        object.__setattr__(self, "_consts", tuple(rows))
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


# e_s e_t = sign * c * e_u in the basis e = 1, i, j, k, with c = 1, a, b, ab
# for its index 0..3 in QuaternionAlgebra._consts: _STRUCTURE[s][t] = (u, sign, c)
_STRUCTURE = (((0, 1, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)),
              ((1, 1, 0), (0, 1, 1), (3, 1, 0), (2, 1, 1)),
              ((2, 1, 0), (3, -1, 0), (0, 1, 2), (1, -1, 2)),
              ((3, 1, 0), (2, -1, 1), (1, 1, 2), (0, -1, 3)))


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
        # z_u sums sign * x_s * (c y_t) over e_s e_t = sign * c * e_u; each
        # row c y_t is made once, over scale = fold_den * const_den
        scale = field._fold_den * alg._const_den
        cy, pairs = {}, ([], [], [], [])
        for x, structure in zip(xs, _STRUCTURE):
            for t, (u, sign, c) in enumerate(structure):
                if (c, t) not in cy:
                    cy[c, t] = (_mul_fold(field, ((alg._consts[c], ys[t]),)) if c
                                else [scale * a for a in ys[t]])
                pairs[u].append((x if sign > 0 else [-a for a in x], cy[c, t]))
        den = scale * field._fold_den * dx * dy
        return Quaternion(alg, tuple(_elem(field, _mul_fold(field, p), den) for p in pairs))

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
        return _power(self.inverse() if n < 0 else self, abs(n), self.algebra.one())

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


def _left_matrix(g: Quaternion) -> tuple:
    """(rows, den): the matrix of x -> g x over Q in the basis v^k e_t (v
    the field generator, index t*d + k) as integer rows over den. Since
    g e_t sums g_s c_st e_u over e_s e_t = c_st e_u, block (u, t) is the
    multiplication matrix of g_s c_st: its column k is g_s c_st v^k."""
    alg, field, d = g.algebra, g.algebra.field, g.algebra.field.degree
    xs, dx = _int_rows(g.coords)
    rows = [[0] * (4 * d) for _ in range(4 * d)]
    for x, structure in zip(xs, _STRUCTURE):
        if not any(x):
            continue
        for t, (u, sign, c) in enumerate(structure):
            y = _mul_fold(field, ((alg._consts[c], x),))
            for k, col in enumerate(_mul_matrix(field, y)):
                for i, z in enumerate(col):
                    rows[u * d + i][t * d + k] = sign * z
    return rows, dx * alg._const_den * field._fold_den ** 2


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

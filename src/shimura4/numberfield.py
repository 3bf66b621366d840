"""Totally real number fields with exact real-embedding arithmetic.

A field is Q[x]/(m) for a monic irreducible m with all roots real. Real
embeddings are identified with the real roots of m, ordered increasingly and
represented by exact isolating intervals from a Sturm chain. Element signs
under an embedding are decided exactly by interval refinement -- no floating
point is involved anywhere in a sign decision.

Dense univariate polynomials are plain Fraction lists [c0, c1, ...], in the
format of multipoly's dense section: Sturm chains and inverses divide with
its `_uni_divmod`, and `poly_to_dense` / `dense_to_poly` are re-exported
from there. The public surface speaks MultiPoly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import lcm
from typing import Sequence

from .intfactor import factor_integer
from .multipoly import (
    MultiPoly,
    _deriv,
    _trim,
    _uni_divmod,
    _uni_gcd,
    dense_to_poly,
    poly_to_dense,
    squarefree_part,
)
from .record import Record


class NumberFieldError(ValueError):
    pass


# ----------------------------------------------------------------------
# dense univariate helpers (coefficients ascending)


def _eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


# ----------------------------------------------------------------------
# Sturm chains


def sturm_chain(p: Sequence[Fraction]) -> list:
    """Sturm sequence p, p', -rem(...), ... for a squarefree p."""
    chain = [_trim(list(p)), _deriv(list(p))]
    while chain[-1]:
        r = _uni_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def _sign_variations(chain, x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _eval(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p: Sequence[Fraction], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of squarefree p in (lo, hi]."""
    chain = sturm_chain(p)
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def cauchy_bound(p: Sequence[Fraction]) -> Fraction:
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p) / lead


def isolate_real_roots(p: Sequence[Fraction]) -> list:
    """Disjoint exact isolating intervals for the real roots of squarefree p.

    Returns a list of (lo, hi) Fractions, sorted increasingly, one interval
    per real root with lo < root <= hi; a root found exactly is returned as
    the degenerate interval (r, r).
    """
    p = _trim(list(p))
    if len(p) <= 1:
        raise NumberFieldError("cannot isolate roots of a constant")
    chain = sturm_chain(p)
    bound = cauchy_bound(p)

    def var(x):
        return _sign_variations(chain, x)

    out = []

    def split(lo, hi, vlo, vhi):
        n = vlo - vhi
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if _eval(p, mid) == 0:
            # exact root at the split point: shrink a symmetric gap around it
            # until it contains no other root and has nonroot endpoints
            eps = (hi - lo) / 4
            while (_eval(p, mid + eps) == 0 or _eval(p, mid - eps) == 0
                   or count_real_roots(p, mid - eps, mid + eps) != 1):
                eps /= 2
            out.append((mid, mid))
            vl = var(mid - eps)
            vr = var(mid + eps)
            split(lo, mid - eps, vlo, vl)
            split(mid + eps, hi, vr, vhi)
            return
        vm = var(mid)
        split(lo, mid, vlo, vm)
        split(mid, hi, vm, vhi)

    split(-bound, bound, var(-bound), var(bound))
    out.sort(key=lambda iv: iv[0])
    return out


def refine_interval(p: Sequence[Fraction], lo: Fraction, hi: Fraction,
                    width: Fraction) -> tuple:
    """Bisect an isolating interval of squarefree p down to the given width."""
    if lo == hi:
        return lo, hi
    slo = _eval(p, lo)
    if slo == 0:
        return lo, lo
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = _eval(p, mid)
        if v == 0:
            return mid, mid
        if (v > 0) == (slo > 0):
            lo = mid
        else:
            hi = mid
    return lo, hi


# ----------------------------------------------------------------------
# fields and elements


class NumberField(Record):
    """Q[x]/(m) for m monic irreducible, all roots real.

    `min_poly` is the monic minimal polynomial as a univariate MultiPoly;
    `name` is a display name for the generator. Real embeddings are indexed
    0, 1, ... by increasing root.
    """
    min_poly: MultiPoly
    name: str = "a"

    def __post_init__(self):
        var = self.min_poly.variables_used()
        if len(var) != 1:
            raise NumberFieldError("minimal polynomial must be univariate")
        dense = poly_to_dense(self.min_poly, var[0])
        if dense[-1] != 1:
            raise NumberFieldError("minimal polynomial must be monic")
        if len(dense) < 2:
            raise NumberFieldError("minimal polynomial must be non-constant")
        object.__setattr__(self, "_dense", dense)
        # x^k mod m for d <= k <= 2d - 2, scaled to integers by one common
        # denominator: the rows that fold a product of two reduced elements
        # back below degree d
        rows, xk = [], [-c for c in dense[:-1]]
        for _ in range(len(dense) - 2):
            rows.append(xk)
            xk = [p + xk[-1] * c for p, c in zip([Fraction(0)] + xk[:-1], rows[0])]
        den = lcm(*(c.denominator for row in rows for c in row))
        object.__setattr__(self, "_fold", tuple(
            tuple(c.numerator * (den // c.denominator) for c in row) for row in rows))
        object.__setattr__(self, "_fold_den", den)
        roots = isolate_real_roots(dense)
        if len(roots) != len(dense) - 1:
            raise NumberFieldError("minimal polynomial is not totally real")
        object.__setattr__(self, "_roots", tuple(roots))

    @property
    def degree(self) -> int:
        return len(self._dense) - 1

    def gen(self) -> "NumberFieldElem":
        coords = [Fraction(0)] * self.degree
        if self.degree == 1:
            # x - c: generator is the rational c
            coords[0] = -self._dense[0]
        else:
            coords[1] = Fraction(1)
        return NumberFieldElem(self, tuple(coords))

    def element(self, coords) -> "NumberFieldElem":
        cs = [Fraction(c) for c in coords]
        if len(cs) > self.degree:
            raise NumberFieldError("too many coordinates")
        cs += [Fraction(0)] * (self.degree - len(cs))
        return NumberFieldElem(self, tuple(cs))

    def zero(self) -> "NumberFieldElem":
        return self.element([])

    def one(self) -> "NumberFieldElem":
        return self.element([1])

    def __repr__(self):
        return f"NumberField({self.name}: {self.min_poly})"


class NumberFieldElem:
    """Element of a NumberField in power-basis coordinates.

    Supports field arithmetic and exact sign / approximation queries at any
    real embedding.
    """

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: tuple):
        self.field = field
        self.coords = tuple(coords)
        if len(self.coords) != field.degree:
            raise NumberFieldError("coordinate length mismatch")

    def _coerce(self, other):
        if isinstance(other, NumberFieldElem):
            if other.field is not self.field and other.field != self.field:
                raise NumberFieldError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element([Fraction(other)])
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NumberFieldElem(self.field,
                               tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElem(self.field, tuple(-a for a in self.coords))

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
        field = self.field
        (xs,), dx = _int_rows((self,))
        (ys,), dy = _int_rows((o,))
        den = field._fold_den * dx * dy
        return NumberFieldElem(field, tuple(Fraction(c, den)
                                            for c in _mul_fold(field, ((xs, ys),))))

    __rmul__ = __mul__

    def inverse(self) -> "NumberFieldElem":
        """Extended Euclid against the minimal polynomial."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # invariants: r0 = s0*m + t0*self_poly (mod juggling implicit)
        r0, r1 = list(self.field._dense), _trim(list(self.coords))
        t0, t1 = [], [Fraction(1)]
        while len(r1) - 1 > 0:
            q, r = _uni_divmod(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, _trim([a - b for a, b in
                                zip_longest(t0, _mul(q, t1), fillvalue=0)])
        if not r1:
            raise NumberFieldError("element not invertible (reducible modulus?)")
        c = r1[0]
        inv = [t / c for t in t1]
        inv += [Fraction(0)] * (self.field.degree - len(inv))
        return NumberFieldElem(self.field, tuple(inv[:self.field.degree]))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if (isinstance(other, NumberFieldElem) and other.field is not self.field
                and other.field != self.field):
            # across fields only equal rationals are equal, as they are to
            # their common value (arithmetic across fields still raises)
            return (self.is_rational() and other.is_rational()
                    and self.coords[0] == other.coords[0])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coords == o.coords

    def __hash__(self):
        # a rational element equals its value, so it hashes like it
        if self.is_rational():
            return hash(self.coords[0])
        return hash(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def __repr__(self):
        name = self.field.name
        parts = []
        for k, c in enumerate(self.coords):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*{name}" if c != 1 else name)
            else:
                parts.append(f"{c}*{name}^{k}" if c != 1 else f"{name}^{k}")
        return " + ".join(parts) if parts else "0"

    # ------------------------------------------------------------------
    # real-embedding queries

    def _interval_eval(self, lo: Fraction, hi: Fraction) -> tuple:
        """Interval Horner: encloses p(alpha) for alpha in [lo, hi]."""
        plo, phi = Fraction(0), Fraction(0)
        for c in reversed(self.coords):
            cands = (plo * lo, plo * hi, phi * lo, phi * hi)
            plo, phi = min(cands) + c, max(cands) + c
        return plo, phi

    def sign_at_embedding(self, index: int) -> int:
        """Sign (-1, 0, +1) of the image under the index-th real embedding.

        Terminates: a nonzero element has p(alpha) != 0 (deg p < deg m and m
        irreducible), so interval refinement eventually separates the
        enclosure from 0; the zero element short-circuits.
        """
        if self.is_zero():
            return 0
        if self.is_rational():
            v = self.coords[0]
            return 1 if v > 0 else -1
        lo, hi = self.field._roots[index]
        if lo == hi:
            raise NumberFieldError("rational root of an irreducible modulus?")
        while True:
            vlo, vhi = self._interval_eval(lo, hi)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            lo, hi = refine_interval(self.field._dense, lo, hi, (hi - lo) / 2)


# ----------------------------------------------------------------------
# integer products: the field product and the quaternion product share these


def _int_rows(elems) -> tuple:
    """(rows, den): the coordinates of each element as an integer row, all
    over one common denominator."""
    den = lcm(*(c.denominator for x in elems for c in x.coords))
    return [[c.numerator * (den // c.denominator) for c in x.coords]
            for x in elems], den


def _mul_fold(field: NumberField, pairs) -> list:
    """Sum of xs * ys over the integer rows (xs, ys) in pairs, reduced mod
    the minimal polynomial: an integer row over field._fold_den.

    The products are summed before the one fold, since convolving and
    folding are both linear.
    """
    d = field.degree
    prod = [0] * (2 * d - 1)
    for xs, ys in pairs:
        for i, a in enumerate(xs):
            if a:
                for j, b in enumerate(ys):
                    prod[i + j] += a * b
    den = field._fold_den
    out = [c * den for c in prod[:d]] if den != 1 else prod[:d]
    for c, row in zip(prod[d:], field._fold):
        if c:
            for i, r in enumerate(row):
                out[i] += c * r
    return out


# ----------------------------------------------------------------------
# minimal polynomials of 2*cos(2*pi/n)


def _chebyshev_like(n: int) -> list:
    """V_n with V_n(2 cos h) = 2 cos(n h): V_0 = 2, V_1 = x."""
    v0, v1 = [Fraction(2)], [Fraction(0), Fraction(1)]
    if n == 0:
        return v0
    for _ in range(n - 1):
        v0, v1 = v1, _trim([a - b for a, b in
                            zip([Fraction(0)] + list(v1),
                                list(v0) + [Fraction(0)] * (len(v1) + 1 - len(v0)))])
    return v1


def minpoly_2cos(n: int, var: str = "x") -> MultiPoly:
    """Monic minimal polynomial of 2*cos(2*pi/n) over Q.

    Built from the recursion V_{k+1} = x V_k - V_{k-1} (V_k(2 cos h) =
    2 cos k h): 2 cos(2 pi/n) is a root of V_n - 2, and the minimal
    polynomial is the factor of its squarefree part left after dividing
    out, for each prime p | n, the common factor with V_{n/p} - 2.
    Degree phi(n)/2 for n >= 3.

    Examples
    --------
    >>> str(minpoly_2cos(7))
    'x^3 + x^2 - 2*x - 1'
    >>> str(minpoly_2cos(3))
    'x + 1'
    """
    if n < 1:
        raise NumberFieldError("n must be positive")
    if n == 1:
        return dense_to_poly([Fraction(-2), Fraction(1)], var)  # 2cos(2pi) = 2
    if n == 2:
        return dense_to_poly([Fraction(2), Fraction(1)], var)   # 2cos(pi) = -2

    def v_minus_2(k: int) -> list:
        v = _chebyshev_like(k)
        v[0] -= 2
        return v

    f = poly_to_dense(squarefree_part(dense_to_poly(v_minus_2(n), var), var), var)
    # the roots 2cos(2 pi k/n) with gcd(k, n) > 1 are, over the primes p | n,
    # the roots of V_{n/p} - 2
    for p in factor_integer(n)[0]:
        f, _ = _uni_divmod(f, _uni_gcd(f, v_minus_2(n // p)))
    return dense_to_poly(f, var)  # monic: a monic squarefree part over monic gcds


def field_2cos(n: int, name: str = "v") -> NumberField:
    """The real cyclotomic field generated by 2*cos(2*pi/n)."""
    return NumberField(minpoly_2cos(n, name), name)

"""Totally real number fields with exact real-embedding arithmetic.

A field is Q[x]/(m) for a monic irreducible m with all roots real. Real
embeddings are identified with the real roots of m, ordered increasingly and
represented by exact isolating intervals from a Sturm chain. Element signs
under an embedding are decided exactly by interval refinement -- no floating
point is involved anywhere in a sign decision.

Dense univariate polynomials are lists [c0, c1, ...], lowest coefficient
first, as in `dense`, the only module of the package this one computes
with; a field takes its minimal polynomial as such a row. The work runs on
integers: elements are integer rows over one denominator, Sturm chains are
`dense._prs` remainder sequences, and Fractions appear only where a value
leaves the API. This module alone knows how an element is stored: other
modules compute with its arithmetic, and `NumberFieldElem.mul_matrix` hands
out the integer matrix of multiplication by an element.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .dense import _deriv, _int_dense, _power, _prs, _trim, _zt_divide, _zt_gcd, _zt_squarefree
from .record import Record


class NumberFieldError(ValueError):
    pass


# ----------------------------------------------------------------------
# Sturm chains, on integers: scaling by a positive constant keeps signs


def _sign_at(p: list, n: int, d: int) -> int:
    """Sign of the integer polynomial p at n/d, d > 0: the sign of
    sum p_i n^i d^(deg p - i), by Horner's rule."""
    acc, s = 0, 1
    for c in reversed(p):
        acc = acc * n + c * s
        s *= d
    return (acc > 0) - (acc < 0)


def sturm_chain(p: Sequence[Fraction]) -> list:
    """Sturm sequence p, p', -rem(...), ... for a squarefree p, each term a
    positive multiple in Z[x]: the signed remainder sequence `dense._prs`
    of p, cleared of denominators, and p'."""
    p = _int_dense(_trim(list(p)))[0]
    return _prs(p, _deriv(p))


def _sign_variations(chain, x: Fraction) -> int:
    n, d = x.numerator, x.denominator
    signs = [s for s in (_sign_at(p, n, d) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def isolate_real_roots(p: Sequence[Fraction]) -> list:
    """Disjoint exact isolating intervals for the real roots of squarefree p.

    Returns (lo, hi) Fractions, one per real root, lo < root < hi, sorted
    increasingly: bisection from the Cauchy bound, a midpoint that is a
    root moved towards hi until it is not."""
    chain = sturm_chain(p)
    p = chain[0]
    if len(p) <= 1:
        raise NumberFieldError("cannot isolate roots of a constant")
    bound = 1 + Fraction(max(map(abs, p)), abs(p[-1]))
    out = []

    def split(lo, hi, vlo, vhi):
        if vlo - vhi == 1:
            out.append((lo, hi))
        elif vlo > vhi:
            mid = (lo + hi) / 2
            while _sign_at(p, mid.numerator, mid.denominator) == 0:
                mid = (mid + hi) / 2
            vm = _sign_variations(chain, mid)
            split(lo, mid, vlo, vm)
            split(mid, hi, vm, vhi)

    split(-bound, bound, _sign_variations(chain, -bound), _sign_variations(chain, bound))
    return out


def refine_interval(p: Sequence[Fraction], lo: Fraction, hi: Fraction,
                    width: Fraction) -> tuple:
    """Bisect an isolating interval of squarefree p down to the given width,
    its ends integers a, b over one denominator d that each step doubles."""
    p = _int_dense(p)[0]
    (a, b), d = _int_dense((lo, hi))
    slo = _sign_at(p, a, d)
    if slo == 0:
        return lo, lo
    wn, wd = width.numerator, width.denominator
    while (b - a) * wd > wn * d:
        m, a, b, d = a + b, 2 * a, 2 * b, 2 * d
        v = _sign_at(p, m, d)
        if v == 0:
            return Fraction(m, d), Fraction(m, d)
        a, b = (m, b) if v == slo else (a, m)
    return Fraction(a, d), Fraction(b, d)


# ----------------------------------------------------------------------
# fields and elements


class NumberField(Record):
    """Q[x]/(m) for m monic irreducible, all roots real.

    `min_poly` is the monic minimal polynomial as a dense row of rationals,
    lowest coefficient first (kept as a tuple of Fractions); `name` is a
    display name for the generator. Real embeddings are indexed 0, 1, ...
    by increasing root.
    """
    min_poly: tuple
    name: str = "a"

    def __post_init__(self):
        dense = tuple(map(Fraction, self.min_poly))
        if not dense or dense[-1] != 1:
            raise NumberFieldError("minimal polynomial must be monic")
        if len(dense) < 2:
            raise NumberFieldError("minimal polynomial must be non-constant")
        object.__setattr__(self, "min_poly", dense)
        object.__setattr__(self, "degree", len(dense) - 1)
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

    def gen(self) -> "NumberFieldElem":
        coords = [Fraction(0)] * self.degree
        if self.degree == 1:
            # x - c: generator is the rational c
            coords[0] = -self.min_poly[0]
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
        # the polynomial ring is loaded only to print
        from .multipoly import dense_to_poly
        return f"NumberField({self.name}: {dense_to_poly(self.min_poly, self.name)})"


class NumberFieldElem:
    """Element of a NumberField in power-basis coordinates, held as an
    integer row over one positive denominator in lowest terms (`coords` is
    the Fraction view). Field arithmetic and exact embedding signs.
    """

    __slots__ = ("field", "_num", "_den")

    def __init__(self, field: NumberField, coords: tuple):
        cs = tuple(coords)
        if len(cs) != field.degree:
            raise NumberFieldError("coordinate length mismatch")
        # lowest terms already: each prime's full power in the lcm comes
        # from a coordinate whose numerator it does not divide
        num, self._den = _int_dense(cs)
        self.field, self._num = field, tuple(num)

    @property
    def coords(self) -> tuple:
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    def _coerce(self, other):
        if isinstance(other, NumberFieldElem):
            if other.field is not self.field and other.field != self.field:
                raise NumberFieldError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return _elem(self.field, [other.numerator] + [0] * (self.field.degree - 1),
                         other.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        dx, dy = self._den, o._den
        return _elem(self.field, [a * dy + b * dx for a, b in zip(self._num, o._num)],
                     dx * dy)

    __radd__ = __add__

    def __neg__(self):
        return _elem(self.field, [-a for a in self._num], self._den)

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
        return _elem(field, _mul_fold(field, self._num, o._num),
                     field._fold_den * self._den * o._den)

    __rmul__ = __mul__

    def mul_matrix(self) -> tuple:
        """(rows, den): the matrix of x -> self * x in the power basis, as
        integer rows over one positive denominator; column k is self * v^k."""
        field = self.field
        cols = [_mul_fold(field, [0] * k + [1], self._num) for k in range(field.degree)]
        return list(zip(*cols)), field._fold_den * self._den

    def inverse(self) -> "NumberFieldElem":
        """Faddeev-LeVerrier on the integer multiplication matrix A of self,
        over den: M_k = A M_(k-1) + c I, then c = -tr(A M_k) / k, exact in
        Z; A M_d = -c I at k = d."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        d = self.field.degree
        a, den = self.mul_matrix()
        m, c = [[0] * d for _ in range(d)], 1
        for k in range(1, d + 1):
            m = [[sum(x * y for x, y in zip(row, col)) + (c if i == j else 0)
                  for j, col in enumerate(zip(*m))] for i, row in enumerate(a)]
            c = -sum(x * y for i, row in enumerate(a) for x, y in zip(row, (r[i] for r in m))) // k
        if c == 0:
            raise NumberFieldError("element not invertible (reducible modulus?)")
        scale = -den if c > 0 else den
        return _elem(self.field, [scale * row[0] for row in m], abs(c))

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
        return _power(self.inverse() if n < 0 else self, abs(n), self.field.one())

    def __eq__(self, other):
        if (isinstance(other, NumberFieldElem) and other.field is not self.field
                and other.field != self.field):
            # across fields only equal rationals are equal, as they are to
            # their common value (arithmetic across fields still raises)
            return (self.is_rational() and other.is_rational()
                    and self._num[0] == other._num[0] and self._den == other._den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._den == o._den and self._num == o._num

    def __hash__(self):
        # a rational element equals its value, so it hashes like it
        if self.is_rational():
            return hash(Fraction(self._num[0], self._den))
        return hash((self._num, self._den))

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

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

    def sign_at_embedding(self, index: int) -> int:
        """Sign (-1, 0, +1) of the image under the index-th real embedding.

        Interval Horner over the root's isolating interval, in integers,
        bisected until the enclosure excludes 0. Terminates: a nonzero
        element has p(alpha) != 0 (deg p < deg m and m irreducible).
        """
        if self.is_zero():
            return 0
        if self.is_rational():
            return 1 if self._num[0] > 0 else -1
        lo, hi = self.field._roots[index]
        while True:
            (a, b), d = _int_dense((lo, hi))
            vlo, vhi, s = 0, 0, 1
            for c in reversed(self._num):
                cands = (vlo * a, vlo * b, vhi * a, vhi * b)
                vlo, vhi = min(cands) + c * s, max(cands) + c * s
                s *= d
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            lo, hi = refine_interval(self.field.min_poly, lo, hi, (hi - lo) / 2)


def _elem(field: NumberField, num: list, den: int) -> NumberFieldElem:
    """The element num / den of field, for an integer row num and den > 0,
    in lowest terms."""
    g = gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    x = object.__new__(NumberFieldElem)
    x.field, x._num, x._den = field, tuple(num), den
    return x


# ----------------------------------------------------------------------
# the integer product: the field product and the multiplication matrix share it


def _mul_fold(field: NumberField, xs: list, ys: list) -> list:
    """xs * ys for integer rows, reduced mod the minimal polynomial: an
    integer row over field._fold_den."""
    d = field.degree
    prod = [0] * (2 * d - 1)
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
    """V_n with V_n(2 cos h) = 2 cos(n h), as integers: V_0 = 2, V_1 = x."""
    v0, v1 = [2], [0, 1]
    if n == 0:
        return v0
    for _ in range(n - 1):
        v0, v1 = v1, _trim([a - b for a, b in zip_longest([0] + v1, v0, fillvalue=0)])
    return v1


def minpoly_2cos(n: int) -> list:
    """Monic minimal polynomial of 2*cos(2*pi/n) over Q, as a dense integer
    row, lowest coefficient first.

    Built from the recursion V_{k+1} = x V_k - V_{k-1} (V_k(2 cos h) =
    2 cos k h): 2 cos(2 pi/n) is a root of V_n - 2, and the minimal
    polynomial is the factor of its squarefree part left after dividing
    out, for each proper divisor d of n, the common factor with V_d - 2.
    Degree phi(n)/2 for n >= 3.

    Examples
    --------
    >>> minpoly_2cos(7)
    [-1, -2, 1, 1]
    >>> minpoly_2cos(3), minpoly_2cos(2), minpoly_2cos(1)
    ([1, 1], [2, 1], [-2, 1])
    """
    if n < 1:
        raise NumberFieldError("n must be positive")

    def v_minus_2(k: int) -> list:
        v = _chebyshev_like(k)
        v[0] -= 2
        return v

    # all on integers: the polynomials are monic over Z, so are their gcds
    # (Gauss's lemma), and each quotient below is exact
    f = _zt_squarefree(v_minus_2(n))
    # the roots 2cos(2 pi k/n) with gcd(k, n) > 1 are 2cos(2 pi k'/d) for
    # the proper divisor d = n/gcd(k, n): roots of V_d - 2
    for d in range(1, n):
        if n % d == 0:
            f = _zt_divide(f, _zt_gcd(f, v_minus_2(d)))
    return f


def field_2cos(n: int) -> NumberField:
    """The real cyclotomic field generated by v = 2*cos(2*pi/n)."""
    return NumberField(minpoly_2cos(n), "v")

"""Sparse multivariate polynomials over the rationals.

Everything here is exact. A polynomial is a fixed tuple of variable names,
a dict `_num` mapping exponent tuples to nonzero int numerators, and one
positive int denominator `_den` with gcd(_den, *_num.values()) = 1, so
equal polynomials have equal fields. Every operation works on these
integers and reduces once at the end; `terms`, the exponent -> Fraction
dict, is built only when read. This is deliberately a small core -- just
what the verification pipeline needs: ring arithmetic, exact division,
resultants and discriminants, squarefree decomposition, rational
substitution with denominator clearing, and valuation bookkeeping.

Squarefree decompositions are univariate: Yun's algorithm on dense integer
coefficient lists, over the primitive remainder sequence (`_zt_gcd`) that
the resultants use. Those dense routines live in `dense`, the one dense
core of the package, which number fields use without this module.

Resultants go by evaluation and interpolation over the integers, in one
recursive routine (`_res_params`), one parameter per level: the last
parameter is set to small integers, skipping the points where a leading
coefficient in the eliminated variable vanishes, and the resultant is
interpolated back through one point more than a bound on its degree. The
bound comes from the Newton polygon of the coefficient degrees: the
resultant is quasi-homogeneous, res(f(lambda*Y), g(lambda*Y)) =
lambda^(mn) * res(f, g), so scaling Y by a power of t bounds its degree in
t (`_degree_bound` has the proof). Without the scaling the bound is the
Sylvester row bound, so it is never above that. Once one parameter t is
left, the same routine first divides each operand by its content (the
primitive gcd in Z[t] of its coefficients) and interpolates only the
resultant of the primitive parts; the resultant is homogeneous of degree
deg B in the coefficients of A and deg A in those of B, so multiplying
the interpolated row back by content(A)^deg B * content(B)^deg A is
exact. That level also bounds the order of the resultant at t = 0 from
below, by the same Newton polygon bound on the operands reversed by
t -> 1/t (`_order_bound` has the proof), read at the common root of the
operands at t = 0, and interpolates only the cofactor of that power of t.
The univariate base case is a subresultant remainder sequence over int.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, zip_longest
from math import gcd as _int_gcd, lcm, prod
from operator import add

from .dense import (_deriv, _int_dense, _power, _primitive, _trim, _uni_pseudo_rem,
                    _zt_divide, _zt_gcd, _zt_squarefree)

Scalar = int | Fraction


class MultiPolyError(ValueError):
    pass


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise MultiPolyError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _mul_int(a: Mapping, b: Mapping) -> dict:
    """Product of integer term dicts on one variable tuple, zero sums kept."""
    out = {}
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    return out


def _from_int(variables: tuple, num: Mapping, den: int) -> "MultiPoly":
    """MultiPoly num / den for integer terms num and int den > 0, zero sums
    dropped and the fraction reduced; the terms are not checked."""
    num = {e: c for e, c in num.items() if c}
    g = _int_gcd(den, *num.values()) if den != 1 else 1
    if g != 1:
        num = {e: c // g for e, c in num.items()}
        den //= g
    p = object.__new__(MultiPoly)
    object.__setattr__(p, "variables", variables)
    object.__setattr__(p, "_num", num)
    object.__setattr__(p, "_den", den)
    return p


def _scalar(c: Scalar, variables: tuple) -> "MultiPoly":
    """The constant c on the given variables, built without the checks."""
    c = _as_fraction(c)
    return _from_int(variables, {(0,) * len(variables): c.numerator}, c.denominator)


class MultiPoly:
    """A polynomial in named variables with rational coefficients.

    `variables` is a tuple of names fixing the exponent-vector order;
    `terms` maps exponent tuples to nonzero Fractions. Zero coefficients
    are never stored. Instances are treated as immutable.

    Examples
    --------
    >>> x, t = MultiPoly.generators("x", "t")
    >>> f = x**2 * t - 2 * x + 1
    >>> f.degree("x"), f.degree("t")
    (2, 1)
    >>> f.evaluate({"x": Fraction(1), "t": Fraction(3)})
    Fraction(2, 1)
    """

    __slots__ = ("variables", "_num", "_den")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Scalar]):
        vt = tuple(variables)
        if len(set(vt)) != len(vt):
            raise MultiPolyError(f"duplicate variable in {vt}")
        clean = {}
        for expo, c in terms.items():
            e = tuple(expo)
            if len(e) != len(vt):
                raise MultiPolyError(f"exponent tuple {e} does not match variables {vt}")
            if any((not isinstance(k, int)) or k < 0 for k in e):
                raise MultiPolyError(f"bad exponent tuple {e}")
            fc = _as_fraction(c)
            if fc != 0:
                # do not store zero coefficients
                clean[e] = fc
        # over the least common denominator the fraction is already reduced
        num, den = _int_dense(clean.values())
        object.__setattr__(self, "variables", vt)
        object.__setattr__(self, "_num", dict(zip(clean, num)))
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise MultiPolyError("MultiPoly is immutable")

    @property
    def terms(self) -> dict:
        """A new dict from exponent tuples to the nonzero Fraction
        coefficients."""
        den = self._den
        return {e: Fraction(c, den) for e, c in self._num.items()}

    def exponents(self):
        """A read-only view of the exponent tuples of the nonzero terms."""
        return self._num.keys()

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def constant(c: Scalar, variables: Sequence[str]) -> "MultiPoly":
        vt = tuple(variables)
        return MultiPoly(vt, {(0,) * len(vt): c})

    @staticmethod
    def variable(name: str, variables: Sequence[str]) -> "MultiPoly":
        vt = tuple(variables)
        if name not in vt:
            raise MultiPolyError(f"{name!r} not among variables {vt}")
        e = tuple(1 if v == name else 0 for v in vt)
        return MultiPoly(vt, {e: 1})

    @staticmethod
    def generators(*names: str) -> tuple:
        """Return the generator polynomials of Q[names], one per name."""
        return tuple(MultiPoly.variable(n, names) for n in names)

    # ------------------------------------------------------------------
    # basic queries

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return not any(any(e) for e in self._num)

    def constant_value(self) -> Fraction:
        if not self._num:
            return Fraction(0)
        if not self.is_constant():
            raise MultiPolyError("not a constant polynomial")
        return Fraction(next(iter(self._num.values())), self._den)

    def _vidx(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise MultiPolyError(f"{var!r} not among variables {self.variables}") from None

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self._num:
            return -1
        i = self._vidx(var)
        return max(e[i] for e in self._num)

    def coefficient(self, var: str, power: int) -> "MultiPoly":
        """The coefficient of var**power, as a polynomial in the same ring
        (the variable still present with exponent 0)."""
        i = self._vidx(var)
        out = {}
        for e, c in self._num.items():
            if e[i] == power:
                out[e[:i] + (0,) + e[i + 1:]] = c
        return _from_int(self.variables, out, self._den)

    def leading_coefficient(self, var: str) -> "MultiPoly":
        d = self.degree(var)
        if d < 0:
            raise MultiPolyError("zero polynomial has no leading coefficient")
        return self.coefficient(var, d)

    def variables_used(self) -> tuple:
        used = set()
        for e in self._num:
            for i, k in enumerate(e):
                if k:
                    used.add(self.variables[i])
        return tuple(v for v in self.variables if v in used)

    # ------------------------------------------------------------------
    # ring structure

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise MultiPolyError(
                    f"variable mismatch: {self.variables} vs {other.variables}")
            return other
        return _scalar(other, self.variables)

    def __add__(self, other) -> "MultiPoly":
        o = self._coerce(other)
        da, db = self._den, o._den
        den = lcm(da, db)
        sa, sb = den // da, den // db
        out = {e: sa * c for e, c in self._num.items()}
        get = out.get
        for e, c in o._num.items():
            out[e] = get(e, 0) + sb * c
        return _from_int(self.variables, out, den)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _from_int(self.variables, {e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            b = self._coerce(other)
            return _from_int(self.variables, _mul_int(self._num, b._num),
                             self._den * b._den)
        c = _as_fraction(other)
        return _from_int(self.variables, {e: c.numerator * v for e, v in self._num.items()},
                         self._den * c.denominator)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise MultiPolyError("exponent must be a non-negative int")
        return _power(self, n, _scalar(1, self.variables))

    def __truediv__(self, other) -> "MultiPoly":
        # scalar division only; polynomial division is exact_div
        c = _as_fraction(other)
        if c == 0:
            raise ZeroDivisionError("division by zero scalar")
        return self * (Fraction(1) / c)

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return (self.variables == other.variables and self._den == other._den
                    and self._num == other._num)
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        # a constant compares equal to its value, so it must hash like it
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.variables, self._den, frozenset(self._num.items())))

    def __bool__(self):
        return bool(self._num)

    # ------------------------------------------------------------------
    # printing: graded lex, highest first, deterministic

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for e, c in self._sorted_terms():
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.variables, e) if k)
            if not mono:
                piece = str(c)
            elif c == 1:
                piece = mono
            elif c == -1:
                piece = "-" + mono
            else:
                piece = f"{c}*{mono}"
            parts.append(piece)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self.variables}, {str(self)})"

    # ------------------------------------------------------------------
    # calculus / evaluation

    def derivative(self, var: str) -> "MultiPoly":
        i = self._vidx(var)
        out = {}
        for e, c in self._num.items():
            if e[i] > 0:
                out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
        return _from_int(self.variables, out, self._den)

    def evaluate(self, values: Mapping[str, Scalar]) -> MultiPoly | Fraction:
        """Plug in rational values for some or all variables.

        Returns a Fraction when every variable that actually occurs is
        assigned, else a MultiPoly on the same variable tuple.
        """
        vals = {self._vidx(k): _as_fraction(v) for k, v in values.items()}
        # on integers: (n/d)^k is n^k * d^(deg - k) over d^deg
        degs = {i: max((e[i] for e in self._num), default=0) for i in vals}
        out = {}
        for e, c in self._num.items():
            key = list(e)
            for i, v in vals.items():
                c *= v.numerator ** e[i] * v.denominator ** (degs[i] - e[i])
                key[i] = 0
            key = tuple(key)
            out[key] = out.get(key, 0) + c
        den = self._den * prod(v.denominator ** degs[i] for i, v in vals.items())
        res = _from_int(self.variables, out, den)
        if set(self.variables_used()) <= set(values):
            return res.constant_value()
        return res

    # ------------------------------------------------------------------
    # substitution with denominator clearing

    def substitute(self, assignments: Mapping[str, tuple]) -> tuple:
        """Apply a rational map var -> num/den to some variables.

        Each assignment value is a pair (num, den) of MultiPoly on one common
        output variable tuple; den may be omitted by passing a bare MultiPoly.
        Unassigned variables must exist in the output ring and are mapped to
        themselves.

        Returns (numerator, clearing) with

            f(sigma(vars)) == numerator / clearing

        identically, where clearing = prod den_v ** degree_v(f). Only the
        declared denominators are cleared; no gcd cancellation happens here:

        >>> x, y = MultiPoly.generators("x", "y")
        >>> num, clearing = (x * y - 1).substitute({"x": (x, y)})
        >>> print(num, "|", clearing)
        x*y - y | y
        """
        if not assignments:
            raise MultiPolyError("empty substitution")
        pairs = {}
        out_vars = one = None
        for name, val in assignments.items():
            self._vidx(name)
            num, den = (val, None) if isinstance(val, MultiPoly) else val
            if out_vars is None:
                out_vars = num.variables
                one = _scalar(1, out_vars)
            if den is None:
                den = one
            if num.variables != out_vars or den.variables != out_vars:
                raise MultiPolyError("substitution images disagree on variables")
            if den.is_zero():
                raise MultiPolyError(f"zero denominator in image of {name!r}")
            pairs[name] = (num, den)
        # per variable v of degree d, the row num^k * den^(d-k), k = 0..d, as
        # integer terms over (dn * dd)^d: with num = N / dn and den = D / dd,
        # entry k is (dd * N)^k * (dn * D)^(d-k). An unassigned variable maps
        # to itself and must exist in the output ring.
        unit = (0,) * len(out_vars)
        rows, row_den, clearing = [], 1, one
        for v in self.variables:
            num, den = pairs.get(v) or (MultiPoly.variable(v, out_vars), one)
            d = max(0, self.degree(v))
            clearing = clearing * den ** d
            dn, dd = num._den, den._den
            nums = accumulate([{e: dd * c for e, c in num._num.items()}] * d, _mul_int,
                              initial={unit: 1})
            dens = list(accumulate([{e: dn * c for e, c in den._num.items()}] * d, _mul_int,
                                   initial={unit: 1}))
            rows.append([_mul_int(a, b) for a, b in zip(nums, reversed(dens))])
            row_den *= (dn * dd) ** d
        out = {}
        get = out.get
        for e, c in self._num.items():
            term = {unit: c}
            for row, k in zip(rows, e):
                term = _mul_int(term, row[k])
            for m, a in term.items():
                out[m] = get(m, 0) + a
        return _from_int(out_vars, out, self._den * row_den), clearing

    # ------------------------------------------------------------------
    # exact division (lex order)

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact polynomial division; raises MultiPolyError if not exact.

        Works by repeatedly cancelling the lex-leading term. Sound as an
        exactness certificate: when f = q*g the lex-leading monomial of f is
        the product of those of q and g, so each step strictly decreases the
        leading monomial and terminates with remainder 0 exactly when the
        division is exact. It divides the primitive integer parts, f and g
        over their contents: by Gauss's lemma an exact quotient of those is
        again an integer polynomial, so a quotient term that is not an
        integer also proves the division inexact. The ratio of the contents
        is put back once at the end.
        """
        g = self._coerce(divisor)
        if g.is_zero():
            raise MultiPolyError("division by zero polynomial")
        if g.is_constant():
            return self / g.constant_value()
        if not self._num:
            return self
        cf, cg = _int_gcd(*self._num.values()), _int_gcd(*g._num.values())
        rem = {e: c // cf for e, c in self._num.items()}
        gi = {e: c // cg for e, c in g._num.items()}
        lead_g = max(gi)  # lex order on exponent tuples
        lg = gi[lead_g]
        quo = {}
        while rem:
            lead_r = max(rem)
            diff = tuple(a - b for a, b in zip(lead_r, lead_g))
            q, r = divmod(rem[lead_r], lg)
            if r or any(d < 0 for d in diff):
                raise MultiPolyError("division is not exact")
            quo[diff] = q
            for e, c in gi.items():
                key = tuple(a + b for a, b in zip(diff, e))
                val = rem.get(key, 0) - q * c
                if val:
                    rem[key] = val
                else:
                    del rem[key]
        # the contents are cf / self._den and cg / g._den
        scale = cf * g._den
        return _from_int(self.variables, {e: q * scale for e, q in quo.items()},
                         cg * self._den)

    # ------------------------------------------------------------------
    # valuations

    def valuation(self, var: str) -> int:
        """Largest k with var**k dividing self; raises on the zero polynomial."""
        if not self._num:
            raise MultiPolyError("valuation of the zero polynomial")
        i = self._vidx(var)
        return min(e[i] for e in self._num)

    def shift_down(self, var: str, k: int) -> "MultiPoly":
        """Exact division by var**k (valuation must be >= k)."""
        if k == 0:
            return self
        if self.valuation(var) < k:
            raise MultiPolyError(
                f"cannot divide by {var}^{k}: valuation is {self.valuation(var)}")
        i = self._vidx(var)
        return _from_int(self.variables,
                         {e[:i] + (e[i] - k,) + e[i + 1:]: c for e, c in self._num.items()},
                         self._den)

    # ------------------------------------------------------------------
    # content

    def content(self) -> Fraction:
        """gcd of the coefficients as positive rational (0 for the zero poly)."""
        return Fraction(_int_gcd(*self._num.values()), self._den)


def restrict_vars(p: MultiPoly, variables: Sequence[str]) -> MultiPoly:
    """Re-express p on a smaller variable tuple (dropped vars must not occur)."""
    vt = tuple(variables)
    if len(set(vt)) != len(vt):
        raise MultiPolyError(f"duplicate variable in {vt}")
    keep = [p._vidx(v) for v in vt]
    dropped = [i for i, v in enumerate(p.variables) if v not in vt]
    out = {}
    for e, c in p._num.items():
        for i in dropped:
            if e[i]:
                raise MultiPolyError(f"variable {p.variables[i]!r} still occurs")
        out[tuple(e[i] for i in keep)] = c
    return _from_int(vt, out, p._den)


# ----------------------------------------------------------------------
# dense univariate polynomials
#
# A dense polynomial is a list of coefficients, lowest first, as in
# `dense`: `poly_to_dense` gives Fractions.


def _int_row(f: MultiPoly, var: str) -> list:
    """The numerators of f, univariate in var, as a dense int list over
    f._den; raises MultiPolyError when a variable other than var occurs."""
    i = f._vidx(var)
    out = [0] * (f.degree(var) + 1)
    for e, c in f._num.items():
        if any(e[:i]) or any(e[i + 1:]):
            raise MultiPolyError(f"{f} is not univariate in {var!r}")
        out[e[i]] = c
    return out


def poly_to_dense(f: MultiPoly, var: str) -> list:
    """f as a dense Fraction list in var; raises MultiPolyError when a
    variable other than var occurs in f."""
    return [Fraction(c, f._den) for c in _int_row(f, var)]


def squarefree_decomposition(f: MultiPoly, var: str) -> list:
    """Yun's algorithm: f = c * prod p_i^i with p_i monic, squarefree and
    pairwise coprime, for f univariate in var.

    Returns a list of (p_i, i) with deg(p_i) >= 1, in increasing i. It runs
    on integer lists: every gcd is primitive, so by Gauss's lemma each
    division by one is exact in Z[var], and each p_i is made monic at the
    end.
    """
    p = _int_row(f, var)
    if len(p) < 2:
        raise MultiPolyError("squarefree decomposition needs positive degree")
    i = f._vidx(var)
    head, tail = (0,) * i, (0,) * (len(f.variables) - i - 1)
    out = []
    a = _zt_gcd(p, _deriv(p))
    b, c = _zt_divide(p, a), _zt_divide(_deriv(p), a)
    k = 1
    while len(b) > 1:
        d = _trim([u - v for u, v in zip_longest(c, _deriv(b), fillvalue=0)])
        a = _zt_gcd(b, d)
        if len(a) > 1:
            out.append((_from_int(f.variables, {head + (j,) + tail: v for j, v in enumerate(a)},
                                  a[-1]), k))
        b, c = _zt_divide(b, a), _zt_divide(d, a)
        k += 1
    return out


# ----------------------------------------------------------------------
# resultants by evaluation and interpolation
#
# Inside this section a polynomial in `var` is a dense list indexed by the
# var-degree. Each entry is a dict mapping exponent tuples of the remaining
# parameters to nonzero ints; the last tuple slot is the parameter that is
# specialised first.


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Resultant of f and g with respect to var: the determinant of their
    Sylvester matrix, with f and g read at their degrees in var.

    Evaluation and interpolation (G. E. Collins, J. ACM 18, 1971), exact
    throughout. Dividing out the rational contents leaves integer
    polynomials, and res(a*f, b*g) = a^deg(g) * b^deg(f) * res(f, g) undoes
    that at the end. One parameter p at a time is set to the integers
    0, 1, -1, 2, ...; a point where lc(f) or lc(g) in var vanishes is
    skipped. At every other point the Sylvester matrix specialises entry by
    entry, so the specialised resultant is the exact value there. Newton
    interpolation through one point more than a bound on deg_p of the
    resultant gives it back. With f_i and g_j the coefficients of var^i in
    f and var^j in g, m = deg_var(f) and n = deg_var(g), the bound is the
    least over beta of

        n * max_i(deg_p f_i - beta*i) + m * max_j(deg_p g_j - beta*j) + beta*m*n

    (the Newton polygon bound): after var -> p^-beta * var and division by
    p to the two maxima, every coefficient is a polynomial in 1/p, and
    scaling var by lambda scales the resultant by lambda^(mn). At beta = 0
    it is the Sylvester row bound n * deg_p(f) + m * deg_p(g).

    When one parameter t is left, each operand is first divided by its
    content c, the primitive gcd in Z[t] of its coefficients (checked
    exact), and res(cA*A, cB*B) = cA^deg(B) * cB^deg(A) * res(A, B)
    multiplies it back. So a factor in t shared by all coefficients, such
    as the t^2*(t-1)^2 of a discriminant of the plane family, costs no
    interpolation points. At that level t^L also divides the resultant,
    with L the Newton polygon bound at t = 0: n * min_i(ord_0 f_i +
    beta*i) + m * min_j(ord_0 g_j + beta*j) - beta*m*n at its best beta,
    the orders read after var is moved to the common root of f and g at
    t = 0 when it is the only one. The resultant over t^L is interpolated
    from the values at nonzero points divided by x^L, through one point
    more than deg_t bound - L; L above the degree bound means the
    resultant is 0. Once no parameter is left, a subresultant remainder
    sequence over int does the work.

    The result is a MultiPoly in the same ring with var-degree 0. It is
    zero when f and g share a factor of positive degree in var. An operand
    of var-degree 0 gives that operand to the power of the other's degree.
    """
    if f.variables != g.variables:
        raise MultiPolyError("resultant operands must share a variable tuple")
    vt = f.variables
    if f.is_zero() or g.is_zero():
        return f if f.is_zero() else g
    m, n = f.degree(var), g.degree(var)
    sign = 1
    if m < n:
        f, g, m, n = g, f, n, m
        if m & n & 1:
            sign = -1
    if n == 0:
        return sign * g ** m
    i = f._vidx(var)
    params = [k for k in range(len(vt)) if k != i
              and any(e[k] for p in (f, g) for e in p._num)]
    # the contents are cf / f._den and cg / g._den
    cf, cg = _int_gcd(*f._num.values()), _int_gcd(*g._num.values())
    r = _res_params(_integer_rows(f, i, m, params, cf),
                    _integer_rows(g, i, n, params, cg), len(params))
    scale = sign * cf ** n * cg ** m
    out = {}
    for pe, c in r.items():
        e = [0] * len(vt)
        for k, d in zip(params, pe):
            e[k] = d
        out[tuple(e)] = c * scale
    return _from_int(vt, out, f._den ** n * g._den ** m)


def _integer_rows(f: MultiPoly, i: int, deg: int, params: list, g: int) -> list:
    """The numerators of f divided by their gcd g, as a dense list in
    variable i, of degree deg, with entries {param exponents: int}."""
    rows = [{} for _ in range(deg + 1)]
    for e, c in f._num.items():
        rows[e[i]][tuple(e[k] for k in params)] = c // g
    return rows


def _res_params(A: list, B: list, k: int) -> dict:
    """Resultant of A and B (deg A >= deg B >= 1, nonzero leading
    coefficients) as {exponents of the k parameters: int}.

    For k >= 1 it interpolates in the last parameter through the resultants
    at integer points where neither leading coefficient vanishes, one point
    more than `_degree_bound` allows for. When that parameter t is the only
    one, res(cA*A', cB*B') = cA^deg B * cB^deg A * res(A', B'), so only the
    resultant of the primitive parts A', B' is interpolated, through fewer
    points, and the product of the contents multiplies it back. There
    `_order_bound` also gives L with t^L dividing the resultant R, so R/t^L
    is interpolated, one point more than its degree bound, from the values
    at nonzero points x divided by x^L (checked exact); when L exceeds the
    degree bound, R = 0 and nothing is evaluated.
    """
    if k == 0:
        r = _res_int([c.get((), 0) for c in A], [c.get((), 0) for c in B])
        return {(): r} if r else {}
    A = [_group_last(c) for c in A]
    B = [_group_last(c) for c in B]
    scale, low = [1], 0
    if k == 1:
        A, ca = _divide_content(A)
        B, cb = _divide_content(B)
        scale = reduce(_zt_mul, [ca] * (len(B) - 1) + [cb] * (len(A) - 1))
        low = _order_bound(A, B)
    bound = _degree_bound(*([max(map(len, c.values()), default=0) - 1 for c in P]
                            for P in (A, B)))
    if low > bound:
        # a nonzero resultant has no order above its degree
        return {}
    # the resultant is t^low times a polynomial of degree <= bound - low,
    # interpolated from the values at nonzero points divided by x^low
    xs, values = [], []
    x = 1 if low else 0
    while len(xs) <= bound - low:
        Ax = [_evaluate_last(c, x) for c in A]
        Bx = [_evaluate_last(c, x) for c in B]
        if Ax[-1] and Bx[-1]:
            xs.append(x)
            values.append(_res_params(Ax, Bx, k - 1))
        x = -x if x > 0 else 1 - x
    out = {}
    for key in set().union(*values):
        row = _interpolate(xs, [_exact(v.get(key, 0), x ** low) for v, x in zip(values, xs)])
        for d, c in enumerate(_zt_mul(row, scale), low):
            if c:
                out[key + (d,)] = c
    return out


def _degree_bound(da: list, db: list) -> int:
    """A bound on deg_t res(A, B) from the Newton polygon of the
    coefficient degrees: da[i] is deg_t of the coefficient of Y^i in A, -1
    when it is zero, and db[j] likewise for B; m = deg A, n = deg B.

    The bound is the floor of the least, over beta, of

        n * max_i(da[i] - beta*i) + m * max_j(db[j] - beta*j) + beta*m*n.

    Proof: with alpha and alpha' the two maxima, the coefficients of
    t^-alpha * A(t^-beta * Y) and of t^-alpha' * B(t^-beta * Y) have order
    >= 0 at t = oo, so their resultant does too; by
    res(f(lambda*Y), g(lambda*Y)) = lambda^(mn) * res(f, g) it is
    t^-(n*alpha + m*alpha' + beta*m*n) * res(A, B). The expression is
    convex and piecewise linear in beta, with its corners at the slopes
    between two points (i, da[i]) of one operand, so its least value is
    at one of them or at beta = 0, where it is the Sylvester row bound.
    """
    m, n = len(da) - 1, len(db) - 1
    pa = [(i, d) for i, d in enumerate(da) if d >= 0]
    pb = [(j, e) for j, e in enumerate(db) if e >= 0]
    # beta = p / q with q > 0, and q times the expression
    slopes = {(0, 1)} | {(d2 - d1, i2 - i1) for pts in (pa, pb)
                         for (i1, d1), (i2, d2) in combinations(pts, 2)}
    return min((n * max(q * d - p * i for i, d in pa)
                + m * max(q * e - p * j for j, e in pb) + p * m * n) // q
               for p, q in slopes)


def _order_bound(A: list, B: list) -> int:
    """A lower bound L on ord_{t=0} res(A, B), for A and B over Z[t] with
    entries {(): dense int list in t} or {} as `_group_last` gives them, m =
    deg A and n = deg B.

    Proof: t -> 1/t turns order at 0 into degree. With o_i the order at 0
    of the coefficient of Y^i in A and D at least its degree, for every i,
    the coefficients of t^D * A(Y, 1/t) have degrees D - o_i, and likewise
    for B with D' and o'_j; the resultant is homogeneous of degree n in the
    coefficients of A and m in those of B, so res of the reversed operands
    is t^(n*D + m*D') * R(1/t), of degree n*D + m*D' - ord_0 R when R is
    nonzero. So L = n*D + m*D' - `_degree_bound` of the reversed degrees
    is at most ord_0 R. Raising D by one raises n*D and that bound alike,
    so L does not depend on D, and D is taken as the largest o_i.

    The orders are read after moving Y = p/q to Y = 0, where p/q is the
    common root of A(Y, 0) and B(Y, 0) when the squarefree part of their
    gcd is linear: the moved operands q^m * A((Y + p)/q) and q^n * B((Y +
    p)/q) have the resultant q^(mn) * res(A, B), since res(f(lambda*Y +
    mu), g(lambda*Y + mu)) = lambda^(mn) * res(f, g). So the bound stays
    valid, and it no longer depends on where that root lies.
    """
    rows = [[c[()] if c else [] for c in P] for P in (A, B)]
    g = _zt_gcd(*(_trim([p[0] if p else 0 for p in P]) for P in rows))
    if len(g) == 1 and all(P[-1][0] for P in rows):
        # A(Y, 0) and B(Y, 0) keep degrees m and n and share no root, so
        # their resultant R(0) is not 0
        return 0
    if len(g) > 1:
        s = _zt_squarefree(g)
        if len(s) == 2:
            rows = [_centre(P, -s[0], s[1]) for P in rows]
    orders = [[next((e for e, c in enumerate(p) if c), None) for p in P] for P in rows]
    tops = [max(o for o in P if o is not None) for P in orders]
    m, n = len(A) - 1, len(B) - 1
    rev = ([-1 if o is None else top - o for o in P] for P, top in zip(orders, tops))
    return n * tops[0] + m * tops[1] - _degree_bound(*rev)


def _centre(P: list, p: int, q: int) -> list:
    """q^m * P((Y + p)/q) for P of degree m in Y, a dense list in Y of
    dense int lists in t: Horner's rule in Y + p on the coefficients
    q^(m - i) * P_i."""
    out = []
    for k, c in enumerate(reversed(P)):
        # out <- out * (Y + p) + q^k * c, c the coefficient of Y^(m - k)
        out = [[p * u + v for u, v in zip_longest(a, b, fillvalue=0)]
               for a, b in zip(out + [[]], [[]] + out)]
        out[0] = [u + q ** k * v for u, v in zip_longest(out[0], c, fillvalue=0)]
    return out


def _divide_content(A: list) -> tuple:
    """(A / c, c) for A a polynomial over Z[t], entries {(): dense int list
    in t} as `_group_last` gives them, and c its content: the primitive gcd
    in Z[t] of its nonzero coefficients, with positive leading coefficient,
    as a dense int list."""
    dense = [c[()] for c in A if c]
    g = _primitive(min(dense, key=len))
    for p in dense:
        if len(g) == 1:
            break
        if _zt_divide(p, g) is None:
            g = _zt_gcd(g, p)
    if g == [1]:
        return A, g
    out = [{(): _zt_divide(c[()], g)} if c else c for c in A]
    if any(c and c[()] is None for c in out):
        raise MultiPolyError("internal: inexact division in resultant")  # pragma: no cover
    return out, g


def _zt_mul(a: list, b: list) -> list:
    """Product of dense nonzero int polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _group_last(c: dict) -> dict:
    """c as {exponents of the other parameters: dense int list in the last
    parameter, lowest coefficient first}."""
    out = {}
    for e, v in c.items():
        p = out.setdefault(e[:-1], [])
        p.extend([0] * (e[-1] + 1 - len(p)))
        p[e[-1]] = v
    return out


def _evaluate_last(c: dict, x: int) -> dict:
    """Set the last parameter of c, grouped by `_group_last`, to x by
    Horner's rule."""
    out = {}
    for key, p in c.items():
        v = 0
        for a in reversed(p):
            v = v * x + a
        if v:
            out[key] = v
    return out


def _interpolate(xs: list, ys: list) -> list:
    """Coefficients, lowest first, of the integer polynomial of degree
    < len(xs) through the points (xs[j], ys[j]).

    Newton divided differences. For a polynomial with integer coefficients
    at integer nodes every divided difference is an integer, so each
    division is checked exact.
    """
    c = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            c[i], rem = divmod(c[i] - c[i - 1], xs[i] - xs[i - j])
            if rem:
                raise MultiPolyError("internal: inexact division in resultant")  # pragma: no cover
    p = [c[-1]]
    for i in range(len(xs) - 2, -1, -1):
        # p <- p * (x - xs[i]) + c[i]
        p = ([c[i] - xs[i] * p[0]]
             + [p[d - 1] - xs[i] * p[d] for d in range(1, len(p))] + [p[-1]])
    return p


def _res_int(A: list, B: list) -> int:
    """Resultant of dense int polynomials A and B, lowest coefficient first,
    with deg A >= deg B >= 1 and nonzero leading coefficients.

    Subresultant remainder sequence: each pseudo-remainder is divided
    exactly by g * h^delta, with h <- lc^delta / h^(delta - 1).
    """
    sign = 1
    g = h = 1
    while True:
        m, n = len(A) - 1, len(B) - 1
        delta = m - n
        if m & n & 1:
            sign = -sign
        R = _uni_pseudo_rem(A, B)
        if not R:
            # common factor of positive degree
            return 0
        denom = g * h ** delta
        A, B = B, []
        for c in R:
            q, rem = divmod(c, denom)
            if rem:
                raise MultiPolyError("internal: inexact division in resultant")  # pragma: no cover
            B.append(q)
        g = A[-1]
        if delta:
            h = _exact(g ** delta, h ** (delta - 1))
        if len(B) == 1:
            m = len(A) - 1
            return sign * _exact(B[0] ** m, h ** (m - 1))


def _exact(a: int, b: int) -> int:
    q, rem = divmod(a, b)
    if rem:
        raise MultiPolyError("internal: inexact division in resultant")  # pragma: no cover
    return q


def discriminant(f: MultiPoly, var: str) -> MultiPoly:
    """disc(f) = (-1)^(n(n-1)/2) * res(f, f') / lc(f), n = deg(f, var).

    The division by the leading coefficient is checked exact.
    """
    n = f.degree(var)
    if n < 2:
        raise MultiPolyError(f"discriminant needs degree >= 2 in {var!r}, got {n}")
    res = resultant(f, f.derivative(var), var)
    lc = f.leading_coefficient(var)
    d = res.exact_div(lc)
    if (n * (n - 1) // 2) % 2:
        d = -d
    return d

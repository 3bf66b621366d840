"""Sparse multivariate polynomials over the rationals.

Everything here is exact: coefficients are `fractions.Fraction`, terms are
kept in a dict mapping exponent tuples to nonzero coefficients, and the
variable order is fixed per polynomial. This is deliberately a small core --
just what the verification pipeline needs: ring arithmetic, exact division,
resultants and discriminants, gcd / squarefree parts, rational substitution
with denominator clearing, and valuation bookkeeping.

gcds and squarefree parts are univariate over Q: they run Euclid's
algorithm, each remainder made monic, on dense coefficient lists
(`poly_to_dense` / `dense_to_poly`), and `_uni_divmod` is the one
Euclidean division over Q in the package.

Resultants go by evaluation and interpolation over the integers: each
parameter is set to small integers, skipping the points where a leading
coefficient in the eliminated variable vanishes, and the resultant is
interpolated back through as many points as the Sylvester row bound on its
degree requires, plus one. Once one parameter t is left, each operand is
divided by its content (the primitive gcd in Z[t] of its coefficients) and
only the resultant of the primitive parts is interpolated; the resultant is
homogeneous of degree deg B in the coefficients of A and deg A in those of
B, so multiplying back by content(A)^deg B * content(B)^deg A is exact. The
univariate base case is a subresultant remainder sequence over int.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import accumulate, zip_longest
from math import gcd as _int_gcd
from operator import mul

Scalar = int | Fraction


class MultiPolyError(ValueError):
    pass


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise MultiPolyError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _mul_terms(a: Mapping, b: Mapping) -> dict:
    """Product of two term dicts on one variable tuple (zero sums kept)."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return out


class MultiPoly:
    """A polynomial in named variables with Fraction coefficients.

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

    __slots__ = ("variables", "terms")

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
        object.__setattr__(self, "variables", vt)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise MultiPolyError("MultiPoly is immutable")

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def zero(variables: Sequence[str]) -> "MultiPoly":
        return MultiPoly(variables, {})

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
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(k == 0 for k in e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise MultiPolyError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def _vidx(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise MultiPolyError(f"{var!r} not among variables {self.variables}") from None

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        i = self._vidx(var)
        return max(e[i] for e in self.terms)

    def coefficient(self, var: str, power: int) -> "MultiPoly":
        """The coefficient of var**power, as a polynomial in the same ring
        (the variable still present with exponent 0)."""
        i = self._vidx(var)
        out = {}
        for e, c in self.terms.items():
            if e[i] == power:
                e2 = e[:i] + (0,) + e[i + 1:]
                out[e2] = out.get(e2, Fraction(0)) + c
        return MultiPoly(self.variables, out)

    def leading_coefficient(self, var: str) -> "MultiPoly":
        d = self.degree(var)
        if d < 0:
            raise MultiPolyError("zero polynomial has no leading coefficient")
        return self.coefficient(var, d)

    def variables_used(self) -> tuple:
        used = set()
        for e in self.terms:
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
        return MultiPoly.constant(other, self.variables)

    def __add__(self, other) -> "MultiPoly":
        o = self._coerce(other)
        out = dict(self.terms)
        for e, c in o.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MultiPoly(self.variables, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            c = _as_fraction(other)
            if c == 0:
                return MultiPoly.zero(self.variables)
            return MultiPoly(self.variables, {e: c * v for e, v in self.terms.items()})
        return MultiPoly(self.variables, _mul_terms(self.terms, self._coerce(other).terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise MultiPolyError("exponent must be a non-negative int")
        result = MultiPoly.constant(1, self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other) -> "MultiPoly":
        # scalar division only; polynomial division is exact_div
        c = _as_fraction(other)
        if c == 0:
            raise ZeroDivisionError("division by zero scalar")
        return self * (Fraction(1) / c)

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.variables == other.variables and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        # a constant compares equal to its value, so it must hash like it
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.variables, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # ------------------------------------------------------------------
    # printing: graded lex, highest first, deterministic

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
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
        for e, c in self.terms.items():
            if e[i] > 0:
                e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
                out[e2] = out.get(e2, Fraction(0)) + c * e[i]
        return MultiPoly(self.variables, out)

    def evaluate(self, values: Mapping[str, Scalar]) -> MultiPoly | Fraction:
        """Plug in rational values for some or all variables.

        Returns a Fraction when every variable that actually occurs is
        assigned, else a MultiPoly on the same variable tuple.
        """
        vals = {k: _as_fraction(v) for k, v in values.items()}
        for k in vals:
            self._vidx(k)
        out = {}
        for e, c in self.terms.items():
            factor = c
            e2 = list(e)
            for name, val in vals.items():
                i = self.variables.index(name)
                if e[i]:
                    factor *= val ** e[i]
                e2[i] = 0
            key = tuple(e2)
            out[key] = out.get(key, Fraction(0)) + factor
        res = MultiPoly(self.variables, out)
        if set(self.variables_used()) <= set(vals):
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
                one = MultiPoly.constant(1, out_vars)
            if den is None:
                den = one
            if num.variables != out_vars or den.variables != out_vars:
                raise MultiPolyError("substitution images disagree on variables")
            if den.is_zero():
                raise MultiPolyError(f"zero denominator in image of {name!r}")
            pairs[name] = (num, den)
        # per variable v of degree d, the row num^k * den^(d-k), k = 0..d; an
        # unassigned variable maps to itself and must exist in the output ring
        rows = []
        clearing = one
        for v in self.variables:
            num, den = pairs.get(v) or (MultiPoly.variable(v, out_vars), one)
            d = max(0, self.degree(v))
            nums = list(accumulate([num] * d, mul, initial=one))
            dens = list(accumulate([den] * d, mul, initial=one))
            clearing = clearing * dens[d]
            rows.append([(a * b).terms for a, b in zip(nums, reversed(dens))])
        unit = (0,) * len(out_vars)
        out = {}
        for e, c in self.terms.items():
            term = {unit: c}
            for row, k in zip(rows, e):
                term = _mul_terms(term, row[k])
            for m, a in term.items():
                out[m] = out[m] + a if m in out else a
        return MultiPoly(out_vars, out), clearing

    # ------------------------------------------------------------------
    # exact division (lex order)

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact polynomial division; raises MultiPolyError if not exact.

        Works by repeatedly cancelling the lex-leading term. Sound as an
        exactness certificate: when f = q*g the lex-leading monomial of f is
        the product of those of q and g, so each step strictly decreases the
        leading monomial and terminates with remainder 0 exactly when the
        division is exact.
        """
        g = self._coerce(divisor)
        if g.is_zero():
            raise MultiPolyError("division by zero polynomial")
        if g.is_constant():
            return self / g.constant_value()
        lead_g = max(g.terms)  # lex order on exponent tuples
        cg = g.terms[lead_g]
        rem = dict(self.terms)
        quo = {}
        while rem:
            lead_r = max(rem)
            diff = tuple(a - b for a, b in zip(lead_r, lead_g))
            if any(d < 0 for d in diff):
                raise MultiPolyError("division is not exact")
            c = rem[lead_r] / cg
            quo[diff] = quo.get(diff, Fraction(0)) + c
            for e, cc in g.terms.items():
                key = tuple(a + b for a, b in zip(diff, e))
                val = rem.get(key, Fraction(0)) - c * cc
                if val == 0:
                    rem.pop(key, None)
                else:
                    rem[key] = val
        return MultiPoly(self.variables, quo)

    # ------------------------------------------------------------------
    # valuations

    def valuation(self, var: str) -> int:
        """Largest k with var**k dividing self; raises on the zero polynomial."""
        if not self.terms:
            raise MultiPolyError("valuation of the zero polynomial")
        i = self._vidx(var)
        return min(e[i] for e in self.terms)

    def shift_down(self, var: str, k: int) -> "MultiPoly":
        """Exact division by var**k (valuation must be >= k)."""
        if k == 0:
            return self
        if self.valuation(var) < k:
            raise MultiPolyError(
                f"cannot divide by {var}^{k}: valuation is {self.valuation(var)}")
        i = self._vidx(var)
        return MultiPoly(self.variables,
                         {e[:i] + (e[i] - k,) + e[i + 1:]: c for e, c in self.terms.items()})

    # ------------------------------------------------------------------
    # content

    def content(self) -> Fraction:
        """gcd of the coefficients as positive rational (0 for the zero poly)."""
        if not self.terms:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = _int_gcd(num, abs(c.numerator))
            den = den * c.denominator // _int_gcd(den, c.denominator)
        return Fraction(num, den)


# ----------------------------------------------------------------------
# dense univariate polynomials over Q
#
# A dense polynomial is a list of Fractions, lowest coefficient first, with
# no trailing zeros; [] is the zero polynomial. gcds, squarefree parts and
# (in numberfield) Sturm chains and field inverses all divide through
# _uni_divmod.


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _deriv(p: Sequence) -> list:
    return [c * k for k, c in enumerate(p)][1:]


def poly_to_dense(f: MultiPoly, var: str) -> list:
    """f as a dense Fraction list in var; raises MultiPolyError when a
    variable other than var occurs in f."""
    i = f._vidx(var)
    out = [Fraction(0)] * (f.degree(var) + 1)
    for e, c in f.terms.items():
        if any(e[:i]) or any(e[i + 1:]):
            raise MultiPolyError(f"{f} is not univariate in {var!r}")
        out[e[i]] = c
    return out


def dense_to_poly(p: Sequence, var: str = "x") -> MultiPoly:
    """Dense list p as a MultiPoly in the single variable var."""
    return _from_dense(p, (var,), var)


def _from_dense(p: Sequence, variables: tuple, var: str) -> MultiPoly:
    """Dense list p in var as a MultiPoly on the given variables."""
    i = variables.index(var)
    head, tail = (0,) * i, (0,) * (len(variables) - i - 1)
    return MultiPoly(variables, {head + (k,) + tail: c for k, c in enumerate(p)})


def _uni_divmod(a: Sequence, b: list) -> tuple:
    """Euclidean quotient and remainder of dense a by dense nonzero b
    over Q."""
    r = _trim(list(a))
    db = len(b) - 1
    lb = b[-1]
    q = [Fraction(0)] * max(0, len(r) - db)
    while len(r) > db:
        c = r.pop() / lb
        shift = len(r) - db
        q[shift] = c
        for j in range(db):
            r[shift + j] -= c * b[j]
        _trim(r)
    return q, r


def _monic(p: list) -> list:
    return [c / p[-1] for c in p] if p else p


def _uni_gcd(a: list, b: list) -> list:
    """Monic gcd of dense a and b, [] when both are zero: Euclid with each
    remainder made monic."""
    a, b = _monic(a), _monic(b)
    while b:
        a, b = b, _monic(_uni_divmod(a, b)[1])
    return a


def squarefree_part(f: MultiPoly, var: str) -> MultiPoly:
    """Monic f / gcd(f, df/dvar) for f univariate in var: the same roots,
    each with multiplicity 1."""
    p = poly_to_dense(f, var)
    if len(p) < 2:
        raise MultiPolyError("squarefree part needs positive degree")
    q, _ = _uni_divmod(p, _uni_gcd(p, _deriv(p)))
    return _from_dense(_monic(q), f.variables, var)


def squarefree_decomposition(f: MultiPoly, var: str) -> list:
    """Yun's algorithm: f = c * prod p_i^i with p_i monic, squarefree and
    pairwise coprime, for f univariate in var.

    Returns a list of (p_i, i) with deg(p_i) >= 1, in increasing i.
    """
    p = poly_to_dense(f, var)
    if len(p) < 2:
        raise MultiPolyError("squarefree decomposition needs positive degree")
    out = []
    a = _uni_gcd(p, _deriv(p))
    b, _ = _uni_divmod(p, a)
    c, _ = _uni_divmod(_deriv(p), a)
    i = 1
    while len(b) > 1:
        d = _trim([u - v for u, v in zip_longest(c, _deriv(b), fillvalue=0)])
        a = _uni_gcd(b, d)
        if len(a) > 1:
            out.append((_from_dense(a, f.variables, var), i))
        b, _ = _uni_divmod(b, a)
        c, _ = _uni_divmod(d, a)
        i += 1
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
    entry, so the specialised resultant is the exact value there. The row
    bound deg_var(g) * deg_p(f) + deg_var(f) * deg_p(g) bounds deg_p of
    the resultant, and Newton interpolation through that many points plus
    one gives it back. When one parameter t is left, each operand is first
    divided by its content c, the primitive gcd in Z[t] of its
    coefficients (checked exact), and res(cA*A, cB*B) =
    cA^deg(B) * cB^deg(A) * res(A, B) multiplies it back. So a factor in t
    shared by all coefficients, such as the t^2*(t-1)^2 of a discriminant
    of the plane family, costs no interpolation points. Once no parameter
    is left, a subresultant remainder sequence over int does the work.

    The result is a MultiPoly in the same ring with var-degree 0. It is
    zero when f and g share a factor of positive degree in var. An operand
    of var-degree 0 gives that operand to the power of the other's degree.
    """
    if f.variables != g.variables:
        raise MultiPolyError("resultant operands must share a variable tuple")
    vt = f.variables
    if f.is_zero() or g.is_zero():
        return MultiPoly.zero(vt)
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
              and any(e[k] for p in (f, g) for e in p.terms)]
    cf, cg = f.content(), g.content()
    r = _res_params(_integer_rows(f, i, m, params, cf),
                    _integer_rows(g, i, n, params, cg), len(params))
    scale = sign * cf ** n * cg ** m
    out = {}
    for pe, c in r.items():
        e = [0] * len(vt)
        for k, d in zip(params, pe):
            e[k] = d
        out[tuple(e)] = c * scale
    return MultiPoly(vt, out)


def _integer_rows(f: MultiPoly, i: int, deg: int, params: list,
                  content: Fraction) -> list:
    """f / content as a dense list in variable i, of degree deg, with
    entries {param exponents: int}."""
    rows = [{} for _ in range(deg + 1)]
    for e, c in f.terms.items():
        rows[e[i]][tuple(e[k] for k in params)] = (c / content).numerator
    return rows


def _res_params(A: list, B: list, k: int) -> dict:
    """Resultant of A and B (deg A >= deg B >= 1, nonzero leading
    coefficients) as {exponents of the k parameters: int}."""
    if k == 0:
        r = _res_int([c.get((), 0) for c in A], [c.get((), 0) for c in B])
        return {(): r} if r else {}
    if k > 1:
        return _res_interpolate(A, B, k)
    # One parameter t is left: res(cA*A', cB*B') = cA^deg B * cB^deg A *
    # res(A', B'), so only the resultant of the primitive parts A', B' is
    # interpolated, through fewer points.
    A, ca = _divide_content(A)
    B, cb = _divide_content(B)
    scale = {(0,): 1}
    for c, n in ((ca, len(B) - 1), (cb, len(A) - 1)):
        for _ in range(n):
            scale = _mul_terms(scale, c)
    out = _res_interpolate(A, B, 1)
    if scale != {(0,): 1}:
        out = {e: v for e, v in _mul_terms(out, scale).items() if v}
    return out


def _res_interpolate(A: list, B: list, k: int) -> dict:
    """_res_params for k >= 1: interpolate in the last parameter through
    the resultants at integer points where neither leading coefficient
    vanishes."""
    bound = ((len(B) - 1) * max(e[-1] for c in A for e in c)
             + (len(A) - 1) * max(e[-1] for c in B for e in c))
    xs, values = [], []
    x = 0
    while len(xs) <= bound:
        Ax = [_evaluate_last(c, x) for c in A]
        Bx = [_evaluate_last(c, x) for c in B]
        if Ax[-1] and Bx[-1]:
            xs.append(x)
            values.append(_res_params(Ax, Bx, k - 1))
        x = -x if x > 0 else 1 - x
    out = {}
    for key in set().union(*values):
        for d, c in enumerate(_interpolate(xs, [v.get(key, 0) for v in values])):
            if c:
                out[key + (d,)] = c
    return out


def _divide_content(A: list) -> tuple:
    """(A / c, c) for A a polynomial over Z[t], entries {(e,): int}, and c
    its content: the primitive gcd in Z[t] of its nonzero coefficients, with
    positive leading coefficient, in the same form as the entries."""
    dense = [_dense_int(c) for c in A if c]
    g = _primitive(min(dense, key=len))
    for p in dense:
        if len(g) == 1:
            break
        if _zt_divide(p, g) is None:
            g = _zt_gcd(g, p)
    if g == [1]:
        return A, {(0,): 1}
    out = []
    for row in A:
        q = _zt_divide(_dense_int(row), g) if row else []
        if q is None:
            raise MultiPolyError("internal: inexact division in resultant")  # pragma: no cover
        out.append({(d,): v for d, v in enumerate(q) if v})
    return out, {(d,): v for d, v in enumerate(g) if v}


def _dense_int(c: dict) -> list:
    """{(e,): int} as a dense int list, lowest coefficient first."""
    p = [0] * (max(e for e, in c) + 1)
    for (e,), v in c.items():
        p[e] = v
    return p


def _primitive(p: list) -> list:
    """Dense nonzero int p divided by the gcd of its coefficients, with the
    sign that makes its leading coefficient positive."""
    g = _int_gcd(*p)
    if p[-1] < 0:
        g = -g
    return [v // g for v in p]


def _zt_divide(a: list, b: list):
    """a / b for dense int a and primitive b, or None when b does not divide
    a in Z[t] (by Gauss's lemma, nor then in Q[t])."""
    r = list(a)
    db = len(b) - 1
    q = [0] * (len(r) - db)
    for shift in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[shift + db], b[-1])
        if rem:
            return None
        q[shift] = c
        for j in range(db + 1):
            r[shift + j] -= c * b[j]
    return None if any(r) else q


def _zt_gcd(a: list, b: list) -> list:
    """Primitive gcd, positive leading coefficient, of dense nonzero int a
    and b: the primitive remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _uni_pseudo_rem(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _evaluate_last(c: dict, x: int) -> dict:
    """Set the last parameter of c to x."""
    out = {}
    for e, v in c.items():
        key = e[:-1]
        out[key] = out.get(key, 0) + v * x ** e[-1]
    return {e: v for e, v in out.items() if v}


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
            c[i] = _exact(c[i] - c[i - 1], xs[i] - xs[i - j])
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
        A, B = B, [_exact(c, denom) for c in R]
        g = A[-1]
        if delta:
            h = _exact(g ** delta, h ** (delta - 1))
        if len(B) == 1:
            m = len(A) - 1
            return sign * _exact(B[0] ** m, h ** (m - 1))


def _uni_pseudo_rem(A: list, B: list) -> list:
    """Pseudo-remainder lc(B)^(deg A - deg B + 1) * A mod B of dense int
    polynomials, lowest coefficient first.

    When a subtraction kills more than one leading term the loop runs fewer
    times than deg A - deg B + 1; the remainder is then scaled by the
    leftover power of lc(B) so the result is the true pseudo-remainder.
    """
    r = list(A)
    dB = len(B) - 1
    lb = B[-1]
    left = len(r) - dB
    while len(r) > dB:
        lead = r.pop()
        shift = len(r) - dB
        r = [c * lb for c in r]
        for j in range(dB):
            r[shift + j] -= lead * B[j]
        _trim(r)
        left -= 1
    if r and left > 0:
        s = lb ** left
        r = [c * s for c in r]
    return r


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

"""Dense univariate polynomials over the integers: the one dense core.

A dense polynomial is a list of coefficients, lowest first, with no
trailing zeros; [] is the zero polynomial. The routines run on int lists;
`_int_dense` clears the denominators of a list of Fractions. `_prs` is the
one signed primitive remainder sequence of the package: the gcd is its last
term made primitive (by Gauss's lemma a primitive gcd divides exactly in
Z[t], so every quotient here is checked exact), and `numberfield` reads the
whole sequence of p and p' as the Sturm chain of p. `multipoly` builds its
squarefree decomposition and resultants on these routines, and
`numberfield` its minimal polynomials too; this module imports nothing
from the package, so a number field loads no polynomial ring.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd, lcm


def _power(base, n: int, one):
    """base ** n for an int n >= 0 by repeated squaring, with `one` the unit
    of base's ring; the one power loop of the package (MultiPoly, number
    field elements and quaternions)."""
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def _int_dense(p: Sequence) -> tuple:
    """(numerators, den): the Fractions p as integers over their least
    positive common denominator."""
    den = lcm(*(c.denominator for c in p))
    return [c.numerator * (den // c.denominator) for c in p], den


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _deriv(p: Sequence) -> list:
    return [c * k for k, c in enumerate(p)][1:]


def _primitive(p: list) -> list:
    """Dense nonzero int p divided by the gcd of its coefficients, with the
    sign that makes its leading coefficient positive."""
    g = gcd(*p)
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
    """Primitive gcd, positive leading coefficient, of dense int a and b,
    [] when both are zero: the last term of their remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return _primitive(a) if a else []
    return _primitive(_prs(_primitive(a), _primitive(b))[-1])


def _prs(a: list, b: list) -> list:
    """The signed primitive remainder sequence a, b, r_2, ... of dense int
    a and b, deg a >= deg b: r_k is a positive multiple in Z[t] of
    -rem(r_(k-2), r_(k-1)), the pseudo-remainder over minus the gcd of its
    coefficients, the sign flipped when lc^(deg + 1) < 0. It stops at a
    constant or before a zero remainder, so its last term is the gcd up to
    a constant; for a squarefree p, _prs(p, p') is the Sturm chain of p."""
    chain = [a, b]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r = _uni_pseudo_rem(a, b)
        if not r:
            break
        g = gcd(*r)
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            g = -g
        chain.append([c // g for c in r])
    return chain


def _zt_squarefree(p: list) -> list:
    """p / gcd(p, p') for dense int p of positive degree, exact in Z[t]
    (Gauss's lemma): the same roots, each once."""
    return _zt_divide(p, _zt_gcd(p, _deriv(p)))


def _uni_pseudo_rem(A: list, B: list) -> list:
    """Pseudo-remainder lc(B)^(deg A - deg B + 1) * A mod B of dense int
    polynomials, lowest coefficient first.

    Each step takes the leading term off r in place, r <- lb * r - lead *
    B * t^shift: the entries below the shift are only scaled, and no
    shifted copy of B is built. When a subtraction kills more than one
    leading term the loop runs fewer times than deg A - deg B + 1; the
    remainder is then scaled by the leftover power of lc(B) so the result
    is the true pseudo-remainder.
    """
    r = list(A)
    dB = len(B) - 1
    lb = B[-1]
    low = B[:-1]
    left = len(r) - dB
    while len(r) > dB:
        lead = r.pop()
        shift = len(r) - dB
        for i in range(shift):
            r[i] *= lb
        for j, b in enumerate(low, shift):
            r[j] = r[j] * lb - lead * b
        _trim(r)
        left -= 1
    if r and left > 0:
        s = lb ** left
        r = [c * s for c in r]
    return r

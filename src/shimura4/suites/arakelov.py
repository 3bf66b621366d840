"""The arakelov suite: the local weights of the Hodge bundle at t = 0, 1,
infinity and the degree identity against the triangle stack, for both
families."""

from __future__ import annotations

from fractions import Fraction as F

from .. import families
from ..report import Check, Suite


def suite_arakelov(opts) -> Suite:
    expected = {
        7: {"hyperelliptic-at-0": F(-6), "hyperelliptic-at-1": F(-9, 7),
            "hyperelliptic-at-infinity": F(22, 3)},
        9: {"plane-at-0": F(-6), "plane-at-1": F(-29, 9),
            "plane-at-infinity": F(28, 3)},
    }
    degrees = {7: (F(1, 42), F(1, 84)), 9: (F(1, 18), F(1, 36))}
    identity = "2 * hodge degree == 4 * stack degree"
    checks = []
    for n in (7, 9):
        try:
            rep = families.arakelov_check(n)
        except families.VerificationError as e:
            checks.append(Check.predicate(f"degree-identity-{n}", False, identity, str(e)))
            continue
        checks += [Check.equal(f"weight-{n}-{name}", expected[n][name], c)
                   for name, c in rep.contributions]
        checks += [
            Check.equal(f"hodge-degree-{n}", degrees[n][0], rep.degree),
            Check.equal(f"stack-degree-{n}", degrees[n][1], rep.stack_degree),
            Check.predicate(f"degree-identity-{n}", rep.equal, identity,
                            f"{rep.lhs} == {rep.rhs}"),
        ]
    return Suite("arakelov", tuple(checks))

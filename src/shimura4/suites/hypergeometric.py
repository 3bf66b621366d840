"""The hypergeometric suite: local exponents, invariant counts, duality
and the unit sums of the cyclic covers behind the two families."""

from __future__ import annotations

from .. import hypergeom
from ..report import Check, Suite


def suite_hypergeometric(opts) -> Suite:
    exp = {7: (13, 29, 43, 83), 9: (5, 13, 19, 35)}
    counts = {7: {0: 8, 1: 8, 2: 8}, 9: {0: 4, 1: 4, 2: 4}}
    stab = {7: (1, 41, 55, 71), 9: (1, 17)}
    sums = {7: (24, 83), 9: (12, 35)}
    checks = []
    for n in (7, 9):
        d = hypergeom.hypergeometric_data(n)
        checks += [
            Check.equal(f"exponents-{n}", exp[n], d.exponents),
            Check.equal(f"derived-exponent-{n}", d.level - 1, d.exponents[3]),
            Check.equal(f"invariant-counts-{n}", counts[n],
                        hypergeom.invariant_counts(d)),
            Check.predicate(f"duality-{n}", hypergeom.duality_holds(d),
                            "d(N-i) = 2 - d(i) over all units", "holds"),
            Check.equal(f"stabilizer-{n}", stab[n], hypergeom.stabilizer(d)),
            Check.equal(f"unit-sum-{n}", sums[n][0], hypergeom.unit_sum(d)),
            Check.equal(f"full-sum-{n}", sums[n][1], hypergeom.full_sum(d)),
        ]
    return Suite("hypergeometric", tuple(checks))

"""The disc7 suite: the discriminant of the hyperelliptic family c7."""

from __future__ import annotations

from fractions import Fraction as F

from .. import families
from ..intfactor import factorization_string
from ..report import GIVEN, Check, Suite


def suite_disc7(opts) -> Suite:
    rep = families.c7_discriminant()
    smooth_ok = (not families.is_smooth_fiber_c7(0)
                 and not families.is_smooth_fiber_c7(1)
                 and all(families.is_smooth_fiber_c7(t)
                         for t in (2, -1, F(1, 2), F(27, 16))))
    return Suite("disc7", (
        Check.equal("t-valuation", 54, rep.t_valuation),
        Check.equal("t-minus-1-valuation", 12, rep.t1_valuation),
        Check.equal("model-constant-factorization", "2^20*3^36*7^10",
                    factorization_string(dict(rep.constant_factors))),
        Check.equal("curve-constant-factorization", "2^36*3^36*7^10",
                    factorization_string(dict(rep.curve_constant_factors)),
                    citation=GIVEN + "; model constant times 2^16 = 2^(4g)"),
        Check.predicate("singular-fibers-exactly-0-1", smooth_ok,
                        "vanishing only at t = 0, 1",
                        "checked at 0, 1, 2, -1, 1/2, 27/16"),
    ))

"""The quaternion suite: the (2, 3, n) rotation triples of the quaternion
algebras over Q(2 cos(pi/n)), their orders, split places and traces."""

from __future__ import annotations

import math
from fractions import Fraction as F

from ..numberfield import isolate_real_roots, minpoly_2cos, refine_interval
from ..quaternion import uniformizer_triple
from ..report import RECOMPUTED, Check, Suite


def _decimal(k: int, digits: int) -> str:
    """k / 10^digits written out with all its digits."""
    q, r = divmod(abs(k), 10 ** digits)
    return f"{'-' if k < 0 else ''}{q}.{r:0{digits}d}"


def _trace_check(trip, precision: int) -> Check:
    """matrix-trace-n, exactly: at the split place 0, delta_r has trace
    sigma_0(trd delta_r), and that is 2 cos(pi/n), the largest root of g =
    minpoly_2cos(2n), when trd(delta_r) = -v, g(-v) = 0 in K, and
    sigma_0(-v) lies above g's second-largest root."""
    n = trip.n
    K = trip.algebra.field
    minus_v = -K.gen()
    g = minpoly_2cos(2 * n)
    *_, (_, second_hi), (lo, hi) = isolate_real_roots(g)
    facts = {
        "trd(delta_r) = -v": trip.delta_r.reduced_trace() == minus_v,
        "g(-v) = 0": sum((c * minus_v ** k for k, c in enumerate(g)),
                          K.zero()).is_zero(),
        "sigma_0(-v) above the second root of g":
            (minus_v - second_hi).sign_at_embedding(0) > 0,
    }
    failed = [fact for fact, ok in facts.items() if not ok]
    if failed:
        actual = "not shown: " + "; ".join(failed)
    else:
        # once sigma_0(-v) is known to be g's largest root, its enclosure is
        # refined on g's own isolating interval: sigma_0(-v) is a root of g,
        # not of the field's minimal polynomial, whose roots the field's
        # intervals isolate
        digits = precision + 1
        lo, hi = refine_interval(g, lo, hi, F(1, 10 ** digits))
        actual = (f"sigma_0(-v) in [{_decimal(math.floor(lo * 10 ** digits), digits)}, "
                  f"{_decimal(math.ceil(hi * 10 ** digits), digits)}]")
    return Check.predicate(
        f"matrix-trace-{n}", not failed,
        f"trd(delta_r) = -v and sigma_0(-v) = 2 cos(pi/{n}), the largest "
        f"root of minpoly_2cos({2 * n})", actual)


def suite_quaternion(opts) -> Suite:
    checks = []
    for n in (7, 9):
        trip = uniformizer_triple(n)
        alg = trip.algebra
        one = alg.one()
        fone = alg.field.one()
        dp, dq, dr = trip.delta_p, trip.delta_q, trip.delta_r
        nu = alg.field.gen()
        ok = (dp * dp == -one and dq * dq * dq == -one
              and dr * dq * dp == one and dr ** n == -one
              and dr * dr + (dr * nu) + one == alg.zero()
              and dq.reduced_trace() == fone and dq.reduced_norm() == fone)
        orders = (dp.projective_order(), dq.projective_order(),
                  dr.projective_order())
        checks += [
            Check.predicate(f"defining-identities-{n}", bool(ok),
                            "six exact identities hold",
                            "verified in exact arithmetic"),
            Check.equal(f"projective-orders-{n}", (2, 3, n), orders),
            Check.equal(f"split-places-{n}", [0], alg.split_real_places(),
                        citation=RECOMPUTED + "; index 0 is the most "
                        "negative embedding of the generator"),
            _trace_check(trip, opts.precision),
        ]
    return Suite("quaternion", tuple(checks))

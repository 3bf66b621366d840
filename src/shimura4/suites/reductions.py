"""The reductions7 and reductions9 suites: each reduction plan of the two
families, run and matched against its stated special fiber, and the
recorded facts about the fiber at t = 1."""

from __future__ import annotations

from fractions import Fraction as F

from .. import families, reductions
from ..report import FLAGGED, GIVEN, Check, Suite

# the paper's model of the elliptic piece of the t = 1 fiber:
# y^2 = x^3 + T1_TARGET_P x + T1_TARGET_Q
T1_TARGET_P = F(-45, 28)
T1_TARGET_Q = F(27, 28)


def _plan_checks(plan, square_scalar=None) -> list:
    """The checks of one run of a reduction plan: `<name>-square-scalar`
    first when a square scalar is expected, then the match."""
    try:
        rep = reductions.apply_reduction(plan)
    except reductions.VerificationError as e:
        square = Check(f"{plan.name}-square-scalar", "fail", str(square_scalar), str(e))
        match = Check(f"{plan.name}-match", "fail", "verified reduction", str(e))
    else:
        square = Check.equal(f"{plan.name}-square-scalar", square_scalar,
                             rep.square_scalar)
        match = _match_check(plan, rep)
    return [match] if square_scalar is None else [square, match]


def _match_check(plan, rep) -> Check:
    kind = rep.match[0]
    if kind == "twist":
        _, c, lam = rep.match
        return Check.predicate(
            f"{plan.name}-match", True,
            f"equals c * target(lambda x) for rational c, lambda; "
            f"target {plan.expected}",
            f"c = {c}, lambda = {lam}")
    if kind == "proportional":
        _, r = rep.match
        return Check.predicate(
            f"{plan.name}-match", True,
            f"proportional to target {plan.expected}", f"ratio = {r}")
    # display-gap: verified up to the documented deviation
    _, scale, w_ratio = rep.match
    return Check(f"{plan.name}-display", FLAGGED,
                 f"given display {plan.expected}",
                 f"computed {rep.reduced}; W-free part matches at scale "
                 f"{scale}, W^3 ratio {w_ratio} (no rational cube root of "
                 f"{w_ratio}/{scale}); same curve over the closure",
                 citation=GIVEN)


def suite_reductions7(opts) -> Suite:
    checks = [c for plan in reductions.reduction_plans(7) for c in _plan_checks(plan)]
    split = families.t1_fiber_split_c7()
    e = split.elliptic
    target_j = families.j_invariant_depressed(T1_TARGET_P, T1_TARGET_Q)
    twist = families.quadratic_twist_factor(e.cubic_p, e.cubic_q, T1_TARGET_P, T1_TARGET_Q)
    checks += [
        Check.equal("t1-multiplicity-structure", [1, 7], sorted(split.multiplicities)),
        Check.equal("t1-elliptic-j-invariant", F(-3375), e.j, citation=GIVEN),
        Check.equal("t1-elliptic-target-j", target_j, e.j),
        Check.equal("t1-elliptic-twist-constant", F(-7, 16), twist),
    ]
    return Suite("reductions7", tuple(checks))


def suite_reductions9(opts) -> Suite:
    plan0, *plans = reductions.reduction_plans(9)
    checks = _plan_checks(plan0, square_scalar=F(-9))
    for plan in plans:
        checks += _plan_checks(plan)
    checks += [
        Check("ramification-degree-at-1", FLAGGED,
              "7 (given)",
              "9 (executed: two stacked degree-3 base changes)",
              citation=GIVEN),
        Check("plane-family-discriminant", FLAGGED,
              "2^72*3^34*t^52*(t-1)^28",
              "recorded only; no independent plane-model discriminant "
              "computation in this package",
              citation=GIVEN),
    ]
    return Suite("reductions9", tuple(checks))

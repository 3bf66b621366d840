"""Helpers shared by several test modules. Not a test module itself, so
pytest collects nothing here; the test modules import it by name."""

from fractions import Fraction as F

from shimura4.families import apply_reduction, reduction_plans
from shimura4.numberfield import _eval, refine_interval


def with_fields(record, **changes):
    """A record of the same type with some fields changed, built from the
    fields of the given one."""
    values = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**values, **changes})


def embedding_interval(el, index, width):
    """Exact enclosure of el at the index-th real embedding, at most width
    wide: the field's isolating interval of that root, bisected until the
    interval image of el is narrow enough."""
    K = el.field
    lo, hi = K._roots[index]
    while True:
        vlo, vhi = el._interval_eval(lo, hi)
        if vhi - vlo <= width:
            return vlo, vhi
        lo, hi = refine_interval(K._dense, lo, hi, (hi - lo) / 2 if hi > lo else F(1))
        if lo == hi:
            v = _eval(list(el.coords), lo)
            return v, v


def c9_fiber_components_t1():
    """Reduction reports for both components of the second family at t = 1."""
    plans = reduction_plans(9)
    return apply_reduction(plans[1]), apply_reduction(plans[2])

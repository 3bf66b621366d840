"""The record contract shared by every record type of the package."""

import pytest

from shimura4.hypergeom import HypergeomError, HypergeometricData
from shimura4.multipoly import MultiPoly
from shimura4.numberfield import NumberField, NumberFieldError
from shimura4.quaternion import QuaternionAlgebra, QuaternionError
from shimura4.reductions import DivideStep, SquareCheck
from shimura4.record import Record
from shimura4.report import PASS, RECOMPUTED, Check, Suite, VerificationReport


class Pair(Record):
    left: int
    right: int = 0


class OtherPair(Record):
    left: int
    right: int = 0


class Triple(Pair):
    third: str = "c"


def test_fields_in_order_with_defaults():
    assert Pair._fields == ("left", "right")
    assert Pair(1) == Pair(1, 0) == Pair(left=1) == Pair(right=0, left=1)
    assert (Pair(1, 2).left, Pair(1, 2).right) == (1, 2)
    assert Triple._fields == ("left", "right", "third")
    assert Triple(1, third="z") == Triple(1, 0, "z")
    assert Check("a", PASS, "1", "1").citation == RECOMPUTED


def test_equality_depends_on_the_type():
    assert Pair(1, 2) == Pair(1, 2)
    assert Pair(1, 2) != Pair(2, 1)
    assert Pair(1, 2) != OtherPair(1, 2)
    assert Pair(1, 0) != Triple(1, 0)
    assert Pair(1, 2) != (1, 2)
    assert (1, 2) != Pair(1, 2)
    assert DivideStep("x", 10) != ("x", 10)
    assert DivideStep("x", 10) == DivideStep("x", 10)


def test_hash_agrees_with_equality():
    assert hash(Pair(1, 2)) == hash(Pair(left=1, right=2))
    assert len({Pair(1, 2), Pair(1, 2), Pair(2, 1), OtherPair(1, 2)}) == 3
    t = MultiPoly.variable("t", ("t",))
    a, b = SquareCheck("t", t + 1), SquareCheck("t", 1 + t)
    assert a == b and hash(a) == hash(b)
    c = Check("a", PASS, "1", "1")
    assert {c: 1}[Check("a", PASS, "1", "1", RECOMPUTED)] == 1


def test_assignment_raises():
    p = Pair(1, 2)
    with pytest.raises(AttributeError):
        p.left = 3
    with pytest.raises(AttributeError):
        p.extra = 3
    with pytest.raises(AttributeError):
        del p.right
    assert p == Pair(1, 2)
    c = Check("a", PASS, "1", "1")
    with pytest.raises(AttributeError):
        c.status = "fail"


@pytest.mark.parametrize("args,kwargs,message", [
    ((), {}, "missing field 'left'"),
    ((), {"right": 2}, "missing field 'left'"),
    ((1,), {"middle": 2}, "no field 'middle'"),
    ((1, 2, 3), {}, "takes 2 fields, 3 given"),
    ((1,), {"left": 1}, "field 'left' twice"),
])
def test_bad_construction_raises_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Pair(*args, **kwargs)


def test_repr_names_each_field():
    assert repr(Pair(1, 2)) == "Pair(left=1, right=2)"
    assert repr(Triple(1, third="z")) == "Triple(left=1, right=0, third='z')"
    assert repr(DivideStep("x", 10)) == "DivideStep(var='x', power=10)"


def test_suites_and_reports_are_built_from_tuples():
    a, b = Suite("a", (Check("x", PASS, "1", "1"),)), Suite("b", ())
    assert a.checks == (Check("x", PASS, "1", "1"),) and b.checks == ()
    r1, r2 = VerificationReport("0", (a,)), VerificationReport("0", ())
    assert r1.suites == (a,) and r2.suites == ()
    assert Suite("a", (Check("x", PASS, "1", "1"),)) == a
    with pytest.raises(AttributeError):
        a.checks = ()


def _bad_algebra():
    K = NumberField([-1, 1], "r")
    return QuaternionAlgebra(K, K.zero(), K.one())


def _bad_field(row):
    return lambda: NumberField(row)


@pytest.mark.parametrize("build,error", [
    (lambda: Check("a", "maybe", "1", "1"), ValueError),
    (_bad_field([-3, 0, 2]), NumberFieldError),                      # not monic
    (_bad_field([1, 0, 1]), NumberFieldError),                       # not totally real
    (_bad_field([1]), NumberFieldError),                             # constant
    (_bad_algebra, QuaternionError),                                 # a = 0
    (lambda: HypergeometricData(1, (1, 1, 1, 1)), HypergeomError),   # level
    (lambda: HypergeometricData(12, (1, 2, 9)), HypergeomError),     # three exponents
    (lambda: HypergeometricData(12, (0, 2, 3, 7)), HypergeomError),  # out of range
    (lambda: HypergeometricData(12, (1, 2, 3, 4)), HypergeomError),  # sum
])
def test_post_init_validators_still_refuse(build, error):
    with pytest.raises(error):
        build()


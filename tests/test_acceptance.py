"""Acceptance gate. Each criterion is one test that prints a visible
pass/fail line even under pytest's capture, and pins its own time budget
where one applies. All arithmetic checks are exact."""

import random
import time
from fractions import Fraction as F

import test_properties as props
from _helpers import c9_fiber_components_t1

from shimura4.cmtables import load_table, verify_table
from shimura4.families import (
    T1_TARGET_P,
    T1_TARGET_Q,
    c7_discriminant,
    c7_family,
    t1_fiber_split_c7,
)
from shimura4.hypergeom import (
    duality_holds,
    hypergeometric_data,
    invariant_table,
    mu_triple,
    stabilizer,
    unit_sum,
)
from shimura4.multipoly import discriminant
from shimura4.quaternion import uniformizer_triple
from shimura4.reductions import apply_reduction, arakelov_check, reduction_plans


def _announce(capsys, label, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"\n[FAIL] {label}")
        raise
    with capsys.disabled():
        print(f"\n[PASS] {label}")


def test_criterion_1_discriminant_shape(capsys):
    def body():
        t0 = time.perf_counter()
        d = discriminant(c7_family(), "x")
        elapsed = time.perf_counter() - t0
        rep = c7_discriminant()
        assert d.valuation("t") == 54
        assert rep.t_valuation == 54
        assert rep.t1_valuation == 12
        assert set(dict(rep.constant_factors)) <= {2, 3, 7}
        assert dict(rep.constant_factors)[3] == 36
        assert dict(rep.constant_factors)[7] == 10
        assert rep.curve_constant == 2 ** 36 * 3 ** 36 * 7 ** 10
        assert elapsed < 30.0, f"discriminant took {elapsed:.1f}s"

    _announce(capsys, "1. degree-10 family discriminant: "
                      "c * t^54 (t-1)^12 with the pinned constant", body)


def test_criterion_2_all_six_reductions(capsys):
    def body():
        p7 = {p.name: apply_reduction(p) for p in reduction_plans(7)}
        assert p7["hyperelliptic-at-0"].match == ("twist", F(-567, 64), F(1))
        assert p7["hyperelliptic-at-1"].match == ("twist", F(-1152), F(1))
        assert p7["hyperelliptic-at-infinity"].match == ("twist", F(1), F(1))

        split = t1_fiber_split_c7()
        assert sorted(m for _, m in split.multiplicities) == [1, 7]
        assert split.elliptic.j == F(-3375) == split.elliptic.target_j
        assert split.elliptic.target_p == T1_TARGET_P
        assert split.elliptic.target_q == T1_TARGET_Q

        p9 = {p.name: apply_reduction(p) for p in reduction_plans(9)}
        assert p9["plane-at-0"].square_scalar == F(-9)
        assert p9["plane-at-0"].match == ("twist", F(-1, 3), F(1))
        assert p9["plane-at-infinity"].match == ("proportional", F(1))

        first, second = c9_fiber_components_t1()
        # first component: cube-free part proportional at scale 7, cube
        # term off by 3/7, so the equations agree after rescaling the
        # degree-3 variable by a real cube root of 3/7
        assert first.match == ("display-gap", F(7), F(3))
        assert second.match == ("proportional", F(1))

    _announce(capsys, "2. all six degenerate fibers match the expected "
                      "reduced equations (one needing an irrational "
                      "coordinate scale, flagged)", body)


def test_criterion_3_degree_identity(capsys):
    def body():
        expected = {7: ([F(-6), F(-9, 7), F(22, 3)], F(1, 42), F(1, 84)),
                    9: ([F(-6), F(-29, 9), F(28, 3)], F(1, 18), F(1, 36))}
        for n, (contribs, degree, stack_degree) in expected.items():
            rep = arakelov_check(n)
            assert [c for _, c in rep.contributions] == contribs
            assert rep.degree == degree
            assert rep.stack_degree == stack_degree
            assert rep.lhs == rep.rhs
            assert rep.equal
            for idx in range(len(rep.contributions)):
                total = sum((c for i, (_, c) in enumerate(rep.contributions)
                             if i != idx), F(0))
                total += rep.contributions[idx][1] + F(1, 1000)
                assert 2 * (total / 2) != 4 * rep.stack_degree

    _announce(capsys, "3. local weights sum to twice the stack degree "
                      "identity, and any mutation breaks it", body)


def test_criterion_4_quaternionic_generators(capsys):
    def body():
        for n in (7, 9, 11):
            trip = uniformizer_triple(n)
            alg = trip.algebra
            dp, dq, dr = trip.delta_p, trip.delta_q, trip.delta_r
            orders = (dp.projective_order(), dq.projective_order(),
                      dr.projective_order())
            assert orders == (2, 3, n)
            assert dr * dq * dp == alg.one()
            fone = alg.field.one()
            assert dq.reduced_norm() == fone
            assert dq.reduced_trace() == fone
            assert alg.split_real_places() == [0]

    _announce(capsys, "4. quaternionic rotation triples for n = 7, 9, 11: "
                      "orders (2, 3, n), product 1, one split place", body)


def test_criterion_5_eigenspace_tables(capsys):
    def body():
        assert mu_triple(7) == (F(13, 84), F(29, 84), F(43, 84))
        assert mu_triple(9) == (F(5, 36), F(13, 36), F(19, 36))
        data = hypergeometric_data(7)
        table = invariant_table(data)
        assert len(table) == 24
        assert {i for i, v in table.items() if v == 1} == \
            {1, 13, 29, 41, 43, 55, 71, 83}
        assert {i for i, v in table.items() if v == 2} == \
            {5, 11, 17, 19, 23, 25, 31, 37}
        assert {i for i, v in table.items() if v == 0} == \
            {47, 53, 59, 61, 65, 67, 73, 79}
        assert duality_holds(data)
        assert duality_holds(hypergeometric_data(9))
        assert unit_sum(data) == 24
        assert stabilizer(data) == (1, 41, 55, 71)

    _announce(capsys, "5. exponent triples, all 24 eigenspace dimensions "
                      "mod 84, duality, sum 24, stabilizer", body)


def test_criterion_6_cm_tables(capsys):
    def body():
        t0 = time.perf_counter()
        for n, rows in ((7, 38), (9, 20)):
            rep = verify_table(load_table(n))
            assert rep.row_count == rows
            assert rep.expected_row_count == rows
            assert all(f.ok for f in rep.findings)
            assert not rep.duplicates
            assert len(load_table(n).rows) == rows
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"table verification took {elapsed:.1f}s"

    _announce(capsys, "6. all 38 + 20 field rows parse, refactor, and "
                      "satisfy the exponent constraints", body)


def test_criterion_7_property_suites(capsys):
    def body():
        props.test_resultant_is_multiplicative()
        props.test_substitution_is_a_ring_map()
        props.test_quaternion_algebra_identities()
        props.test_exact_signs_agree_with_floats()
        props.test_rotation_relation_for_random_hyperbolic_triples()
        props.test_trace_spectra_agree_exhaustively_to_length_4()
        rng = random.Random(2024)
        seqs = [tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4)))
                for _ in range(50)]
        for n in (7, 9):
            for tg, tq in props._word_traces(n, seqs):
                assert abs(tg - tq) < 1e-6

    _announce(capsys, "7. randomized property suites, >= 100 fixed-seed "
                      "instances each", body)

"""Factorization helpers used by the table checks."""

import pytest

from shimura4.intfactor import (
    factor_integer,
    factorization_string,
    is_probable_prime,
    parse_factorization,
    recompose,
)


def test_small_and_known_values():
    assert factor_integer(1) == ({}, True)
    assert factor_integer(2 ** 10) == ({2: 10}, True)
    assert factor_integer(360) == ({2: 3, 3: 2, 5: 1}, True)


def test_table_sized_values():
    f, cert = factor_integer(7834003547041)
    assert f == {7: 4, 239: 4}
    assert cert
    f, cert = factor_integer(166726039041)
    assert f == {3: 8, 71: 4}
    assert cert


def test_fourth_power_of_large_prime():
    p = 4663
    f, cert = factor_integer(7 ** 4 * p ** 4)
    assert f == {7: 4, p: 4}
    assert cert


def test_primality_small():
    primes = [2, 3, 5, 7, 11, 239, 251, 4663, 2843, 71]
    for p in primes:
        assert is_probable_prime(p)
    for c in [1, 4, 9, 239 * 251, 2 ** 31 - 1 + 2]:
        assert not is_probable_prime(c)


def test_semiprime():
    p, q = 1000003, 1000033
    f, cert = factor_integer(p * q)
    assert f == {p: 1, q: 1}
    assert cert


def test_cofactor_rho_does_not_split_comes_back_unsplit_and_uncertified():
    # two primes near 2**45 and 2**46 take rho about 2**22 steps, past its
    # budget: the product comes back whole, as a factor but not as a proven
    # prime, and the result is uncertified
    p, q = 35184372088891, 70368744177679
    assert is_probable_prime(p) and is_probable_prime(q)
    assert factor_integer(7 ** 2 * p * q) == ({7: 2, p * q: 1}, False)


def test_recompose_and_strings():
    f = {7: 4, 239: 4}
    assert recompose(f) == 7834003547041
    assert factorization_string(f) == "7^4*239^4"
    assert parse_factorization("7^4*239^4") == f
    assert parse_factorization("3^8*71^4") == {3: 8, 71: 4}
    assert parse_factorization("1") == {}
    assert factorization_string({2: 1, 3: 1}) == "2*3"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_factorization("7^0")
    with pytest.raises(ValueError):
        parse_factorization("1^4*5")


def test_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        factor_integer(0)


def test_products_of_primes_in_the_trial_range():
    # primes from 1000 to 100 000 are found by trial division, whatever the
    # wheel it steps over; the result is certified and recomposes
    import random
    sieve = bytearray([1]) * 100_000
    sieve[:2] = b"\0\0"
    for p in range(2, 317):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    primes = [p for p in range(1000, 100_000) if sieve[p]]
    rng = random.Random(30)
    for _ in range(60):
        want = {}
        for p in rng.sample(primes, rng.randint(1, 3)):
            want[p] = rng.randint(1, 4)
        for p in rng.sample([2, 3, 5, 7, 11, 13], rng.randint(0, 2)):
            want[p] = rng.randint(1, 3)
        assert factor_integer(recompose(want)) == (dict(sorted(want.items())), True)
    assert factor_integer(99_991 * 99_989) == ({99_989: 1, 99_991: 1}, True)


def test_perfect_powers_split_before_trial_division():
    # a power of a composite, a power of a prime above the trial bound, a
    # square whose root is below 2**64 (so the primality proof holds), and
    # a cofactor that is 1 once 3 and 5 are removed
    cases = [((239 * 251) ** 4 * 7 ** 4, {7: 4, 239: 4, 251: 4}),
             (1000003 ** 5, {1000003: 5}),
             ((2 ** 61 - 1) ** 2, {2 ** 61 - 1: 2}),
             (3 ** 40 * 5, {3: 40, 5: 1})]
    for n, want in cases:
        f, cert = factor_integer(n)
        assert f == want and cert
        assert recompose(f) == n

"""Factorization helpers used by the table checks."""

import pytest
from _helpers import recompose

from shimura4.intfactor import (
    factor_integer,
    factorization_string,
    is_probable_prime,
    is_proven_prime,
    parse_factorization,
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


def test_proven_primes_stop_at_two_to_the_64():
    # Miller-Rabin with the first 12 primes as bases is a proof below 2**64
    # only: a prime above it, such as 2**89 - 1, is probable, not proven
    assert is_proven_prime(2 ** 61 - 1)
    assert is_proven_prime(18446744073709551557)  # the largest prime < 2**64
    assert not is_proven_prime(2 ** 61 + 1)
    assert is_probable_prime(2 ** 89 - 1) and not is_proven_prime(2 ** 89 - 1)
    for n in (-7, 0, 1, 4, 239 * 251):
        assert not is_proven_prime(n)


def test_semiprime():
    # both primes lie above the trial bound, so the product is not split:
    # it comes back whole, as a factor but not as a proven prime
    p, q = 1000003, 1000033
    assert factor_integer(p * q) == ({p * q: 1}, False)
    assert factor_integer(p) == ({p: 1}, True)


def test_composite_cofactor_above_the_trial_bound_comes_back_whole_and_uncertified():
    # two primes near 2**45 and 2**46 have no factor below the trial bound:
    # the product comes back whole, as a factor but not as a proven prime,
    # and the result is uncertified
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


def test_powers_split_below_the_trial_bound_and_come_back_whole_above_it():
    # a power of a composite whose primes lie below the trial bound, and a
    # cofactor that is 1 once 3 and 5 are removed, are split and certified
    for n, want in [((239 * 251) ** 4 * 7 ** 4, {7: 4, 239: 4, 251: 4}),
                    (3 ** 40 * 5, {3: 40, 5: 1})]:
        assert factor_integer(n) == (want, True)
    # a power of a prime above the trial bound is not split: it comes back
    # whole, as a factor but not as a proven prime
    for n in (1000003 ** 5, (2 ** 61 - 1) ** 2):
        assert factor_integer(n) == ({n: 1}, False)

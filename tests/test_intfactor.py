"""Primality and factorization strings used by the table checks."""

import pytest
from _helpers import recompose

from shimura4.intfactor import (
    factorization_string,
    is_proven_prime,
    parse_factorization,
)


def test_primality_small():
    primes = [2, 3, 5, 7, 11, 239, 251, 4663, 2843, 71]
    for p in primes:
        assert is_proven_prime(p)
    for c in [1, 4, 9, 239 * 251, 2 ** 31 - 1 + 2]:
        assert not is_proven_prime(c)


def test_proven_primes_stop_at_two_to_the_64():
    # Miller-Rabin with the first 12 primes as bases is a proof below 2**64
    # only: a prime above it, such as 2**89 - 1, is not proven
    assert is_proven_prime(2 ** 61 - 1)
    assert is_proven_prime(18446744073709551557)  # the largest prime < 2**64
    assert not is_proven_prime(2 ** 61 + 1)
    assert not is_proven_prime(2 ** 89 - 1)
    for n in (-7, 0, 1, 4, 239 * 251):
        assert not is_proven_prime(n)


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

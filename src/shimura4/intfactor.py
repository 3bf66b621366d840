"""Primality and factorization strings, for the CM-table checks and the
printed discriminant constant.

A table states each discriminant's factorization; checking it needs only
a primality test of each stated base, and this one is a proof: Miller-Rabin
with deterministic bases below 2**64. Nothing here factors an integer.
The numbers of a table, in its factorizations and its field labels, are
read as ASCII digits only (`parse_digits`).
"""

from __future__ import annotations

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_proven_prime(n: int) -> bool:
    """True when n is prime and Miller-Rabin proves it: n < 2**64, where
    the first twelve primes as bases make the test deterministic."""
    if not 2 <= n < 1 << 64:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorization_string(factors: dict) -> str:
    """Render {7: 4, 239: 4} as '7^4*239^4' (primes ascending); a factor of
    a denominator has a negative exponent, {5: -1} as '5^-1'."""
    parts = []
    for p in sorted(factors):
        e = factors[p]
        parts.append(str(p) if e == 1 else f"{p}^{e}")
    return "*".join(parts) if parts else "1"


def parse_digits(s: str) -> int:
    """The natural number that the ASCII digits s write. Anything else is
    a ValueError, where int() would also read a sign, underscores,
    surrounding space or the digits of other scripts."""
    if not (s.isascii() and s.isdigit()):
        raise ValueError(f"not a string of digits: {s!r}")
    return int(s)


def parse_factorization(s: str) -> dict:
    """Inverse of factorization_string; accepts '7^4*239^4' or '3^8*71^4'."""
    s = s.strip()
    if s == "1":
        return {}
    out: dict = {}
    for piece in s.split("*"):
        piece = piece.strip()
        if "^" in piece:
            base, exp = piece.split("^")
            p, e = parse_digits(base), parse_digits(exp)
        else:
            p, e = parse_digits(piece), 1
        if p < 2 or e < 1:
            raise ValueError(f"bad factorization piece {piece!r}")
        out[p] = out.get(p, 0) + e
    return dict(sorted(out.items()))

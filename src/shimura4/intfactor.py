"""Integer factorization and primality sized for table verification.

Deterministic Miller-Rabin below 2**64, which is a proof there, and
trial division over a wheel below 10**5 with one primality test of the
cofactor left. The CM tables state their factorizations, and checking a
stated one needs only the primality test; factoring is for the
discriminant constant of the x7 family, whose primes are all 2, 3 and 7.
"""

from __future__ import annotations

from itertools import cycle

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Miller-Rabin with these bases is a proven primality test below 2**64
_MR_CERTIFIED_BOUND = 1 << 64


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic (hence a proof) for n < 2**64."""
    if n < 2:
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


def is_proven_prime(n: int) -> bool:
    """True when n is prime and Miller-Rabin proves it: n < 2**64."""
    return n < _MR_CERTIFIED_BOUND and is_probable_prime(n)


def _int_nth_root(m: int, e: int) -> int:
    """floor(m ** (1/e)) by Newton iteration on integers."""
    if m < 2:
        return m
    x = 1 << ((m.bit_length() + e - 1) // e)
    while True:
        y = ((e - 1) * x + m // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def factor_integer(n: int) -> tuple[dict, bool]:
    """Factor a positive integer by trial division below 10**5.

    Returns (factors, certified) where factors maps each factor to its
    exponent, in increasing order, and recomposes to n. With certified True
    every factor is a proven prime. certified is False when the cofactor
    left after trial division is not proven prime: it is composite, or at
    least 2**64, where Miller-Rabin is no proof. That cofactor comes back
    whole, as a factor with exponent 1.

    Examples
    --------
    >>> factor_integer(7834003547041)
    ({7: 4, 239: 4}, True)
    """
    if n < 1:
        raise ValueError("factor_integer needs a positive integer")
    factors: dict = {}
    for p in (2, 3, 5, 7):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    # trial division below a bound over the wheel of numbers prime to 30
    d, steps = 11, cycle((2, 4, 2, 4, 6, 2, 6, 4))
    while d * d <= n and d < 100_000:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += next(steps)
    if n > 1:
        factors[n] = 1
    return dict(sorted(factors.items())), n == 1 or is_proven_prime(n)


def factorization_string(factors: dict) -> str:
    """Render {7: 4, 239: 4} as '7^4*239^4' (primes ascending)."""
    parts = []
    for p in sorted(factors):
        e = factors[p]
        parts.append(f"{p}^{e}" if e > 1 else str(p))
    return "*".join(parts) if parts else "1"


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
            p, e = int(base), int(exp)
        else:
            p, e = int(piece), 1
        if p < 2 or e < 1:
            raise ValueError(f"bad factorization piece {piece!r}")
        out[p] = out.get(p, 0) + e
    return dict(sorted(out.items()))

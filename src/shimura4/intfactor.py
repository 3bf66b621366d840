"""Integer factorization sized for table verification.

Trial division for small factors, deterministic Miller-Rabin below 2**64,
Brent's cycle-finding rho for the rest. Inputs at or below 64 bits come back
certified; anything that needed a probabilistic primality call is marked
"probable" so callers can flag it instead of trusting it.
"""

from __future__ import annotations

import math
import random
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


def _perfect_power(m: int) -> tuple[int, int] | None:
    """(r, e) with m = r**e for the least prime e that works, or None. A
    power to a composite exponent is also a power to each prime factor of
    it, so prime exponents suffice."""
    for e in filter(is_probable_prime, range(2, m.bit_length())):
        r = _int_nth_root(m, e)
        for cand in (r, r + 1):
            if cand > 1 and cand ** e == m:
                return cand, e
    return None


def _brent_rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of odd composite n."""
    if n % 2 == 0:
        return 2
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factor_integer(n: int) -> tuple[dict, bool]:
    """Factor a positive integer.

    Returns (factors, certified) where factors maps prime -> exponent and
    certified is False when a primality decision relied on probabilistic
    Miller-Rabin (only possible for cofactors >= 2**64).

    Examples
    --------
    >>> factor_integer(7834003547041)
    ({7: 4, 239: 4}, True)
    """
    if n < 1:
        raise ValueError("factor_integer needs a positive integer")
    factors: dict = {}
    certified = True
    for p in (2, 3, 5, 7):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    # n = r^k with r not a perfect power; each factor of r counts k times.
    # Table discriminants are p^4 q^4, so this leaves the wheel to walk up
    # to p and the square root of q instead of up to q.
    k = 1
    while (power := _perfect_power(n)) is not None:
        n, e = power
        k *= e
    # trial division below a bound over the wheel of numbers prime to 30
    d, steps = 11, cycle((2, 4, 2, 4, 6, 2, 6, 4))
    while d * d <= n and d < 100_000:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + k
            n //= d
        d += next(steps)
    rng = None
    stack = [(n, k)]
    while stack:
        m, k = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            if m >= _MR_CERTIFIED_BOUND:
                certified = False
            factors[m] = factors.get(m, 0) + k
            continue
        # perfect power check helps rho on squares
        power = _perfect_power(m)
        if power is not None:
            stack.append((power[0], k * power[1]))
            continue
        if rng is None:
            rng = random.Random(0xC0FFEE)
        g = _brent_rho(m, rng)
        stack.extend([(g, k), (m // g, k)])
    return dict(sorted(factors.items())), certified


def recompose(factors: dict) -> int:
    out = 1
    for p, e in factors.items():
        out *= p ** e
    return out


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

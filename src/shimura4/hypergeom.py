"""Hypergeometric exponent data attached to the two families.

Each family determines a triple of rational exponents mu with common
denominator N (84 for the first family, 36 for the second). The fourth
exponent is forced by the requirement that all four sum to 0 mod N. For
every residue i with i * a_j never divisible by N, the line invariant

    d_i = -1 + sum_j frac(i * a_j / N)

is an integer in {0, 1, 2} here; its distribution over the units mod N,
the duality d_{N-i} = 2 - d_i, the multiplicative stabilizer of the
exponent multiset, and the full-range sum are the checkable facts this
module recomputes from scratch.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .record import Record

F = Fraction


class HypergeomError(ValueError):
    pass


class HypergeometricData(Record):
    level: int                 # N
    exponents: tuple[int, ...]  # (a1, a2, a3, a4), a4 derived, each in 1..N-1

    def __post_init__(self):
        N = self.level
        if N < 2:
            raise HypergeomError("level must be >= 2")
        if len(self.exponents) != 4:
            raise HypergeomError("need exactly four exponents")
        for a in self.exponents:
            if not 1 <= a <= N - 1:
                raise HypergeomError(f"exponent {a} out of range for level {N}")
        if sum(self.exponents) % N != 0:
            raise HypergeomError("exponents do not sum to 0 mod level")


def from_mu_triple(mu: tuple[Fraction, Fraction, Fraction]) -> HypergeometricData:
    """Clear denominators of the three exponents and derive the fourth;
    HypergeometricData refuses an exponent outside (0, 1) and a vanishing
    fourth one."""
    mu = tuple(F(m) for m in mu)
    if len(mu) != 3:
        raise HypergeomError("need exactly three exponents")
    N = lcm(*(m.denominator for m in mu))
    a = tuple(int(m * N) for m in mu)
    return HypergeometricData(N, a + ((-sum(a)) % N,))


def mu_triple(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """The exponent triple of the family labeled by n (7 or 9), ascending."""
    if n == 7:
        return (F(13, 84), F(29, 84), F(43, 84))
    if n == 9:
        return (F(5, 36), F(13, 36), F(19, 36))
    raise HypergeomError("exponent triples are defined for n = 7 and n = 9")


def hypergeometric_data(n: int) -> HypergeometricData:
    return from_mu_triple(mu_triple(n))


def line_invariant(data: HypergeometricData, i: int) -> int:
    """d_i = -1 + sum_j frac(i a_j / N); requires no i a_j divisible by N."""
    N = data.level
    if i % N == 0:
        raise HypergeomError("index must be nonzero mod level")
    total = 0
    for a in data.exponents:
        r = (i * a) % N
        if r == 0:
            raise HypergeomError(f"invariant undefined: {i} * {a} = 0 mod {N}")
        total += r
    # the exponents sum to 0 mod N (checked in HypergeometricData), so N | total
    return total // N - 1


def units(N: int) -> tuple[int, ...]:
    return tuple(i for i in range(1, N) if gcd(i, N) == 1)


def invariant_table(data: HypergeometricData) -> dict[int, int]:
    """d_i for every unit i mod N."""
    return {i: line_invariant(data, i) for i in units(data.level)}


def invariant_counts(data: HypergeometricData) -> dict[int, int]:
    """How often each value of d_i occurs over the units mod N."""
    out: dict[int, int] = {}
    for v in invariant_table(data).values():
        out[v] = out.get(v, 0) + 1
    return dict(sorted(out.items()))


def duality_holds(data: HypergeometricData) -> bool:
    """d_{N-i} = 2 - d_i over all units."""
    t = invariant_table(data)
    return all(t[data.level - i] == 2 - v for i, v in t.items())


def stabilizer(data: HypergeometricData) -> tuple[int, ...]:
    """Units u with u * {a_j} = {a_j} as multisets mod N."""
    N = data.level
    base = sorted(a % N for a in data.exponents)
    return tuple(u for u in units(N)
                 if sorted((u * a) % N for a in data.exponents) == base)


def unit_sum(data: HypergeometricData) -> int:
    return sum(invariant_table(data).values())


def full_sum(data: HypergeometricData) -> int:
    """Sum of d_i over every i in 1..N-1 (the genus-style count)."""
    return sum(line_invariant(data, i) for i in range(1, data.level))

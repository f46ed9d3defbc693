"""Exact weight and series arithmetic for torus localization.

Conventions used throughout the engine:

* The two-dimensional torus has character lattice with basis (t1, t2); a
  ``Weight`` is the integer linear form a*t1 + b*t2.
* Mixed-degree bookkeeping happens in a single grading variable u.  A weight
  w enters series formulas as its integer specialization times u
  (``Weight.spec_int``).
* All coefficients are ``fractions.Fraction`` or ``int``; no floats appear
  anywhere in the numeric core.
* Bernoulli numbers follow the convention B1 = -1/2, so the Todd series of a
  weight a is 1 + (a/2)u + (a^2/12)u^2 + 0*u^3 - (a^4/720)u^4 + ...
* Specialization points are pairs of distinct primes drawn from a fixed pool
  by a seeded RNG.  The pool starts at 53 so that every tangent weight met in
  practice (integer coefficients well below 53) specializes to a nonzero
  integer; the retry path exists for exotic user input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Sequence

from .errors import ComputationError, PoleError

__all__ = [
    "Weight",
    "bernoulli_numbers",
    "todd_series",
    "todd_log_coefficients",
    "series_exp",
    "exp_todd_series",
    "elementary_symmetric",
    "signed_chern_coefficients",
    "PRIME_POOL",
    "DEFAULT_SEED",
    "SpecializationDraw",
    "dual_specialized",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class Weight:
    """Integer character a*t1 + b*t2 of the two-torus."""

    a: int
    b: int

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Weight":
        return Weight(-self.a, -self.b)

    def __rmul__(self, n: int) -> "Weight":
        return Weight(n * self.a, n * self.b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def spec_int(self, z1: int, z2: int) -> int:
        """Fast integer specialization used in inner loops."""
        return self.a * z1 + self.b * z2

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for coeff, name in ((self.a, "t1"), (self.b, "t2")):
            if coeff == 0:
                continue
            sign = "-" if coeff < 0 else ("+" if parts else "")
            mag = abs(coeff)
            parts.append(f"{sign}{'' if mag == 1 else str(mag) + '*'}{name}")
        return "".join(parts)

    def to_json(self) -> list[int]:
        return [self.a, self.b]

    @staticmethod
    def from_json(data: Sequence[int]) -> "Weight":
        return Weight(int(data[0]), int(data[1]))


ZERO_WEIGHT = Weight(0, 0)


# ---------------------------------------------------------------------------
# Bernoulli numbers and the Todd series


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0..B_n with B1 = -1/2, via sum_{j<=m} C(m+1,j) B_j = 0."""
    out = [_ONE]
    for m in range(1, n + 1):
        acc = _ZERO
        for j in range(m):
            acc += comb(m + 1, j) * out[j]
        out.append(-acc / (m + 1))
    return out


def todd_series(a: Fraction, order: int) -> list[Fraction]:
    """(a*u) / (1 - exp(-a*u)) truncated; coefficient of u^n is (-1)^n B_n a^n / n!."""
    a = Fraction(a)
    bern = bernoulli_numbers(order)
    coeffs = []
    fact = 1
    power = _ONE
    for n in range(order + 1):
        if n > 0:
            fact *= n
            power *= a
        coeffs.append((-1) ** n * bern[n] * power / fact)
    return coeffs


@lru_cache(maxsize=None)
def todd_log_coefficients(order: int) -> tuple[Fraction, ...]:
    """Coefficients L_n of log todd(u), so log todd(a*u) = sum L_n a^n u^n.

    Lets a product of many Todd factors be assembled from power sums of the
    weights (one series exponential per fixed point) instead of repeated
    series multiplication.
    """
    td = todd_series(1, order)
    # series log: L' = td' / td, integrated termwise
    log = [_ZERO] * (order + 1)
    for n in range(1, order + 1):
        acc = n * td[n]
        for j in range(1, n):
            acc -= j * log[j] * td[n - j]
        log[n] = acc / n
    return tuple(log)


def series_exp(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """exp of a truncated series with zero constant term (plain list form)."""
    if coeffs[0] != 0:
        raise ComputationError("series_exp expects zero constant term")
    order = len(coeffs) - 1
    out = [_ONE] + [_ZERO] * order
    for n in range(1, order + 1):
        acc = _ZERO
        for j in range(1, n + 1):
            if coeffs[j] != 0:
                acc += j * coeffs[j] * out[n - j]
        out[n] = acc / n
    return out


def exp_todd_series(theta, weights: Sequence, order: int) -> list[Fraction]:
    """exp(-theta u) * prod_v todd(v u), truncated at u^order (order >= 1).

    The local integrand of every Riemann-Roch sum: one series exponential
    of -theta u + sum_n L_n p_n u^n, with p_n the power sums of the weights.
    """
    logtodd = todd_log_coefficients(order)
    log, pows = [0], [1] * len(weights)
    for n in range(1, order + 1):
        pows = [a * v for a, v in zip(pows, weights)]
        log.append(logtodd[n] * sum(pows))
    log[1] -= theta
    return series_exp(log)


# ---------------------------------------------------------------------------
# symmetric functions


def elementary_symmetric(values: Sequence, j: int):
    """e_j of a multiset, exact, by the triangular recurrence."""
    if j < 0:
        raise ComputationError("negative symmetric degree")
    row = [1] + [0] * j
    for v in values:
        for n in range(min(j, len(row) - 1), 0, -1):
            row[n] = row[n] + row[n - 1] * v
    return row[j]


def signed_chern_coefficients(plus: Sequence, minus: Sequence, maxdeg: int) -> list:
    """c_0..c_maxdeg of prod(1 + w t) over plus divided by the same over minus.

    Works over ints or Fractions.  This is the total Chern class of a virtual
    sum of lines with the given (specialized) first Chern classes.
    """
    c = [1] + [0] * maxdeg
    for w in plus:
        for n in range(maxdeg, 0, -1):
            c[n] = c[n] + c[n - 1] * w
    for w in minus:
        out = [c[0]] + [0] * maxdeg
        for n in range(1, maxdeg + 1):
            out[n] = c[n] - w * out[n - 1]
        c = out
    return c


# ---------------------------------------------------------------------------
# specialization machinery


def _prime_pool(lo: int = 53, hi: int = 499) -> tuple[int, ...]:
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(hi**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(p for p in range(lo, hi + 1) if sieve[p])


PRIME_POOL: tuple[int, ...] = _prime_pool()

DEFAULT_SEED = 20717


class SpecializationDraw:
    """Deterministic stream of distinct-prime pairs for a given seed."""

    def __init__(self, seed: int = DEFAULT_SEED):
        self.seed = seed
        self._rng = random.Random(seed)

    def pair(self) -> tuple[int, int]:
        p, q = self._rng.sample(PRIME_POOL, 2)
        return (p, q)


def dual_specialized(
    compute: Callable[[tuple[int, int]], Fraction],
    seed: int = DEFAULT_SEED,
    retries: int = 8,
) -> Fraction:
    """Run ``compute`` under two independent specializations and cross-check.

    ``compute`` receives a pair of distinct primes and may raise PoleError if
    a denominator vanishes; each pole burns one retry.  The two results must
    agree exactly, otherwise the computation itself is unsound.
    """
    draw = SpecializationDraw(seed)
    seen: list[tuple[int, int]] = []
    values: list[Fraction] = []
    budget = retries
    while len(values) < 2:
        z = draw.pair()
        if z in seen:
            continue
        try:
            values.append(compute(z))
            seen.append(z)
        except PoleError:
            budget -= 1
            if budget < 0:
                raise PoleError(
                    f"denominator vanished under {retries + 1} specializations"
                )
    if values[0] != values[1]:
        raise ComputationError(
            f"specializations disagree: {values[0]} vs {values[1]} "
            f"(pairs {seen[0]} and {seen[1]})"
        )
    return values[0]

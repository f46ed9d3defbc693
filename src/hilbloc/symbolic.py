"""Exact weight and series arithmetic for torus localization.

Conventions used throughout the engine:

* The two-dimensional torus has character lattice with basis (t1, t2); a
  ``Weight`` is the integer linear form a*t1 + b*t2.
* Mixed-degree bookkeeping happens in a single grading variable u.  A weight
  w enters series formulas as its integer specialization times u
  (``Weight.spec_int``).
* Localization sums are evaluated mod m, a product of word primes (the
  first j >= 2 of ``WORD_PRIMES``, primes just below 2^61), one pass per
  specialization: series coefficients are residues mod m and every
  division is by an integer prime to every word prime.  Each sum is an
  integer, which ``reconstruct`` rebuilds as the symmetric residue, taking
  one more prime into m until it is also the symmetric residue mod m
  without its last prime.  Outside the sums, coefficients are
  ``fractions.Fraction`` or ``int``; no floats appear anywhere.
* Bernoulli numbers follow the convention B1 = -1/2, so the Todd series of a
  weight a is 1 + (a/2)u + (a^2/12)u^2 + 0*u^3 - (a^4/720)u^4 + ...
* Specialization points are pairs of distinct primes drawn from a fixed pool
  by a seeded RNG.  The pool starts at 53 so that every tangent weight met in
  practice (integer coefficients well below 53) specializes to a nonzero
  integer; the retry path exists for exotic user input.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, prod
from operator import mul
from typing import Callable, Sequence

from .errors import ComputationError, PoleError
from .value import Frozen

__all__ = [
    "Weight",
    "bernoulli_numbers",
    "todd_log_coefficients",
    "series_exp",
    "exp_todd_series",
    "signed_chern_coefficients",
    "WORD_PRIMES",
    "residue",
    "reconstruct",
    "PRIME_POOL",
    "DEFAULT_SEED",
    "dual_specialized",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# weights


class Weight(Frozen):
    """Integer character a*t1 + b*t2 of the two-torus."""

    __slots__ = _fields = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        _set_a(self, a)
        _set_b(self, b)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b))

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


# the slots' own setters: weights are built in the inner loops, and these
# are faster than ``set_field``
_set_a, _set_b = Weight.a.__set__, Weight.b.__set__

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


@lru_cache(maxsize=None)
def todd_log_coefficients(order: int) -> tuple[Fraction, ...]:
    """Coefficients L_n of log todd(u), so log todd(a*u) = sum L_n a^n u^n.

    d/du log todd(u) = 1/u - 1/(e^u - 1) = -sum_{n>=1} B_n u^(n-1) / n!, so
    L_n = -B_n / (n * n!), which with B1 = -1/2 gives L_1 = 1/2.  Lets a
    product of many Todd factors be assembled from power sums of the
    weights (one series exponential per fixed point) instead of repeated
    series multiplication.
    """
    bern = bernoulli_numbers(order)
    return (_ZERO,) + tuple(-bern[n] / (n * factorial(n)) for n in range(1, order + 1))


@lru_cache(maxsize=None)
def _inverses(order: int, m: int) -> tuple[int, ...]:
    """1/n mod m for n = 0..order (entry 0 unused)."""
    return (0,) + tuple(pow(n, -1, m) for n in range(1, order + 1))


@lru_cache(maxsize=None)
def _todd_log_residues(order: int, m: int) -> tuple[int, ...]:
    return tuple(residue(c, m) for c in todd_log_coefficients(order))


def series_exp(coeffs: Sequence[int], m: int) -> list[int]:
    """exp of a truncated series with zero constant term, mod m."""
    if coeffs[0] % m:
        raise ComputationError("series_exp expects zero constant term")
    order = len(coeffs) - 1
    inverses = _inverses(order, m)
    scaled = [j * c % m for j, c in enumerate(coeffs)]
    out = [1]
    for n in range(1, order + 1):
        # n * out[n] = sum_j j * coeffs[j] * out[n - j]
        out.append(sum(map(mul, scaled[n:0:-1], out)) * inverses[n] % m)
    return out


# Spare bits per slot of a packed Todd row: a sum of fewer than 2^16 rows
# cannot carry out of any slot.
_SLOT_SPARE = 16


@lru_cache(maxsize=4096)
def _todd_power_row(v: int, order: int, m: int) -> int:
    """2j L_2j v^2j mod m for j = 1..order/2: one weight's even log terms,
    already scaled for the exponential's recurrence, packed into one int,
    term j in the slot of m.bit_length() + 16 bits starting at bit
    (j - 1) times that width."""
    logtodd = _todd_log_residues(order, m)
    width = m.bit_length() + _SLOT_SPARE
    square = v * v % m
    row = 0
    power = 1
    for shift, n in enumerate(range(2, order + 1, 2)):
        power = power * square % m
        row |= (n * logtodd[n] * power % m) << (shift * width)
    return row


def exp_todd_series(theta: int, weights: Sequence[int], order: int, m: int) -> list[int]:
    """exp(-theta u) * prod_v todd(v u) mod m, truncated at u^order (order >= 1).

    The local integrand of every Riemann-Roch sum: the series exponential
    of f = c u + sum_j L_2j p_2j u^2j, with c = p_1/2 - theta and p_n the
    power sums of the weights; log todd(x) - x/2 is even, so no other term
    enters.  Each weight's even terms come from a cached row packed into
    one int (``_todd_power_row``), so the power sums are one integer sum of
    the rows, unpacked slot by slot; fewer than 2^16 weights cannot carry
    out of a slot.  The exponential e of f runs over the terms f has:
    t e_t = c e_(t-1) + sum_j 2j L_2j p_2j e_(t-2j).  With no weights that
    is c^t / t!.
    """
    if len(weights) >> _SLOT_SPARE:
        raise ComputationError(f"{len(weights)} weights overflow a packed Todd row")
    inverses = _inverses(order, m)
    width = m.bit_length() + _SLOT_SPARE
    mask = (1 << width) - 1
    packed = sum([_todd_power_row(v, order, m) for v in weights])
    even = []
    for _ in range(order // 2):
        even.append((packed & mask) % m)
        packed >>= width
    c = (_todd_log_residues(order, m)[1] * sum(weights) - theta) % m
    out = [1, c]
    for t in range(2, order + 1):
        acc = c * out[-1] + sum(map(mul, even, out[t - 2 :: -2]))
        out.append(acc * inverses[t] % m)
    return out


# ---------------------------------------------------------------------------
# symmetric functions


def signed_chern_coefficients(
    plus: Sequence[int], minus: Sequence[int], start: Sequence[int], m: int
) -> list[int]:
    """c_0..c_d of start(t) * prod(1 + w t) over plus / the same over minus, mod m.

    ``start`` is a row c_0..c_d (d = len(start) - 1); [1, 0, ..., 0] gives
    the total Chern class of a virtual sum of lines with the given
    (specialized) first Chern classes, and any other row extends that
    class by the lines.
    """
    c = list(start)
    maxdeg = len(c) - 1
    for w in plus:  # multiply by (1 + w t) in place
        for n in range(maxdeg, 0, -1):
            c[n] += c[n - 1] * w
    for w in minus:  # divide by (1 + w t) in place
        for n in range(1, maxdeg + 1):
            c[n] -= w * c[n - 1]
    return [x % m for x in c]


# ---------------------------------------------------------------------------
# residues and their reconstruction

# The sixteen largest primes below 2^61.
WORD_PRIMES: tuple[int, ...] = (
    2305843009213693951, 2305843009213693921, 2305843009213693907,
    2305843009213693723, 2305843009213693693, 2305843009213693669,
    2305843009213693613, 2305843009213693561, 2305843009213693549,
    2305843009213693487, 2305843009213693421, 2305843009213693373,
    2305843009213693277, 2305843009213693193, 2305843009213693153,
    2305843009213693133,
)


def residue(q: Fraction | int, m: int) -> int:
    """The image of a rational in Z/m."""
    common = gcd(q.denominator, m)
    if common != 1:
        raise ComputationError(f"denominator of {q} vanishes mod {common}")
    return q.numerator * pow(q.denominator, -1, m) % m


def reconstruct(residue_mod: Callable[[int], int]) -> int:
    """The integer whose image in Z/m is ``residue_mod(m)``.

    m is a product of word primes, the first j of ``WORD_PRIMES`` from
    j = 2 on, so each call is one pass of the sum.  The symmetric residue n
    is returned once it is also the one mod m without its last prime, that
    is once 2|n| < m_(j-1): every |n| < 2^60 settles in one pass.  A larger
    value is accepted wrongly only if its residue lands in that window, of
    relative size 1/p_j, the same risk as a rational reconstruction test;
    the second specialization cross-checks it.  A non-integer never settles.
    """
    for j in range(2, len(WORD_PRIMES) + 1):
        short = prod(WORD_PRIMES[: j - 1])
        m = short * WORD_PRIMES[j - 1]
        n = residue_mod(m)
        if 2 * n > m:
            n -= m
        if 2 * abs(n) < short:
            return n
    raise ComputationError(
        f"integer reconstruction did not settle within {len(WORD_PRIMES)} primes"
    )


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
_POLE_RETRIES = 8  # poles that dual_specialized tolerates before it gives up


def dual_specialized(
    compute: Callable[[tuple[int, int]], int],
    seed: int = DEFAULT_SEED,
) -> int:
    """Run ``compute`` under two independent specializations and cross-check.

    ``compute`` receives a pair of distinct primes and may raise PoleError if
    a denominator vanishes; each pole burns one of ``_POLE_RETRIES``.  The two
    results must agree exactly, otherwise the computation itself is unsound.
    """
    rng = random.Random(seed)
    seen: list[tuple[int, int]] = []
    values: list[int] = []
    budget = _POLE_RETRIES
    while len(values) < 2:
        z = tuple(rng.sample(PRIME_POOL, 2))
        if z in seen:
            continue
        try:
            values.append(compute(z))
            seen.append(z)
        except PoleError:
            budget -= 1
            if budget < 0:
                raise PoleError(
                    f"denominator vanished under {_POLE_RETRIES + 1} specializations"
                )
    if values[0] != values[1]:
        raise ComputationError(
            f"specializations disagree: {values[0]} vs {values[1]} "
            f"(pairs {seen[0]} and {seen[1]})"
        )
    return values[0]

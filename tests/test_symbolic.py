"""Series, residue and specialization primitives, checked against closed forms."""

import random
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from hilbloc import symbolic
from hilbloc.cli import main
from hilbloc.errors import ComputationError, PoleError
from hilbloc.symbolic import (
    DEFAULT_SEED,
    PRIME_POOL,
    WORD_PRIMES,
    Weight,
    ZERO_WEIGHT,
    bernoulli_numbers,
    dual_specialized,
    exp_todd_series,
    reconstruct,
    residue,
    series_exp,
    signed_chern_coefficients,
    todd_log_coefficients,
)

from oracles import elementary_symmetric, todd_series

F = Fraction
P = WORD_PRIMES[0]


def _mod(series):
    """Residues mod P of a series of rationals."""
    return [residue(c, P) for c in series]

# B_0 .. B_12 with the B_1 = -1/2 convention
KNOWN_BERNOULLI = [
    F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42), F(0),
    F(-1, 30), F(0), F(5, 66), F(0), F(-691, 2730),
]

weights = st.builds(Weight, st.integers(-9, 9), st.integers(-9, 9))


def test_bernoulli_known_values():
    assert bernoulli_numbers(12) == KNOWN_BERNOULLI


def _mul(a, b):
    """Product of two truncated series of equal length."""
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


def _exp(a, order):
    """exp(a*u) truncated, in closed form: a^n / n!."""
    return [F(a) ** n / factorial(n) for n in range(order + 1)]


def test_todd_series_defining_identity():
    # todd(a) * (1 - exp(-a u)) == a*u as truncated series
    order = 12
    for a in (1, 2, -3, F(5, 2)):
        one_minus_exp = [-c for c in _exp(-a, order)]
        one_minus_exp[0] += 1
        lhs = _mul(todd_series(a, order), one_minus_exp)
        expected = [F(0)] * (order + 1)
        expected[1] = F(a)
        assert lhs == expected


def test_todd_series_at_zero_is_one():
    assert todd_series(0, 6) == [1, 0, 0, 0, 0, 0, 0]


@given(
    st.lists(st.integers(0, P - 1), min_size=8, max_size=8),
    st.lists(st.integers(0, P - 1), min_size=8, max_size=8),
)
def test_exp_series_multiplicative(f, g):
    # exp(f) * exp(g) == exp(f + g) for series without constant term
    f, g = [0] + f, [0] + g
    fg = [x + y for x, y in zip(f, g)]
    product = [c % P for c in _mul(series_exp(f, P), series_exp(g, P))]
    assert product == series_exp(fg, P)


def test_series_exp_matches_exp_series():
    order = 9
    for c in (1, -2, F(3, 4)):
        coeffs = [F(0)] * (order + 1)
        coeffs[1] = F(c)
        assert series_exp(_mod(coeffs), P) == _mod(_exp(c, order))


def test_series_exp_rejects_constant_term():
    with pytest.raises(ComputationError):
        series_exp([1, 0, 0], P)


def test_todd_log_coefficients_exponentiate_to_todd():
    order = 10
    logs = todd_log_coefficients(order)
    for a in (1, 2, -3):
        coeffs = [logs[n] * a**n for n in range(order + 1)]
        assert series_exp(_mod(coeffs), P) == _mod(todd_series(a, order))


def test_exp_todd_series_is_the_product():
    # exp(-theta u) * todd(v1 u) * todd(v2 u), multiplied out by hand
    order = 6
    for theta, weights in ((3, (1, -2)), (0, (5, 7, -1)), (-2, ())):
        want = _exp(-theta, order)
        for v in weights:
            want = _mul(want, todd_series(v, order))
        assert exp_todd_series(theta, weights, order, P) == _mod(want)


@given(
    st.integers(-50, 50),
    st.lists(st.integers(-60, 60).filter(bool), max_size=8),
    st.integers(1, 12),
    st.integers(1, 12),
    st.sampled_from((P, WORD_PRIMES[0] * WORD_PRIMES[1])),
)
def test_exp_todd_series_prefix_is_the_lower_order(theta, weights, low, extra, m):
    # chi_theta's q-product serves order 2k from series built at a higher one
    high = low + extra
    assert (
        exp_todd_series(theta, weights, high, m)[: low + 1]
        == exp_todd_series(theta, weights, low, m)
    )


# weights in +-60, drawn from a small pool so that they repeat
repeated_weights = st.lists(st.integers(-60, 60), min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=10)
)


@settings(max_examples=60)
@given(
    st.integers(-50, 50),
    repeated_weights,
    st.integers(1, 26),
    st.sampled_from((P, WORD_PRIMES[0] * WORD_PRIMES[1])),
)
def test_exp_todd_series_is_the_todd_product(theta, weights, order, m):
    # exp(-theta u) times one Todd series per weight, multiplied out in
    # rationals; odd orders end on a term the even log terms do not reach
    want = _exp(-theta, order)
    for v in weights:
        want = _mul(want, todd_series(v, order))
    assert exp_todd_series(theta, weights, order, m) == [residue(c, m) for c in want]


def test_exp_todd_series_sums_hundreds_of_rows_near_the_modulus():
    # 800 weights, eight distinct, whose scaled even log terms n L_n v^n
    # (the entries of their packed rows) all lie in the top quarter of
    # [0, m): every power sum is over 2^9 m before its reduction, so a slot
    # with fewer than ten spare bits would carry into the next one
    m, order, theta = WORD_PRIMES[0] * WORD_PRIMES[1], 8, 3
    logtodd = symbolic._todd_log_residues(order, m)
    # for small v they sit near multiples of m / 12, m / 720, ...; large
    # ones spread evenly
    rng = random.Random(0)
    near = []
    while len(near) < 8:
        v = rng.randrange(2**64)
        if all(n * logtodd[n] * v**n % m >= 3 * m // 4 for n in range(2, order + 1, 2)):
            near.append(v)
    weights = near * 100
    # the exponent c u + sum_n L_n p_n u^n, its columns summed directly
    log = [0] + [sum(logtodd[n] * v**n for v in weights) % m for n in range(1, order + 1)]
    log[1] = (log[1] - theta) % m
    assert exp_todd_series(theta, weights, order, m) == series_exp(log, m)
    # 2^16 entries below m could carry out of a slot
    with pytest.raises(ComputationError, match="overflow a packed Todd row"):
        exp_todd_series(theta, [1] * 2**16, order, m)


def test_elementary_symmetric_fixture():
    vals = [2, 3, 5]
    assert elementary_symmetric(vals, 0) == 1
    assert elementary_symmetric(vals, 1) == 10
    assert elementary_symmetric(vals, 2) == 31
    assert elementary_symmetric(vals, 3) == 30
    assert elementary_symmetric(vals, 4) == 0


@given(st.lists(st.integers(-7, 7), min_size=0, max_size=5))
def test_signed_chern_reduces_to_elementary_when_honest(plus):
    out = signed_chern_coefficients(plus, [], [1] + [0] * (len(plus) + 2), P)
    for j, c in enumerate(out):
        assert c == elementary_symmetric(plus, j) % P


@given(
    st.lists(st.integers(-5, 5), min_size=0, max_size=4),
    st.lists(st.integers(-5, 5), min_size=0, max_size=3),
)
def test_signed_chern_whitney_product(plus, minus):
    # c(plus - minus) * c(minus) == c(plus), coefficient by coefficient
    maxdeg = len(plus) + len(minus) + 1
    signed = signed_chern_coefficients(plus, minus, [1] + [0] * maxdeg, P)
    for n in range(maxdeg + 1):
        conv = sum(
            signed[i] * elementary_symmetric(minus, n - i) for i in range(n + 1)
        )
        assert (conv - elementary_symmetric(plus, n)) % P == 0


@given(weights, weights)
def test_weight_algebra(w1, w2):
    assert (w1 + w2) - w2 == w1
    assert -(-w1) == w1
    assert 3 * w1 == w1 + w1 + w1
    assert (w1 - w1).is_zero()


@given(weights, weights, st.integers(1, 50), st.integers(1, 50))
def test_specialization_is_linear(w1, w2, z1, z2):
    assert (w1 + w2).spec_int(z1, z2) == w1.spec_int(z1, z2) + w2.spec_int(z1, z2)


@given(weights)
def test_weight_json_roundtrip(w):
    assert Weight(*w.to_json()) == w


def test_weight_str_forms():
    assert str(Weight(1, -2)) == "t1-2*t2"
    assert str(ZERO_WEIGHT) == "0"
    assert str(Weight(0, 1)) == "t2"
    assert str(Weight(-1, 1)) == "-t1+t2"


def test_prime_pool_is_prime_and_bounded():
    assert PRIME_POOL[0] >= 53 and PRIME_POOL[-1] <= 499
    for p in PRIME_POOL:
        assert all(p % q for q in range(2, int(p**0.5) + 1)), p
    assert len(set(PRIME_POOL)) == len(PRIME_POOL)


def test_dual_specialized_agreement_and_retry():
    calls = []

    def flaky(z):
        calls.append(z)
        if len(calls) == 1:
            raise PoleError("synthetic pole")
        return F(7)

    assert dual_specialized(flaky, DEFAULT_SEED) == F(7)
    assert len(calls) >= 3  # one failed draw plus two successful ones

    def disagreeing(z):
        return F(sum(z))

    with pytest.raises(ComputationError):
        dual_specialized(disagreeing, DEFAULT_SEED)


def test_dual_specialized_exhausts_retries():
    def always_pole(z):
        raise PoleError("synthetic pole")

    with pytest.raises(PoleError):
        dual_specialized(always_pole, DEFAULT_SEED)


@given(st.data())
def test_reconstruction_round_trip(data):
    # every |n| < m_15 / 2 settles by the sixteenth prime
    half = prod(WORD_PRIMES[:15]) // 2
    n = data.draw(st.integers(-half, half) | st.integers(-(2**70), 2**70))
    assert reconstruct(lambda m: n % m) == n


def test_reconstruction_refuses_a_non_integer():
    with pytest.raises(ComputationError, match="did not settle"):
        reconstruct(lambda m: residue(F(1, 3), m))


def test_residue_refuses_a_denominator_sharing_one_word_prime():
    # 1/p has no image mod p*q even though p*q does not divide p
    with pytest.raises(ComputationError, match="vanishes mod"):
        residue(F(1, WORD_PRIMES[0]), WORD_PRIMES[0] * WORD_PRIMES[1])


def test_reconstruction_needs_two_primes(monkeypatch, capsys):
    monkeypatch.setattr(symbolic, "WORD_PRIMES", WORD_PRIMES[:1])
    with pytest.raises(ComputationError, match="did not settle"):
        reconstruct(lambda p: 1)
    code = main(["quot-count", "--surface", "P2", "--vstar", "2,3", "--k", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "did not settle" in err and "Traceback" not in err


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: these witnesses decide every n < 3.3e24."""
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for a in witnesses:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in witnesses:
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


def test_word_primes_are_distinct_61_bit_primes():
    assert len(set(WORD_PRIMES)) == len(WORD_PRIMES) >= 2
    for p in WORD_PRIMES:
        assert 2**60 < p < 2**61 and _is_prime(p), p
    assert not _is_prime(2**61 - 3) and not _is_prime(3215031751)

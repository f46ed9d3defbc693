"""Hilbert-scheme integrals: quotient counts and determinant chi."""

import random
import warnings
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from hilbloc import integrals
from hilbloc.errors import ComputationError, PoleError, UsageError
from hilbloc.hilb import count_fixed_points, partitions
from hilbloc.integrals import (
    ChernExpr,
    IntegralRequest,
    c2_for_expected_dim_zero,
    chern_rows,
    chi_theta,
    expected_dim_pairs,
    integrate,
    localize,
    partition_table,
    quot_count,
    validate_construction,
    verify_conjecture,
)
from hilbloc.symbolic import (
    PRIME_POOL,
    WORD_PRIMES,
    Weight,
    reconstruct,
    signed_chern_coefficients,
)
from hilbloc.tautological import virtual_integral
from hilbloc.toric import (
    ChernData,
    SplitBundle,
    line_bundle,
    make_surface,
    split_bundle,
)

from oracles import (
    brute_chern_integral,
    brute_chi_theta,
    c2_by_surface_localization,
)

P2 = make_surface("P2")
QUADRIC = make_surface("P1xP1")
F1 = make_surface("Hirzebruch", 1)


@st.composite
def split_bundles(draw, surface, min_minus=0):
    """Split bundles with small degrees, with at least min_minus minus lines."""
    degree = st.tuples(*[st.integers(-2, 3)] * surface.divisor_rank)
    plus = draw(st.lists(degree, min_size=1, max_size=3))
    minus = draw(st.lists(degree, min_size=min_minus, max_size=2))
    return split_bundle(surface, plus, minus)


@st.composite
def surfaces_and_k(draw):
    return draw(st.sampled_from((P2, QUADRIC, F1))), draw(st.integers(1, 4))


# ---------------------------------------------------------------------------
# request validation and the generic integral


def test_request_rejects_inhomogeneous_expressions():
    v = split_bundle(P2, [1, 2])
    with pytest.raises(UsageError):
        IntegralRequest(P2, 1, {"A": v}, ChernExpr.chern(1, "A"))


def test_request_rejects_undeclared_ids():
    v = split_bundle(P2, [1, 2])
    with pytest.raises(UsageError):
        IntegralRequest(P2, 1, {"A": v}, ChernExpr.chern(2, "B"))


def test_integrate_on_a_point():
    req = IntegralRequest(P2, 0, {}, ChernExpr.constant(Fraction(5, 3)))
    assert integrate(req) == Fraction(5, 3)


def test_integrate_composite_expression():
    # c1(A)^2 - c2(A) with A = O(1) + O(2): weights give an exact integer
    v = split_bundle(P2, [1, 2])
    expr = (
        ChernExpr.chern(1, "A") * ChernExpr.chern(1, "A")
        + ChernExpr.chern(2, "A", -1)
    )
    req = IntegralRequest(P2, 1, {"A": v}, expr)
    direct = integrate(req)
    c1sq = ChernExpr.chern(1, "A") * ChernExpr.chern(1, "A")
    parts = (
        integrate(IntegralRequest(P2, 1, {"A": v}, c1sq)),
        integrate(IntegralRequest(P2, 1, {"A": v}, ChernExpr.chern(2, "A"))),
    )
    assert direct == parts[0] - parts[1]


def test_integrate_rejects_a_coefficient_over_a_word_prime():
    # a coefficient with no image in Z/p is refused, not silently wrong
    expr = ChernExpr.chern(2, "A", Fraction(1, WORD_PRIMES[0]))
    req = IntegralRequest(P2, 1, {"A": split_bundle(P2, [1, 2])}, expr)
    with pytest.raises(ComputationError, match="vanishes mod"):
        integrate(req)


@settings(max_examples=25)
@given(st.data())
def test_integrate_matches_brute_tuple_sum(data):
    surface, k = data.draw(surfaces_and_k())
    a = data.draw(split_bundles(surface))
    b = data.draw(split_bundles(surface))
    i = data.draw(st.integers(1, 2 * k - 1))
    coeff = data.draw(st.fractions(-5, 5, max_denominator=4))
    # a two-factor term c_i(A) c_{2k-i}(B) plus a one-factor term
    expr = ChernExpr.chern(i, "A") * ChernExpr.chern(2 * k - i, "B")
    expr = expr + ChernExpr.chern(2 * k, "A", coeff)
    bundles = {"A": a, "B": b}
    value = integrate(IntegralRequest(surface, k, bundles, expr))
    assert value == brute_chern_integral(surface, k, bundles, expr)


@settings(max_examples=25)
@given(st.data())
def test_chi_theta_matches_brute_tuple_sum(data):
    surface, k = data.draw(surfaces_and_k())
    e = data.draw(split_bundles(surface))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # e is rarely orthogonal
        value = chi_theta(surface, e, k)
    assert value == brute_chi_theta(surface, e, k)


def _ones(p, table):
    return ([[1]] * len(level) for level in table)


def test_localize_raises_pole_error_on_vanishing_tangent_weight():
    # z = (1, 1) kills t2 - t1, a chart weight at the second point of P2
    with pytest.raises(PoleError):
        localize(P2, 1, _ones, (1, 1), (1,), WORD_PRIMES[0])
    # the shared partition table keeps the pole: a second call raises again
    with pytest.raises(PoleError):
        localize(P2, 1, _ones, (1, 1), (1,), WORD_PRIMES[0])
    assert quot_count(P2, split_bundle(P2, [-2, -3]), 2) == 15


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_partition_table_grows_chern_rows_from_parents(data):
    surface = data.draw(st.sampled_from((P2, QUADRIC, F1)))
    bundle = data.draw(split_bundles(surface, min_minus=1))
    p = data.draw(st.integers(0, len(surface.points) - 1))
    z = tuple(data.draw(st.lists(
        st.sampled_from(PRIME_POOL), min_size=2, max_size=2, unique=True
    )))
    n_max = data.draw(st.integers(0, 7))
    top = data.draw(st.integers(0, 2 * n_max))
    m = WORD_PRIMES[0] * WORD_PRIMES[1]
    v1, v2 = surface.points[p]
    s1, s2 = v1.spec_int(*z), v2.spec_int(*z)
    plus = [line.weights[p].spec_int(*z) for line in bundle.plus]
    minus = [line.weights[p].spec_int(*z) for line in bundle.minus]

    table = [partition_table(s1, s2, n, m) for n in range(n_max + 1)]
    grown = chern_rows(table, plus, minus, top, m)
    for n, (level, rows) in enumerate(zip(table, grown)):
        # every partition of n, once
        assert sorted(e.partition.parts for e in level) == sorted(
            lam.parts for lam in partitions(n)
        )
        assert len(rows) == len(level)
        for entry, row in zip(level, rows):
            cells = set(entry.partition.cells())
            if n:
                # the parent is the partition with one cell removed
                parent = set(table[n - 1][entry.parent].partition.cells())
                assert parent < cells and len(cells - parent) == 1
                ((i, j),) = cells - parent
                assert entry.shift == i * s1 + j * s2
            shifts = [i * s1 + j * s2 for i, j in cells]
            assert entry.shift_sum == sum(shifts)
            assert entry.inverse * prod(entry.tangents) % m == 1
            # the grown row is the row of all the cells, from scratch
            assert row == signed_chern_coefficients(
                [w + s for w in plus for s in shifts],
                [w + s for w in minus for s in shifts],
                [1] + [0] * top,
                m,
            )


def _tangent_products(k):
    """prod(tangents) at u^(2n) for a partition of n: a class of degree 2k."""

    def factor(p, table):
        for n, level in enumerate(table):
            pad = [0] * (2 * n), [0] * (2 * (k - n))
            yield [pad[0] + [prod(part.tangents)] + pad[1] for part in level]

    return factor


def test_localize_counts_fixed_points():
    # a local factor of prod(tangents) makes every fixed point count once
    for k in range(5):
        for m in (*WORD_PRIMES[:2], WORD_PRIMES[0] * WORD_PRIMES[1]):
            got = localize(F1, k, _tangent_products(k), (53, 59), (2 * k + 1,), m)
            assert got == {(2 * k,): count_fixed_points(F1, k)}


def _one_at_first_point(p, table):
    # 1 at u^0 for each partition of n >= 1 at point 0 only: not a class
    for n, level in enumerate(table):
        yield [[1 if n == 0 or p == 0 else 0, 0, 0]] * len(level)


def test_localize_rejects_a_class_whose_lower_degrees_do_not_cancel():
    with pytest.raises(ComputationError, match="below degree 2 do not cancel"):
        localize(P2, 1, _one_at_first_point, (53, 59), (3,), WORD_PRIMES[0])


@pytest.fixture
def tampered_lines(monkeypatch):
    """Shift every line weight at the first surface point by one.

    The local integrands then no longer come from one equivariant bundle,
    so their classes of degree below 2k stop cancelling."""
    spec_lines = integrals._spec_lines

    def tampered(bundle, z):
        (plus, minus), *rest = spec_lines(bundle, z)
        return [([w + 1 for w in plus], [w + 1 for w in minus]), *rest]

    monkeypatch.setattr(integrals, "_spec_lines", tampered)


@pytest.mark.parametrize(
    "call",
    [
        lambda: integrate(IntegralRequest(
            P2, 1, {"A": split_bundle(P2, [1, 2])}, ChernExpr.chern(2, "A")
        )),
        lambda: chi_theta(P2, split_bundle(P2, [1, 1], [2]), 1),
        lambda: virtual_integral(P2, split_bundle(P2, [-2, -3]), None, 1),
    ],
    ids=["integrate", "chi_theta", "virtual_integral"],
)
def test_every_sum_checks_that_lower_degrees_cancel(tampered_lines, call):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # off-dimension and orthogonality
        with pytest.raises(ComputationError, match="below degree 2 do not cancel"):
            call()


def _spy_on_reconstruct(monkeypatch) -> list[list[int]]:
    """Per reconstruct call (one per specialization), the moduli it asked for."""
    calls = []

    def spy(residue_mod):
        calls.append([])

        def recorded(m):
            calls[-1].append(m)
            return residue_mod(m)

        return reconstruct(recorded)

    monkeypatch.setattr(integrals, "reconstruct", spy)
    return calls


def test_two_prime_value_takes_one_pass_per_specialization(monkeypatch):
    calls = _spy_on_reconstruct(monkeypatch)
    assert quot_count(P2, split_bundle(P2, [-2, -3]), 3) == 20
    assert calls == [[WORD_PRIMES[0] * WORD_PRIMES[1]]] * 2


# ---------------------------------------------------------------------------
# quotient counts


def test_quot_count_module_example():
    v = split_bundle(P2, [-2, -3])  # V* = O(2) + O(3)
    assert quot_count(P2, v, 1) == 6


def test_quot_count_k1_is_surface_c2():
    rng = random.Random(20260815)
    surfaces = (P2, QUADRIC, F1)
    for _ in range(10):
        surface = surfaces[rng.randrange(3)]
        rank = rng.choice((2, 3))
        degs = [
            tuple(rng.randint(-2, 3) for _ in range(surface.divisor_rank))
            for _ in range(rank)
        ]
        vstar = split_bundle(surface, degs)
        expected = c2_by_surface_localization(surface, vstar)
        assert expected == vstar.chern_data().c2
        assert quot_count(surface, vstar.dual(), 1) == expected


def test_quot_count_rank_one_vanishes():
    v = split_bundle(P2, [-2])
    for k in range(1, 6):
        assert quot_count(P2, v, k) == 0


def test_quot_count_beyond_two_primes(monkeypatch):
    # a 64-bit count: rebuilding it takes the residues of at least 3 primes,
    # and settling takes one more
    calls = _spy_on_reconstruct(monkeypatch)
    v = split_bundle(P2, [-40] * 3)
    assert quot_count(P2, v, 6) == 16674716984097321750
    moduli = [prod(WORD_PRIMES[:j]) for j in (2, 3, 4)]
    assert calls == [moduli] * 2


def test_quot_count_trivial_cases():
    assert quot_count(P2, split_bundle(P2, [-1, -1]), 0) == 1
    with pytest.raises(UsageError):
        quot_count(P2, SplitBundle(P2), 1)
    with pytest.raises(UsageError, match="negative k"):
        quot_count(P2, split_bundle(P2, [-2, -3]), -1)


def test_quot_count_seed_invariance():
    v = split_bundle(P2, [-2, -3])
    values = {quot_count(P2, v, 2, seed=s) for s in range(1, 6)}
    assert len(values) == 1


def test_quot_count_shift_invariance():
    v = split_bundle(P2, [-2, -3])
    shifted = v.shifted(Weight(4, -7))
    for k in (1, 2):
        assert quot_count(P2, v, k) == quot_count(P2, shifted, k)


def test_quot_count_uses_cache(tmp_path):
    from hilbloc.cache import ResultCache

    cache = ResultCache(tmp_path / "c.jsonl")
    v = split_bundle(P2, [-2, -3])
    first = quot_count(P2, v, 2, cache=cache)
    assert (tmp_path / "c.jsonl").exists()
    assert quot_count(P2, v, 2, cache=cache) == first


# ---------------------------------------------------------------------------
# determinant line bundle chi


def test_chi_theta_structure_sheaf():
    for surface in (P2, QUADRIC):
        for k in range(6):
            assert chi_theta(surface, SplitBundle(surface), k) == 1


def test_chi_theta_warns_when_not_orthogonal():
    with pytest.warns(UserWarning):
        chi_theta(P2, line_bundle(P2, (1,)), 1)


def test_chi_theta_shift_invariance():
    e = split_bundle(P2, [4, 5])
    shifted = e.shifted(Weight(-3, 2))
    with pytest.warns(UserWarning):
        base = chi_theta(P2, e, 2)
    with pytest.warns(UserWarning):
        assert chi_theta(P2, shifted, 2) == base


# ---------------------------------------------------------------------------
# the expected-dimension-zero family


def test_expected_dim_pairs():
    vstar = split_bundle(P2, [2, 3])
    assert expected_dim_pairs(P2, vstar.dual(), 1) == 15
    v3 = ChernData(3, (-4,), c2_for_expected_dim_zero(3, 4, 2))
    assert expected_dim_pairs(P2, v3, 2) == 0
    for rank in (0, -2):
        with pytest.raises(UsageError):
            expected_dim_pairs(P2, ChernData(rank, (1,), 0), 1)


def test_c2_for_expected_dim_zero_values():
    assert c2_for_expected_dim_zero(3, 7, 1) == 36
    assert c2_for_expected_dim_zero(3, 7, 2) == 35
    assert c2_for_expected_dim_zero(2, 5, 9) == 21
    with pytest.raises(UsageError):
        c2_for_expected_dim_zero(1, 3, 1)
    with pytest.raises(UsageError):
        c2_for_expected_dim_zero(3, 3, 0)


@given(st.integers(2, 8), st.integers(1, 12), st.integers(1, 20))
def test_c2_for_expected_dim_zero_zeroes_the_expected_dimension(r, d, k):
    v = ChernData(r, (-d,), c2_for_expected_dim_zero(r, d, k))
    assert expected_dim_pairs(P2, v, k) == 0


def test_validate_construction_fixtures():
    assert validate_construction(2, 1, 1).ok
    rep = validate_construction(2, 3, 5)
    assert not rep.ok
    assert any("lower" in v for v in rep.violations)
    assert validate_construction(2, 3, 7).ok
    assert not validate_construction(1, 1, 1).ok
    assert not validate_construction(2, 0, 0).ok
    upper = validate_construction(2, 2, 5)
    assert not upper.ok and any("upper" in v for v in upper.violations)


def test_verify_conjecture_small():
    rows = verify_conjecture(P2, 3, 5, 2)
    assert [(r.quot, r.chi, r.equal) for r in rows] == [
        (21, 21, True),
        (165, 165, True),
    ]
    data = rows[0].to_json()
    assert data["quot_count"] == "21" and data["equal"] is True


def test_verify_conjecture_input_validation():
    with pytest.raises(UsageError):
        verify_conjecture(QUADRIC, 3, 5, 1)
    with pytest.raises(UsageError):
        verify_conjecture(P2, 2, 5, 1)
    with pytest.raises(UsageError):
        verify_conjecture(P2, 3, 0, 1)

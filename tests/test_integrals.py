"""Hilbert-scheme integrals: quotient counts and determinant chi."""

import json
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from math import factorial, prod
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from hilbloc import integrals
from hilbloc.cache import ResultCache
from hilbloc.errors import ComputationError, PoleError, UsageError
from hilbloc.hilb import Partition, cell_tangent_weights, count_fixed_points, partitions
from hilbloc.integrals import (
    ChernExpr,
    Term,
    c2_for_expected_dim_zero,
    chern_levels,
    chern_rows,
    chi_theta,
    expected_dim_pairs,
    integrate,
    level_sum,
    parse_chern_expr,
    partition_table,
    q_product,
    quot_count,
    theta_level,
    top_degree,
    validate_construction,
    verify_conjecture,
)
from hilbloc.symbolic import (
    PRIME_POOL,
    WORD_PRIMES,
    Weight,
    dual_specialized,
    reconstruct,
    residue,
    signed_chern_coefficients,
)
from hilbloc.tautological import virtual_integral
from hilbloc.toric import (
    ChernData,
    SplitBundle,
    chi_pair,
    e_from_v,
    line_bundle,
    make_surface,
    realize_split_model,
    split_bundle,
)

from oracles import (
    brute_chern_integral,
    brute_chi_theta,
    brute_realize_split_model,
    c2_by_surface_localization,
    rank_0_theta_series,
    todd_series,
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
    with pytest.raises(UsageError, match="need homogeneous degree 2k"):
        integrate(P2, 1, {"A": v}, ChernExpr.chern(1, "A"))


def test_request_rejects_undeclared_ids():
    v = split_bundle(P2, [1, 2])
    with pytest.raises(UsageError, match=r"undeclared bundle ids in expression: \['B'\]"):
        integrate(P2, 1, {"A": v}, ChernExpr.chern(2, "B"))


def test_integrate_on_a_point():
    assert integrate(P2, 0, {}, ChernExpr.constant(Fraction(5, 3))) == Fraction(5, 3)


def test_integrate_composite_expression():
    # c1(A)^2 - c2(A) with A = O(1) + O(2): weights give an exact integer
    v = split_bundle(P2, [1, 2])
    expr = parse_chern_expr("c1(A)*c1(A) - c2(A)")
    direct = integrate(P2, 1, {"A": v}, expr)
    c1sq = parse_chern_expr("c1(A)*c1(A)")
    parts = (
        integrate(P2, 1, {"A": v}, c1sq),
        integrate(P2, 1, {"A": v}, ChernExpr.chern(2, "A")),
    )
    assert direct == parts[0] - parts[1]


def test_integrate_takes_a_coefficient_over_a_word_prime():
    # the coefficients' denominator is scaled away before any residue is
    # taken, so one with no image in Z/p still gives the exact value
    p = WORD_PRIMES[0]
    expr = ChernExpr.chern(2, "A", Fraction(1, p))
    assert integrate(P2, 1, {"A": split_bundle(P2, [1, 2])}, expr) == Fraction(2, p)


@settings(max_examples=25)
@given(st.data())
def test_integrate_matches_brute_tuple_sum(data):
    surface, k = data.draw(surfaces_and_k())
    a = data.draw(split_bundles(surface))
    b = data.draw(split_bundles(surface))
    i = data.draw(st.integers(1, 2 * k - 1))
    coeff = data.draw(st.fractions(-5, 5, max_denominator=4))
    # a two-factor term c_i(A) c_{2k-i}(B) plus a one-factor term
    expr = ChernExpr((
        Term(Fraction(1), (("A", i), ("B", 2 * k - i))),
        Term(coeff, (("A", 2 * k),)),
    )).collect()
    bundles = {"A": a, "B": b}
    value = integrate(surface, k, bundles, expr)
    assert value == brute_chern_integral(surface, k, bundles, expr)


@settings(max_examples=25)
@given(st.data())
def test_chi_theta_matches_brute_tuple_sum(data):
    surface, k = data.draw(surfaces_and_k())
    e = data.draw(split_bundles(surface))
    # a shift of the linearization moves the line weights, which the oracle
    # reads, and leaves the Chern data, which chi_theta reads
    s = Weight(data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # e is rarely orthogonal
        value = chi_theta(surface, e.chern_data(), k)
        assert chi_theta(surface, e.shifted(s), k) == value
    assert value == brute_chi_theta(surface, e.shifted(s), k)


def _ones(k, m):
    """1 for every partition of n <= k, over its tangent product."""

    def factor(p, s1, s2):
        for n in range(k + 1):
            level = partition_table(s1, s2, n, m)
            yield level_sum(level, [[1]] * len(level), m)

    return factor


def test_localize_raises_pole_error_on_vanishing_tangent_weight():
    # z = (1, 1) kills t2 - t1, a chart weight at the second point of P2
    m = WORD_PRIMES[0]
    pole = r"tangent weight vanished at point 1 under z=\(1, 1\)"
    with pytest.raises(PoleError, match=pole):
        q_product(P2, 1, _ones(1, m), (1, 1), (1,), m, 1)
    # no table is kept at a pole: a second call raises again
    with pytest.raises(PoleError, match=pole):
        q_product(P2, 1, _ones(1, m), (1, 1), (1,), m, 1)
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
    grown = chern_rows(s1, s2, n_max, plus, minus, top, m)
    for n, (inverses, rows) in enumerate(zip(table, grown, strict=True)):
        hooks = integrals._hook_table(n)
        # every partition of n, once
        assert sorted(entry[0] for entry in hooks) == sorted(
            lam.parts for lam in partitions(n)
        )
        assert len(inverses) == len(rows) == len(hooks)
        for entry, inverse, row in zip(hooks, inverses, rows):
            parts, parent, (i, j), (row_sum, col_sum), *_ = entry
            cells = set(Partition(parts).cells())
            if n:
                # the parent is the partition with one cell removed, the
                # last cell
                smaller = set(Partition(integrals._hook_table(n - 1)[parent][0]).cells())
                assert smaller < cells and cells - smaller == {(i, j)}
            shifts = [i * s1 + j * s2 for i, j in cells]
            assert row_sum * s1 + col_sum * s2 == sum(shifts)
            tangents = cell_tangent_weights(s1, s2, Partition(parts))
            assert inverse * prod(tangents) % m == 1
            # the grown row is the row of all the cells, from scratch
            assert row == signed_chern_coefficients(
                [w + s for w in plus for s in shifts],
                [w + s for w in minus for s in shifts],
                [1] + [0] * top,
                m,
            )


def _arm_leg_table(s1, s2, n, m):
    """Per partition of n: its parts, its parent's index, its last cell's
    shift, its shift sum and its inverse tangent product, each from
    Partition.cells and ``hilb.cell_tangent_weights`` alone."""
    smaller = [lam.parts for lam in partitions(n - 1)] if n else []
    for lam in partitions(n):
        parent = shift = 0
        if lam.parts:
            i, j = len(lam.parts) - 1, lam.parts[-1] - 1
            parent = smaller.index(tuple(x for x in lam.parts[:-1] + (j,) if x))
            shift = i * s1 + j * s2
        den = prod(cell_tangent_weights(s1, s2, lam))
        yield (
            lam.parts,
            parent,
            shift,
            sum(i * s1 + j * s2 for i, j in lam.cells()),
            pow(den, -1, m) if den else None,
        )


def _table_at(s1, s2, n, m):
    """``_arm_leg_table``'s entries, read off ``_hook_table(n)`` at the chart
    and ``partition_table``."""
    return [
        (parts, parent, i * s1 + j * s2, rows * s1 + cols * s2, inverse)
        for (parts, parent, (i, j), (rows, cols), *_), inverse in zip(
            integrals._hook_table(n), partition_table(s1, s2, n, m), strict=True
        )
    ]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_partition_table_is_the_arm_leg_route(data):
    surface = data.draw(st.sampled_from((P2, QUADRIC, F1)))
    p = data.draw(st.integers(0, len(surface.points) - 1))
    z = tuple(data.draw(st.lists(
        st.sampled_from(PRIME_POOL), min_size=2, max_size=2, unique=True
    )))
    n = data.draw(st.integers(0, 9))
    m = data.draw(st.sampled_from((WORD_PRIMES[0], WORD_PRIMES[0] * WORD_PRIMES[1])))
    v1, v2 = surface.points[p]
    s1, s2 = v1.spec_int(*z), v2.spec_int(*z)
    assert _table_at(s1, s2, n, m) == list(_arm_leg_table(s1, s2, n, m))


def test_partition_table_keeps_poles_at_a_pole_chart():
    # the table raises PoleError exactly at the levels where the arm/leg
    # route has a zero tangent product, and matches it everywhere else.
    # z = (1, 1) kills t2 - t1, a chart weight at the second point of P2, so
    # every n >= 1 has a pole there; at (2, 1) a cell with arm a = 2(leg + 1)
    # or a + 1 = 2 leg has a zero weight, so every n >= 3 has one
    m = WORD_PRIMES[0]
    v1, v2 = P2.points[1]
    s1, s2 = v1.spec_int(1, 1), v2.spec_int(1, 1)
    assert 0 in (s1, s2)
    for chart, first_pole in (((s1, s2), 1), ((2, 1), 3)):
        for n in range(6):
            oracle = list(_arm_leg_table(*chart, n, m))
            if n < first_pole:
                assert _table_at(*chart, n, m) == oracle
                continue
            assert any(inv is None for *_, inv in oracle)
            with pytest.raises(PoleError, match="^tangent weight vanished$"):
                partition_table(*chart, n, m)


def _tangent_products(k, m):
    """The tangent product at u^(2n) for a partition of n: a class of degree 2k."""

    def factor(p, s1, s2):
        for n in range(k + 1):
            pad = [0] * (2 * n), [0] * (2 * (k - n))
            yield level_sum(partition_table(s1, s2, n, m), [
                pad[0] + [prod(cell_tangent_weights(s1, s2, lam))] + pad[1]
                for lam in partitions(n)
            ], m)

    return factor


def test_localize_counts_fixed_points():
    # a local factor of the tangent product makes every fixed point count once
    for k in range(5):
        for m in (*WORD_PRIMES[:2], WORD_PRIMES[0] * WORD_PRIMES[1]):
            (s,) = q_product(F1, k, _tangent_products(k, m), (53, 59), (2 * k + 1,), m, k)
            assert top_degree(s, (2 * k + 1,), k) == {(2 * k,): count_fixed_points(F1, k)}


_PEAK_GROWTH = """\
from hilbloc.integrals import quot_count
from hilbloc.toric import make_surface, split_bundle


def peak_kb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])


P2 = make_surface("P2")
before = peak_kb()
# V* = O(1) + O(2) has rank 2 and c2 = 2, so the count is C(2, 20) = 0
assert quot_count(P2, split_bundle(P2, [-1, -2]), 20, cache=None) == 0
print(peak_kb() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_quot_count_at_k_20_grows_the_peak_by_at_most_20_mb():
    # the partition tables keep no specialized tangent weights, and the hook
    # tables keep their forms flat: with a tuple of 2n weights per
    # partition, chart and modulus, and 2n (a, b) pairs per hook entry, the
    # peak resident set of a fresh process grew by 34.4 MB here
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_GROWTH],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 20 * 1024


def _one_at_first_point(m):
    # 1 at u^0 for each partition of n >= 1 at point 0 only: not a class

    def factor(p, s1, s2):
        for n in range(2):
            level = partition_table(s1, s2, n, m)
            yield level_sum(level, [[1 if n == 0 or p == 0 else 0, 0, 0]] * len(level), m)

    return factor


def test_localize_rejects_a_class_whose_lower_degrees_do_not_cancel():
    m = WORD_PRIMES[0]
    (s,) = q_product(P2, 1, _one_at_first_point(m), (53, 59), (3,), m, 1)
    with pytest.raises(ComputationError, match="below degree 2 do not cancel"):
        top_degree(s, (3,), 1)


def _clear_tables():
    partition_table.cache_clear()
    integrals._chi_product.cache_clear()
    integrals._chern_table.cache_clear()


@pytest.fixture
def tampered_lines(monkeypatch):
    """Shift every line weight at the first surface point by one (by t1 for
    chi_theta's determinant, which it reads off ``line_bundle``).

    The local integrands then no longer come from one equivariant bundle,
    so their classes of degree below 2k stop cancelling."""
    spec_lines, line_bundle = integrals._spec_lines, integrals.line_bundle

    def tampered(bundle, z):
        (plus, minus), *rest = spec_lines(bundle, z)
        return [([w + 1 for w in plus], [w + 1 for w in minus]), *rest]

    def tampered_line(surface, degrees):
        first, *rest = line_bundle(surface, degrees).weights
        return SimpleNamespace(weights=(first + Weight(1, 0), *rest))

    monkeypatch.setattr(integrals, "_spec_lines", tampered)
    monkeypatch.setattr(integrals, "line_bundle", tampered_line)
    # a product built from untampered lines must not be served, and one
    # built from tampered lines must not outlive the test
    _clear_tables()
    yield
    _clear_tables()


@pytest.mark.parametrize(
    "call",
    [
        lambda: integrate(
            P2, 1, {"A": split_bundle(P2, [1, 2])}, ChernExpr.chern(2, "A")
        ),
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
    # a 64-bit count lies outside the symmetric window of one prime, so it
    # settles at the third
    calls = _spy_on_reconstruct(monkeypatch)
    v = split_bundle(P2, [-40] * 3)
    assert quot_count(P2, v, 6) == 16674716984097321750
    moduli = [prod(WORD_PRIMES[:j]) for j in (2, 3)]
    assert calls == [moduli] * 2


def test_quot_count_above_2_30_takes_one_pass(monkeypatch):
    # any integer below 2^60 in absolute value settles at the first modulus
    calls = _spy_on_reconstruct(monkeypatch)
    v = split_bundle(P2, [-40] * 3)
    assert quot_count(P2, v, 4) == 21954986690487
    assert calls == [[WORD_PRIMES[0] * WORD_PRIMES[1]]] * 2


def test_quot_count_trivial_cases():
    assert quot_count(P2, split_bundle(P2, [-1, -1]), 0) == 1
    with pytest.raises(UsageError):
        quot_count(P2, SplitBundle(P2), 1)
    with pytest.raises(UsageError, match="negative k"):
        quot_count(P2, split_bundle(P2, [-2, -3]), -1)


@pytest.mark.parametrize("call", [
    lambda: quot_count(P2, split_bundle(P2, [-2, -3]), 2.0),
    lambda: chi_theta(P2, ChernData(1, (1,), 0), 2.5),
    lambda: verify_conjecture(P2, 3, 7, 2.5),
    lambda: expected_dim_pairs(P2, ChernData(3, (1,), 0), 1.5),
    lambda: quot_count(P2, split_bundle(P2, [-2, -3]), True),
], ids=["quot_count", "chi_theta", "verify_conjecture", "expected_dim_pairs",
        "bool"])
def test_a_k_that_is_not_an_integer_is_a_usage_error(call):
    # quot_count, chi_theta and verify_conjecture ended in a raw TypeError;
    # expected_dim_pairs returned -0.5, and k = True ran as k = 1 under a
    # cache key of its own
    with pytest.raises(UsageError, match="k must be an integer, got"):
        call()


def test_expected_dim_pairs_takes_any_k():
    # a closed form builds no series, so no k is too large for it (one whose
    # series of 2k + 1 terms would not fit a list was refused)
    assert expected_dim_pairs(P2, ChernData(3, (-7,), 0), 10**20) == 37 - 10**20
    assert expected_dim_pairs(P2, split_bundle(P2, [-2, -3]), 10**20) == 15


@pytest.mark.parametrize("call, message", [
    (lambda: chi_theta(P2, ChernData(2.0, (1,), 0), 1), "rank must be an integer"),
    (lambda: chi_theta(P2, ChernData(True, (1,), 0), 1), "rank must be an integer"),
    (lambda: expected_dim_pairs(P2, ChernData(2, (1,), 0.5), 1), "c2 must be an integer"),
    (lambda: chi_pair(P2, ChernData(2, ("a",), 0), 1), "c1 entries must be integers"),
    (lambda: ChernData(2, 5, 0), "c1 must be a tuple, got 5"),
    (lambda: ChernData(2, [1], 0), r"c1 must be a tuple, got \[1\]"),
], ids=["float rank", "bool rank", "c2", "c1", "int c1", "list c1"])
def test_chern_data_that_is_not_made_of_integers_is_a_usage_error(call, message):
    # chi_theta keyed a float or bool rank under cache lines of its own (True
    # ran as rank 1), expected_dim_pairs returned -0.5, chi_pair ended in a
    # raw TypeError, an int c1 in one too, and a list c1 made a frozen value
    # that hash() refused
    with pytest.raises(UsageError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: verify_conjecture(P2, "3", 7, 2), "r must be an integer, got '3'"),
    (lambda: verify_conjecture(P2, True, 7, 2), "r must be an integer, got True"),
    (lambda: verify_conjecture(P2, 3, None, 2), "d must be an integer, got None"),
    (lambda: verify_conjecture(P2, 3, 7, "2"), "k must be an integer, got '2'"),
    (lambda: c2_for_expected_dim_zero(3, 7, "a"), "k must be an integer, got 'a'"),
    (lambda: chi_pair(P2, ChernData(2, (1,), 0), "a"), "k must be an integer, got 'a'"),
    (lambda: e_from_v(ChernData(2, (1,), 0), "a"), "k must be an integer, got 'a'"),
], ids=["verify r", "verify bool r", "verify d", "verify k_max", "c2_for_zero k",
        "chi_pair k", "e_from_v k"])
def test_an_argument_that_is_not_an_integer_is_a_usage_error(call, message):
    # each ended in a raw TypeError, and a bool r read "need rank r >= 3"
    with pytest.raises(UsageError, match=f"^{message}$"):
        call()


def test_quot_count_refuses_a_bundle_on_another_surface():
    # named as the argument, not as the internal id of its dual
    for k in (0, 1):
        with pytest.raises(UsageError, match=r"^V lives on P1xP1$"):
            quot_count(P2, split_bundle(QUADRIC, [(1, 0), (0, 1)]), k)


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
    cache = ResultCache(tmp_path / "c.jsonl")
    v = split_bundle(P2, [-2, -3])
    first = quot_count(P2, v, 2, cache=cache)
    assert (tmp_path / "c.jsonl").exists()
    assert quot_count(P2, v, 2, cache=cache) == first


def test_sums_at_k0_are_constants_and_write_no_cache_line(tmp_path):
    # X^[0] is a point: an integral is the expression's constant, and no
    # sum runs, so no cache line is written
    path = tmp_path / "c.jsonl"
    bundles = {"A": split_bundle(P2, [1, 2])}
    for expr, value in ((ChernExpr.constant(Fraction(5, 3)), Fraction(5, 3)),
                        (ChernExpr(()), 0)):
        assert integrate(P2, 0, bundles, expr, cache=ResultCache(path)) == value
    assert quot_count(P2, split_bundle(P2, [-2, -3]), 0, cache=ResultCache(path)) == 1
    assert not path.exists()


def test_quot_count_refuses_a_non_integral_cached_value(tmp_path):
    # a count is an integer for every V, minus lines or not, so a cache
    # line holding 1/2 is refused
    path = tmp_path / "c.jsonl"
    v = split_bundle(P2, [2, 3], [1]).dual()  # V* has a minus line
    assert quot_count(P2, v, 1, cache=ResultCache(path)) == 2  # c2(V*)
    rec = json.loads(path.read_text())
    rec["value_numerator"], rec["value_denominator"] = "1", "2"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ComputationError, match="non-integral: 1/2"):
        quot_count(P2, v, 1, cache=ResultCache(path))


# ---------------------------------------------------------------------------
# determinant line bundle chi


def test_chi_theta_structure_sheaf():
    for surface in (P2, QUADRIC):
        for k in range(6):
            assert chi_theta(surface, SplitBundle(surface), k) == 1


def test_chi_theta_refuses_a_bundle_on_another_surface():
    # its c1 would be read in another divisor basis
    with pytest.raises(UsageError, match="lives on Hirzebruch"):
        chi_theta(QUADRIC, split_bundle(F1, [(1, 1)]), 1)


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


def _refuse_to_compute(*args, **kwargs):
    raise AssertionError("a cached value was computed again")


def test_chi_theta_keys_a_value_by_rank_and_c1(tmp_path, monkeypatch):
    # O(1)+O(2) and O(0)+O(3) have one rank and c1, and c2 = 2 and 0
    path = tmp_path / "c.jsonl"
    a, b = split_bundle(P2, [1, 2]), split_bundle(P2, [0, 3])
    assert (a.chern_data().c2, b.chern_data().c2) == (2, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # neither is orthogonal
        first = [chi_theta(P2, a, k, cache=ResultCache(path)) for k in (1, 2, 3)]
        lines = path.read_text().splitlines()
        monkeypatch.setattr(integrals, "dual_specialized", _refuse_to_compute)
        second = [chi_theta(P2, b, k, cache=ResultCache(path)) for k in (1, 2, 3)]
    assert first == second == [10, 27, 20]
    assert len(lines) == 3 and path.read_text().splitlines() == lines


def _count_product_builds(monkeypatch) -> list[int]:
    """The k of every q-product taken at all of q^0..q^k: chi_theta's
    builds.  The Chern sums take q^k alone."""
    builds = []
    q_product = integrals.q_product

    def counted(surface, k, point_factor, z, width, m, low):
        if low == 0:
            builds.append(k)
        return q_product(surface, k, point_factor, z, width, m, low)

    monkeypatch.setattr(integrals, "q_product", counted)
    return builds


@pytest.mark.parametrize("surface", (P2, QUADRIC, F1), ids=lambda s: s.name)
def test_chi_theta_is_the_same_from_a_higher_order_table(surface, monkeypatch):
    first, second = ((1, 2), (2, 1)) if surface.divisor_rank == 2 else ((1,), (2,))
    zero = (0,) * surface.divisor_rank
    bundles = [
        split_bundle(surface, [first], [zero]),  # rank 0
        split_bundle(surface, [first]),  # rank 1
        split_bundle(surface, [first, second]),  # rank 2
    ]
    ks = range(1, 6)
    builds = _count_product_builds(monkeypatch)

    def values(order_of_k, clear_each):
        out = {}
        _clear_tables()
        builds.clear()
        for e in bundles:
            for k in order_of_k:
                if clear_each:
                    _clear_tables()
                out[e, k] = chi_theta(surface, e, k)
        return out

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the bundles are not orthogonal
        fresh = values(ks, clear_each=True)
        # from k = 5 down every k reads the q^k row of the order-10 product,
        # built once per e and specialization; from k = 1 up every k builds
        # it again
        assert values(ks[::-1], clear_each=False) == fresh
        assert builds == [5] * 2 * len(bundles)
        assert values(ks, clear_each=False) == fresh
        assert builds == [k for _ in bundles for k in ks for _ in range(2)]


def test_theta_level_keeps_nothing_from_a_pole():
    m = WORD_PRIMES[0]
    _clear_tables()
    # s1 = 0 is a tangent weight of the one-cell partition
    for _ in range(2):
        with pytest.raises(PoleError):
            theta_level(0, 59, 1, m, 1, 0, 4)


def _theta_level_by_fractions(s1, s2, n, rank, det, order):
    """theta_level's series over the rationals, from the cells of each
    partition and the oracle's Todd series."""
    total = [Fraction(0)] * (order + 1)
    for lam in partitions(n):
        tangents = cell_tangent_weights(s1, s2, lam)
        theta = n * det + rank * sum(i * s1 + j * s2 for i, j in lam.cells())
        series = [Fraction(-theta) ** t / factorial(t) for t in range(order + 1)]
        for v in tangents:
            todd = todd_series(v, order)
            series = [
                sum(series[i] * todd[t - i] for i in range(t + 1))
                for t in range(order + 1)
            ]
        total = [a + s / prod(tangents) for a, s in zip(total, series)]
    return total


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_theta_level_is_the_twisted_todd_sum(data):
    surface = data.draw(st.sampled_from((P2, QUADRIC, F1)))
    p = data.draw(st.integers(0, len(surface.points) - 1))
    z = tuple(data.draw(st.lists(
        st.sampled_from(PRIME_POOL), min_size=2, max_size=2, unique=True
    )))
    n = data.draw(st.integers(0, 5))
    rank = data.draw(st.integers(-2, 3))
    det = data.draw(st.integers(-60, 60))
    order = data.draw(st.integers(1, 12))
    m = data.draw(st.sampled_from((WORD_PRIMES[0], WORD_PRIMES[0] * WORD_PRIMES[1])))
    v1, v2 = surface.points[p]
    s1, s2 = v1.spec_int(*z), v2.spec_int(*z)
    want = _theta_level_by_fractions(s1, s2, n, rank, det, order)
    assert theta_level(s1, s2, n, m, rank, det, order) == [residue(c, m) for c in want]


def test_chi_product_keeps_nothing_from_a_pole(monkeypatch):
    _clear_tables()
    z, m = (53, 53), WORD_PRIMES[0] * WORD_PRIMES[1]  # t2 - t1 vanishes
    kept = []

    def pole_first(compute, seed):
        for _ in range(2):
            with pytest.raises(PoleError):
                compute(z)
            kept.append(integrals._chi_product(P2, 0, (0,), z, m))
        return dual_specialized(compute, seed)

    monkeypatch.setattr(integrals, "dual_specialized", pole_first)
    assert chi_theta(P2, SplitBundle(P2), 3) == 1
    assert kept == [[], []]


@pytest.mark.parametrize("s1, s2", [(53, 97), (-61, 113), (7, -3)])
def test_rank_0_theta_table_is_the_plethystic_series(s1, s2):
    # at rank 0 and det 0 theta_level is chi of O on Hilb^n C^2 in Todd form,
    # which the oracle reads off a product formula with no partitions
    m, order = WORD_PRIMES[0], 12
    want = rank_0_theta_series(s1, s2, 5, order)
    for n in range(6):
        got = theta_level(s1, s2, n, m, 0, 0, order)
        assert got == [residue(c, m) for c in want[n]]


def _count_chern_rows(monkeypatch) -> list:
    """One entry per Chern row grown by ``signed_chern_coefficients``."""
    grown = []

    def counted(*args):
        grown.append(args)
        return signed_chern_coefficients(*args)

    monkeypatch.setattr(integrals, "signed_chern_coefficients", counted)
    return grown


def _chern_level_cases(surface):
    """(name, k range, call at k): Chern sums with plus and minus lines."""
    first, second = ((1, 2), (2, 1)) if surface.divisor_rank == 2 else ((1,), (2,))
    zero = (0,) * surface.divisor_rank
    v = split_bundle(surface, [first, second, zero], [first])
    b = split_bundle(surface, [second], [first, zero])
    cases = [
        ("quot_count", range(1, 5), lambda k: quot_count(surface, v, k)),
        ("integrate", range(1, 5), lambda k: integrate(
            surface, k, {"B": b}, ChernExpr.chern(2 * k, "B")
        )),
    ]
    if surface is P2:
        lam = split_bundle(P2, [2], [1])
        cases += [
            ("two factors", range(1, 5), lambda k: integrate(
                P2, k, {"A": v, "B": b}, parse_chern_expr(f"c1(A)*c{2 * k - 1}(B)")
            )),
            ("virtual_integral", range(1, 4), lambda k: virtual_integral(
                P2, split_bundle(P2, [1, 1], [1]).dual(), lam, k,
                parse_chern_expr(f"2/3*c1(IT)*c{2 * k}(IT) - 1/5*c{2 * k + 1}(IT)"),
            )),
        ]
    return cases


@pytest.mark.parametrize("surface", (P2, QUADRIC, F1), ids=lambda s: s.name)
def test_chern_levels_are_the_same_from_a_higher_build(surface, monkeypatch):
    grown = _count_chern_rows(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # off-dimension Lambda integrands
        for name, ks, call in _chern_level_cases(surface):
            fresh, rows = {}, {}
            for k in ks:
                _clear_tables()
                grown.clear()
                fresh[k] = call(k)
                rows[k] = len(grown)
            # from the top k down, every point of a one-factor sum reads its
            # levels off the first build, so no call after it grows a row;
            # a sum of two factors keys its table by its later factors' tops
            _clear_tables()
            grown.clear()
            assert {k: call(k) for k in reversed(ks)} == fresh, name
            if name in ("quot_count", "integrate"):
                assert len(grown) == rows[ks[-1]] > 0, name
            _clear_tables()
            assert {k: call(k) for k in ks} == fresh, name


def test_quot_count_reads_the_levels_of_the_virtual_integral(monkeypatch):
    # virtual_integral(P=1) of V at k is c_2k of V*^[k], the quot count's
    # integrand, so the quot count after it grows no Chern row
    c2 = c2_for_expected_dim_zero(3, 5, 3)
    v = realize_split_model(P2, ChernData(3, (-5,), c2).dual()).dual()
    _clear_tables()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the model of V* has minus lines
        assert virtual_integral(P2, v, None, 3) == 609
    grown = _count_chern_rows(monkeypatch)
    assert quot_count(P2, v, 3) == 609
    assert grown == []


def test_chern_levels_keep_nothing_from_a_pole():
    m = WORD_PRIMES[0]
    _clear_tables()
    lines = (((0, 5), (1,)),)
    # s1 = 0 is a tangent weight of the one-cell partition
    for _ in range(2):
        with pytest.raises(PoleError):
            chern_levels(0, 59, m, lines, (2,), 1)
        assert integrals._chern_table(0, 59, m, lines, ()) == []
    # a smaller k and first top is a prefix of the highest build, for one
    # factor and for two with the same second top
    two = lines + (((3,), ()),)
    high = chern_levels(53, 59, m, lines, (6,), 3)
    high_two = chern_levels(53, 59, m, two, (4, 1), 3)
    assert chern_levels(53, 59, m, lines, (2,), 1) == [s[:3] for s in high[:2]]
    served = chern_levels(53, 59, m, two, (2, 1), 2)
    assert served == [s[:6] for s in high_two[:3]]
    _clear_tables()
    assert chern_levels(53, 59, m, two, (2, 1), 2) == served


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_chern_levels_are_the_same_in_any_request_order(data):
    surface = data.draw(st.sampled_from((P2, QUADRIC, F1)))
    v1, v2 = data.draw(st.sampled_from(surface.points))
    s1, s2 = v1.spec_int(53, 59), v2.spec_int(53, 59)
    m = WORD_PRIMES[0]
    weights = st.lists(st.integers(-300, 300), max_size=3).map(lambda w: tuple(sorted(w)))
    lines = tuple(data.draw(st.lists(st.tuples(weights, weights), min_size=1, max_size=3)))
    requests = data.draw(st.lists(st.integers(0, 4).flatmap(lambda k: st.tuples(
        st.just(k), st.tuples(*[st.integers(0, 2 * k)] * len(lines))
    )), min_size=1, max_size=6))
    fresh = []
    for k, tops in requests:
        _clear_tables()
        fresh.append(chern_levels(s1, s2, m, lines, tops, k))
    # the same requests in a row, each served by the tables the ones
    # before it built, grown in k and the first top
    _clear_tables()
    assert [chern_levels(s1, s2, m, lines, tops, k) for k, tops in requests] == fresh


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


def test_expected_dim_pairs_refuses_a_bundle_on_another_surface():
    with pytest.raises(UsageError, match="V lives on P1xP1"):
        expected_dim_pairs(P2, split_bundle(QUADRIC, [(1, 0), (0, 1)]), 1)


def test_pair_readers_take_a_line_bundle():
    # a line is read as its Chern data, as chi_theta reads it
    assert chi_pair(P2, line_bundle(P2, (2,)), 1) == 5  # chi(O(2)) - 1
    assert expected_dim_pairs(P2, line_bundle(P2, (-2,)), 1) == 6
    with pytest.raises(UsageError, match="e lives on P1xP1"):
        chi_pair(P2, line_bundle(QUADRIC, (1, 0)), 1)
    with pytest.raises(UsageError, match="V lives on P1xP1"):
        expected_dim_pairs(P2, line_bundle(QUADRIC, (1, 0)), 1)


def test_chern_data_with_a_c1_of_the_wrong_length_is_refused():
    with pytest.raises(UsageError, match=r"P1xP1 wants 2 divisor degree\(s\) in c1, got 1"):
        expected_dim_pairs(QUADRIC, ChernData(3, (7,), 0), 1)
    with pytest.raises(UsageError, match="P1xP1 wants 2"):
        chi_pair(QUADRIC, ChernData(2, (7,), 0), 1)
    with pytest.raises(UsageError, match=r"P2 wants 1 divisor degree\(s\) in c1, got 2"):
        expected_dim_pairs(P2, ChernData(3, (7, 5), 0), 1)


def test_c2_for_expected_dim_zero_values():
    assert c2_for_expected_dim_zero(3, 7, 1) == 36
    assert c2_for_expected_dim_zero(3, 7, 2) == 35
    assert c2_for_expected_dim_zero(2, 5, 9) == 21
    with pytest.raises(UsageError):
        c2_for_expected_dim_zero(1, 3, 1)
    with pytest.raises(UsageError):
        c2_for_expected_dim_zero(3, 3, 0)
    # it returned 34.5 and 2
    with pytest.raises(UsageError, match="r must be an integer, got 3.5"):
        c2_for_expected_dim_zero(3.5, 7, 2)
    with pytest.raises(UsageError, match="d must be an integer, got True"):
        c2_for_expected_dim_zero(3, True, 2)


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
    with pytest.raises(UsageError, match="d must be an integer, got 2.5"):
        validate_construction(2, 2.5, 5)


@given(st.integers(2, 4), st.integers(-12, 0), st.integers(-5, 30))
def test_validate_construction_reports_any_degree_below_one(r, d, w):
    rep = validate_construction(r, d, w)
    assert not rep.ok
    assert rep.violations == (f"degree bound violated: d = {d} < 1",)


def test_verify_conjecture_small():
    rows = verify_conjecture(P2, 3, 5, 2)
    assert [(r.quot, r.chi, r.equal) for r in rows] == [
        (21, 21, True),
        (165, 165, True),
    ]
    data = rows[0].to_json()
    assert data["quot_count"] == "21" and data["equal"] is True


def test_verify_conjecture_searches_no_split_model(tmp_path, monkeypatch):
    # V* is written down, so a second run is served from the cache whole
    cache = ResultCache(tmp_path / "c.jsonl")
    rows = verify_conjecture(P2, 3, 7, 6, cache=cache)
    assert all(row.equal for row in rows)
    monkeypatch.setattr(integrals, "dual_specialized", _refuse_to_compute)
    assert verify_conjecture(P2, 3, 7, 6, cache=cache) == rows


def test_verify_conjecture_builds_one_chi_product_per_specialization(monkeypatch):
    # from k_max down, every chi_theta call reads the k_max product, and
    # every quot_count reads the first point's Chern levels (all line
    # weights 0 there) off the k_max build: 330 rows grown, not 2 * 3 * 68
    _clear_tables()
    builds = _count_product_builds(monkeypatch)
    grown = _count_chern_rows(monkeypatch)
    rows = verify_conjecture(P2, 3, 7, 6)
    assert builds == [6, 6]
    assert len(grown) == 408 - 2 * (68 - 29) == 330
    assert [(row.k, row.quot, row.chi) for row in rows] == [
        (1, 36, 36), (2, 546, 546), (3, 4556, 4556),
        (4, 22935, 22935), (5, 71940, 71940), (6, 140504, 140504),
    ]


def test_verify_conjecture_grows_past_the_benchmark():
    # the benchmark sweep stops at k = 9; these rows were measured before
    # the Todd and partition tables were rebuilt
    rows = verify_conjecture(P2, 3, 7, 13)
    assert [row.k for row in rows] == list(range(1, 14))
    assert all(row.error is None and row.quot == row.chi for row in rows)
    assert [(row.k, row.quot, row.equal) for row in rows[9:]] == [
        (10, 6804, True),
        (11, -7272, True),
        (12, 87639, True),
        (13, -950460, True),
    ]


def test_verify_conjecture_beyond_the_search_box():
    # V* needs lines of degree near 100, beyond the split-model search's box
    # of 16, so these rows ended in "no split model" errors
    rows = verify_conjecture(P2, 3, 100, 2)
    assert [(row.k, row.quot, row.chi, row.error) for row in rows] == [
        (1, 5151, 5151, None), (2, 13248675, 13248675, None),
    ]


@pytest.mark.parametrize("r, d", [(r, d) for r in (3, 4) for d in (1, 4, 7)])
def test_verify_conjecture_model_counts_as_the_searched_one(r, d):
    # universality: the quot count of the written-down V* is that of the
    # first split model a plain search finds with the same Chern data
    for row in verify_conjecture(P2, r, d, 3):
        plus, minus = brute_realize_split_model(
            P2, ChernData(r, (d,), row.c2_vstar), 16, 2
        )
        searched = split_bundle(P2, plus, minus)
        assert row.quot == quot_count(P2, searched.dual(), row.k)


def test_verify_conjecture_input_validation():
    with pytest.raises(UsageError):
        verify_conjecture(QUADRIC, 3, 5, 1)
    with pytest.raises(UsageError):
        verify_conjecture(P2, 2, 5, 1)
    with pytest.raises(UsageError):
        verify_conjecture(P2, 3, 0, 1)
    # it ended in "odd Riemann-Roch combination"
    with pytest.raises(UsageError, match="d must be an integer, got 7.5"):
        verify_conjecture(P2, 3, 7.5, 2)
    with pytest.raises(UsageError, match="r must be an integer, got 3.5"):
        verify_conjecture(P2, 3.5, 7, 2)
    with pytest.raises(UsageError, match="above MAX_K = 100"):
        verify_conjecture(P2, 3, 7, 10**9)

"""Virtual integrals on the ambient pair space and universal polynomials."""

import warnings
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from hilbloc.cache import ResultCache
from hilbloc.errors import ComputationError, UsageError
from hilbloc.integrals import (
    ChernExpr,
    c2_for_expected_dim_zero,
    expected_dim_pairs,
    parse_chern_expr,
    quot_count,
)
from hilbloc.symbolic import Weight
from hilbloc.tautological import (
    AmbientClass,
    SYMBOL_NAMES,
    UniversalPolynomial,
    _config_menu,
    _monomials,
    _solve_exact,
    universal_poly,
    virtual_integral,
)
from hilbloc.toric import (
    ChernData,
    SplitBundle,
    chi_surface,
    make_surface,
    realize_split_model,
    split_bundle,
)

from oracles import brute_virtual_integral, fraction_gauss_jordan

P2 = make_surface("P2")
QUADRIC = make_surface("P1xP1")
F1 = make_surface("Hirzebruch", 1)

coeff_dicts = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-5, max_value=5),
    max_size=6,
)


# ---------------------------------------------------------------------------
# bigraded polynomial arithmetic


def _nonzero(coeffs):
    return {k: v for k, v in coeffs.items() if v != 0}


@given(coeff_dicts, st.integers(-4, 4))
@settings(max_examples=60)
def test_trinomial_division_inverts_multiplication(coeffs, w):
    cls = AmbientClass(3, 3, dict(coeffs))
    back = cls.mul_trinomial(w).div_trinomial(w)
    assert _nonzero(back.coeffs) == _nonzero(cls.coeffs)


@given(coeff_dicts, st.integers(-3, 3))
@settings(max_examples=60)
def test_h_binomial_powers_cancel(coeffs, m):
    cls = AmbientClass(3, 3, dict(coeffs))
    back = cls.mul_h_binomial(m).mul_h_binomial(-m)
    # truncation can only lose h-degrees above hmax, which cancel exactly here
    assert _nonzero(back.coeffs) == _nonzero(cls.coeffs)


def test_component_and_slice():
    cls = AmbientClass(2, 2, {(0, 0): Fraction(1), (1, 1): Fraction(2),
                              (2, 0): Fraction(3)})
    assert cls.component(2).coeffs == {(1, 1): Fraction(2), (2, 0): Fraction(3)}
    assert cls.h_slice(1) == [Fraction(0), Fraction(2), Fraction(0)]


def test_h_binomial_negative_exponent_row():
    # (1+h)^(-2) = 1 - 2h + 3h^2 - ...
    cls = AmbientClass.one(3, 0).mul_h_binomial(-2)
    assert cls.h_slice(0)[0] == 1
    assert cls.coeffs[(1, 0)] == -2
    assert cls.coeffs[(2, 0)] == 3
    assert cls.coeffs[(3, 0)] == -4


# ---------------------------------------------------------------------------
# virtual integrals


def _zero_dim_model(r: int, d: int, k: int):
    c2s = c2_for_expected_dim_zero(r, d, k)
    return realize_split_model(P2, ChernData(r, (d,), c2s)).dual()


def test_virtual_equals_quot_on_sample():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for r, d, k in ((3, 4, 1), (3, 5, 2), (4, 6, 1), (3, 6, 3)):
            v = _zero_dim_model(r, d, k)
            assert virtual_integral(P2, v, None, k) == quot_count(P2, v, k)


def test_virtual_integral_point_case():
    v = realize_split_model(P2, ChernData(2, (0,), 1))  # chi(V*) = 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert virtual_integral(P2, v, None, 0) == 1


def test_virtual_integral_truncation_invariance():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        v = _zero_dim_model(3, 4, 2)
        assert virtual_integral(P2, v, None, 2) == quot_count(P2, v, 2)


def test_virtual_integral_seed_invariance():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        v = _zero_dim_model(3, 4, 1)
        values = {virtual_integral(P2, v, None, 1, seed=s) for s in range(1, 6)}
    assert len(values) == 1


def test_virtual_integral_ignores_twist_for_count_shape():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        v = _zero_dim_model(3, 4, 1)
        base = virtual_integral(P2, v, None, 1)
        for lam_degs in ([1], [0, 2], [-1]):
            lam = split_bundle(P2, lam_degs)
            assert virtual_integral(P2, v, lam, 1) == base


def test_virtual_integral_warns_on_virtual_v():
    v = _zero_dim_model(3, 4, 1)
    assert not v.is_honest()
    with pytest.warns(UserWarning):
        virtual_integral(P2, v, None, 1)


def _warned(*args):
    """virtual_integral's value and its warning messages."""
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        value = virtual_integral(*args)
    return value, [str(w.message) for w in rec]


def test_virtual_integral_warns_on_non_nef_dual():
    # V* = O(-1) + O(3) is honest but not nef, so Dp = chi(V*) - 1 is formal
    v = split_bundle(P2, [1, -3])
    lam = split_bundle(P2, [1])
    value, messages = _warned(P2, v, lam, 1)
    assert any("nef dual summands" in m for m in messages)
    # a shifted linearization is the same bundle, with the same integral
    assert _warned(P2, v.shifted(Weight(1, 0)), lam, 1) == (value, messages)


def test_virtual_integral_warns_off_dimension():
    cases = [
        (split_bundle(P2, [-2, -3]), None, None),  # expected dim 15
        (split_bundle(P2, [-2]), None, None),  # rank-1 V* = O(2): c_2(V*^[1]) = 0
        # Lambda = O(-1) has rank 1, so c_2(Lambda^[1]) = 0 reaches no h^Dp
        (split_bundle(P2, [0, 0]), split_bundle(P2, [-1]), ChernExpr.chern(2, "IT")),
    ]
    for v, lam, expr in cases:
        value, messages = _warned(P2, v, lam, 1, expr)
        assert any("virtual dimension" in m for m in messages)
        assert any("never reached" in m for m in messages)
        assert value == 0


def test_virtual_integral_warns_the_same_from_the_cache(tmp_path):
    path = tmp_path / "cache.jsonl"
    runs = []
    for _ in range(2):  # a miss, then a hit through a fresh cache object
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            # V* = O(2): c_2(V*^[1]) = 0 reaches no h^Dp
            value = virtual_integral(
                P2, split_bundle(P2, [-2]), None, 1, cache=ResultCache(path)
            )
        runs.append((value, [(str(w.message), w.filename) for w in rec]))
    assert len(path.read_text().splitlines()) == 1
    assert runs[0] == runs[1]
    assert any("never reached" in m for m, _ in runs[0][1])
    # every warning points at the caller
    assert {f for _, f in runs[0][1]} == {__file__}


def test_virtual_integral_rejects_empty_ambient():
    v = split_bundle(P2, [1, 1])  # V* = O(-1)^2, chi = 0
    with pytest.raises(UsageError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            virtual_integral(P2, v, None, 1)
    # V of rank -1: chi(V*) = 3, but there is no pair space to count on
    v = split_bundle(P2, [-1, -1], [0, 0, 0])
    with pytest.raises(UsageError, match="rank V >= 1"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # V has minus lines
            virtual_integral(P2, v, None, 1)


def test_virtual_integral_rejects_foreign_ids():
    v = split_bundle(P2, [-2, -3])
    with pytest.raises(UsageError):
        virtual_integral(P2, v, None, 1, ChernExpr.chern(2, "A"))


def test_virtual_integral_refuses_a_bundle_on_another_surface():
    # its degrees would be read in another divisor basis
    with pytest.raises(UsageError, match="V lives on P1xP1"):
        virtual_integral(P2, split_bundle(QUADRIC, [(-1, -1), (-1, 0)]), None, 1)
    lam = split_bundle(QUADRIC, [(1, 0)])
    with pytest.raises(UsageError, match="Lambda lives on P1xP1"):
        virtual_integral(P2, split_bundle(P2, [-2, -3]), lam, 1)


def test_virtual_integral_with_nontrivial_shape():
    # P = c2(IT) against Lambda = O on a dimension-2 family: stable under seeds
    vstar = realize_split_model(P2, ChernData(2, (2,), 3))  # chi(V*) = 3, Dp = 2
    v = vstar.dual()
    lam = split_bundle(P2, [0])
    expr = ChernExpr.chern(2, "IT")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = virtual_integral(P2, v, lam, 1, expr)
        assert virtual_integral(P2, v, lam, 1, expr, seed=99) == base


@pytest.mark.parametrize(
    "minus_v, k, value",
    [([1], 1, Fraction(25, 3)), ([], 2, Fraction(-483, 5))],
)
def test_virtual_integral_rebuilds_a_fraction(minus_v, k, value):
    # minus lines in Lambda (and in V* for k = 1), rational coefficients
    vstar = split_bundle(P2, [1, 1], minus_v)
    lam = split_bundle(P2, [2], [1])
    expr = parse_chern_expr(
        f"2/3*c1(IT)*c{2 * k}(IT) - 1/5*c{2 * k + 1}(IT)"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = virtual_integral(P2, vstar.dual(), lam, k, expr)
    assert got == value
    assert brute_virtual_integral(P2, vstar.dual(), lam, k, expr) == (value, True)


def test_virtual_integral_of_a_three_factor_sum():
    # c_b(V*^[2]) c1(Lambda^[2]) c1(Lambda^[2]): three Chern factors per term
    v = split_bundle(P2, [1, 0, 0]).dual()
    lam = split_bundle(P2, [2])
    expr = parse_chern_expr("c1(IT)*c1(IT)")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert virtual_integral(P2, v, lam, 2, expr) == 10
    assert brute_virtual_integral(P2, v, lam, 2, expr) == (10, True)


@st.composite
def ambient_cases(draw):
    """(surface, V, Lambda, k, P) with small degrees; minus lines allowed.

    The Chern degree of P is aimed at the virtual dimension, so that most
    draws integrate a class of the right degree.
    """
    surface = draw(st.sampled_from((P2, QUADRIC, F1)))
    nef = st.tuples(*[st.integers(0, 1)] * surface.divisor_rank)
    vstar = split_bundle(
        surface,
        draw(st.lists(nef, min_size=1, max_size=3)),
        draw(st.lists(nef, max_size=1)),
    )
    k = draw(st.integers(0, 3))
    dp = chi_surface(surface, vstar) - 1
    vdim = dp + (2 - vstar.rank) * k
    # a V of rank < 1 has no pair space
    assume(vstar.rank >= 1 and dp >= 0 and vdim <= 6)
    kind = draw(st.sampled_from(("absent", "honest", "minus")))
    lam = SplitBundle(surface) if kind == "absent" else split_bundle(
        surface,
        draw(st.lists(nef, min_size=1, max_size=2)),
        [draw(nef)] if kind == "minus" else [],
    )
    i = max(vdim, 1)
    shape = draw(st.sampled_from(("count", "ci", "c1cj", "mixed")))
    if shape == "count":
        expr = ChernExpr.constant(1)
    elif shape == "ci":
        expr = ChernExpr.chern(i, "IT")
    elif shape == "c1cj":
        expr = parse_chern_expr(f"c1(IT)*c{max(i - 1, 1)}(IT)")
    else:
        expr = parse_chern_expr(f"3 - 2*c{i}(IT) + c1(IT)*c1(IT)")
    return surface, vstar.dual(), lam, k, expr


@given(ambient_cases())
@settings(max_examples=25)
def test_virtual_integral_matches_fixed_point_oracle(case):
    surface, v, lam, k, expr = case
    value, messages = _warned(surface, v, lam, k, expr)
    expected, reached = brute_virtual_integral(surface, v, lam, k, expr)
    assert value == expected
    # The warning reads degrees, not values: it may stay quiet where a Chern
    # class vanishes at every fixed point (c_1(O^[1]) = 0), never the reverse.
    if any("never reached" in m for m in messages):
        assert not reached


# ---------------------------------------------------------------------------
# universal polynomials


def test_monomial_basis_order():
    monos = _monomials(1)
    assert monos[0] == ("c2(V)",)
    assert monos[-1] == ()
    assert len(monos) == len(SYMBOL_NAMES) + 1
    assert len(_monomials(2)) == 1 + 8 + 36


@pytest.mark.parametrize("surface", [P2, QUADRIC, F1], ids=lambda s: s.name)
def test_config_menu_stays_on_the_expected_dimension_family(surface):
    for rank_v, rank_lam, k, expected_dim in product(
        (1, 2, 3), (0, 1, 2), (0, 1, 3), (-1, 0, 2)
    ):
        for v, _ in _config_menu(surface, rank_v, rank_lam, k, expected_dim):
            assert expected_dim_pairs(surface, v, k) == expected_dim


def random_fraction(rng, bound):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 12))


@st.composite
def integer_systems(draw):
    """An integer system of at most 14 x 40 as a product of two small
    matrices, so of bounded rank, with zeroed and repeated columns, and a
    rational right-hand side that is consistent about half of the time."""
    m, n = draw(st.integers(1, 14)), draw(st.integers(1, 40))
    rank = draw(st.integers(0, min(m, n)))
    rng = draw(st.randoms(use_true_random=False))
    left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(m)]
    right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
    rows = [[sum(a * right[t][j] for t, a in enumerate(row)) for j in range(n)]
            for row in left]
    for _ in range(rng.randint(0, 3)):
        j = rng.randrange(n)
        for row in rows:
            row[j] = 0
    for _ in range(rng.randint(0, 3)):
        dst, src = rng.randrange(n), rng.randrange(n)
        for row in rows:
            row[dst] = row[src]
    if draw(st.booleans()):
        x = [random_fraction(rng, 5) for _ in range(n)]
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
    else:
        rhs = [random_fraction(rng, 5) for _ in range(m)]
    return rows, rhs


@settings(max_examples=200)
@given(integer_systems())
def test_solve_exact_matches_the_fraction_oracle(system):
    rows, rhs = system
    try:
        want = fraction_gauss_jordan(rows, rhs)
    except ComputationError:
        with pytest.raises(ComputationError, match="inconsistent"):
            _solve_exact(rows, rhs)
        return
    assert _solve_exact(rows, rhs) == want


@settings(max_examples=50)
@given(st.randoms(use_true_random=False))
def test_evaluate_matches_a_fraction_sum(rng):
    monomials = tuple(_monomials(2))
    coefficients = [random_fraction(rng, 99) for _ in monomials]
    symbols = {name: rng.randint(-20, 20) for name in SYMBOL_NAMES}
    poly = UniversalPolynomial("count", 2, 2, 0, monomials, tuple(coefficients), ())
    want = sum(
        (c * prod(symbols[name] for name in mono)
         for c, mono in zip(coefficients, monomials)),
        Fraction(0),
    )
    assert poly.evaluate(symbols) == want


def test_universal_poly_count_k1_rank2():
    poly = universal_poly("count", k=1, rank_v=2, rank_lam=0)
    assert poly.nonzero_terms() == [("c2(V)", Fraction(1))]
    assert poly.undetermined  # the sampled family has a linear relation


def test_universal_poly_constant_shape_k0():
    poly = universal_poly("count", k=0, rank_v=2, rank_lam=0)
    assert poly.nonzero_terms() == [("1", Fraction(1))]


def test_universal_poly_json_schema():
    poly = universal_poly("count", k=1, rank_v=2, rank_lam=1)
    data = poly.to_json()
    assert set(data) == {
        "shape_id", "k", "ranks", "monomials", "coefficients", "undetermined",
    }
    assert data["shape_id"] == "count"
    assert data["ranks"] == {"V": 2, "Lambda": 1}
    assert len(data["monomials"]) == len(data["coefficients"])
    idx = data["monomials"].index("c2(V)")
    assert data["coefficients"][idx] == "1"


def test_universal_poly_evaluate_matches_direct():
    poly = universal_poly("count", k=1, rank_v=2, rank_lam=0)
    # a configuration not in the menus: V with c1 = 4 on P2, stratum c2
    c1v = (4,)
    c2v = 2 + (P2.intersect(c1v, c1v) - P2.intersect((3,), c1v)) // 2 - 1
    v = ChernData(2, c1v, c2v)
    model = realize_split_model(P2, v)
    from hilbloc.tautological import _symbol_values

    syms = _symbol_values(P2, v, ChernData(0, (0,), 0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        direct = virtual_integral(P2, model, None, 1)
    assert poly.evaluate(syms) == direct == c2v


def test_universal_poly_input_validation():
    with pytest.raises(UsageError):
        universal_poly("count", k=4)
    with pytest.raises(UsageError):
        universal_poly("mystery", k=1)
    with pytest.raises(UsageError):
        universal_poly("count", k=1, rank_v=0)
    with pytest.raises(UsageError, match="rank Lambda >= 0"):
        universal_poly("count", k=1, rank_lam=-1)
    # a non-integer rank Lambda recursed without end, and a non-integer
    # rank V or expected dimension searched the whole box for a split model
    for name, value in (("rank_lam", 1.5), ("rank_v", 2.5), ("expected_dim", 0.5),
                        ("rank_v", True)):
        with pytest.raises(UsageError, match=f"{name} must be an integer"):
            universal_poly("count", k=1, **{name: value})

"""Surface models, bundles and surface-level Riemann-Roch."""

import warnings
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hilbloc.errors import UsageError
from hilbloc.symbolic import Weight, ZERO_WEIGHT
from hilbloc.toric import (
    ChernData,
    EquivariantLineBundle,
    SplitBundle,
    chi_from_chern,
    chi_pair,
    chi_surface,
    e_from_v,
    line_bundle,
    make_surface,
    realize_split_model,
    split_bundle,
    surface_to_json,
    validate_compatibility,
)
from hilbloc.integrals import c2_for_expected_dim_zero, parse_chern_expr, quot_count
from hilbloc.tautological import _config_menu, virtual_integral

from oracles import brute_chi_surface, brute_realize_split_model

P2 = make_surface("P2")
QUADRIC = make_surface("P1xP1")
F0 = make_surface("Hirzebruch", 0)
F1 = make_surface("Hirzebruch", 1)
F2 = make_surface("Hirzebruch", 2)
F3 = make_surface("Hirzebruch", 3)
ALL_SURFACES = (P2, QUADRIC, F1, F3)


# ---------------------------------------------------------------------------
# fixed-point data of the models, checked by independent localization oracles


def _k_squared_oracle(surface, z=(7, 3)):
    # K = -(v1 + v2) at each fixed point, so K^2 localizes to
    # sum over points of (v1 + v2)^2 / (v1 v2).
    total = Fraction(0)
    for v1, v2 in surface.points:
        a, b = v1.spec_int(*z), v2.spec_int(*z)
        total += Fraction((a + b) ** 2, a * b)
    assert total.denominator == 1
    return int(total)


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=lambda s: s.name)
def test_canonical_self_intersection_matches_localization(surface):
    assert _k_squared_oracle(surface) == surface.k_squared
    assert _k_squared_oracle(surface, (11, 5)) == surface.k_squared


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=lambda s: s.name)
def test_euler_number_is_fixed_point_count(surface):
    assert surface.chi_top == len(surface.points)


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=lambda s: s.name)
def test_noether_relation(surface):
    # rational surfaces: chi(O) = (K^2 + chi_top)/12 = 1
    assert surface.k_squared + surface.chi_top == 12


def test_canonical_degrees():
    assert P2.canonical_degrees == (-3,)
    assert QUADRIC.canonical_degrees == (-2, -2)
    assert F1.canonical_degrees == (-1, -2)
    assert F3.canonical_degrees == (1, -2)


def test_intersection_pairing():
    assert P2.intersect((2,), (3,)) == 6
    assert QUADRIC.intersect((1, 0), (0, 1)) == 1
    assert QUADRIC.intersect((1, 0), (1, 0)) == 0
    assert QUADRIC.intersect((2, 3), (4, 5)) == 2 * 5 + 4 * 3
    # fiber f and section s on Hirzebruch(n): f^2 = 0, s.f = 1, s^2 = n
    assert F3.intersect((1, 0), (1, 0)) == 0
    assert F3.intersect((1, 0), (0, 1)) == 1
    assert F3.intersect((0, 1), (0, 1)) == 3


def test_make_surface_validation():
    with pytest.raises(UsageError):
        make_surface("P3")
    with pytest.raises(UsageError):
        make_surface("Hirzebruch")  # missing parameter
    with pytest.raises(UsageError):
        make_surface("Hirzebruch", -1)
    assert make_surface("P2") is make_surface("P2")  # cached


@pytest.mark.parametrize("a", [1.5, "2", True, 2.0])
def test_make_surface_refuses_a_twist_that_is_not_an_integer(a):
    # 1.5 built a surface of float weights and "2" ended in a TypeError; the
    # model cache took True for 1 and 2.0 for 2, so the model named
    # Hirzebruch(True) answered a later make_surface("Hirzebruch", 1)
    with pytest.raises(UsageError, match="twist a must be an integer"):
        make_surface("Hirzebruch", a)
    assert make_surface("Hirzebruch", 1).name == "Hirzebruch(1)"


# ---------------------------------------------------------------------------
# line bundle weights and edge compatibility


def test_line_weight_fixtures():
    o_d = line_bundle(P2, (2,))
    assert [str(w) for w in o_d.weights] == ["0", "2*t1", "2*t2"]
    o_ab = line_bundle(QUADRIC, (1, 2))
    assert [str(w) for w in o_ab.weights] == ["0", "2*t2", "t1", "t1+2*t2"]


def test_edge_compatibility_accepts_model_weights():
    for surface in ALL_SURFACES:
        degrees = (2,) if surface.divisor_rank == 1 else (2, 1)
        line = line_bundle(surface, degrees)
        assert validate_compatibility(surface, line.weights) == []


def test_edge_compatibility_flags_bad_weights():
    bad = (ZERO_WEIGHT, Weight(1, 0), ZERO_WEIGHT)
    problems = validate_compatibility(P2, bad)
    assert problems
    assert any("(1,2)" in msg for msg in problems)


def test_line_bundle_shift_changes_weights_not_chi():
    line = line_bundle(P2, (2,))
    shifted = line.shifted(Weight(5, -4))
    assert shifted.weights != line.weights
    assert shifted.degrees == line.degrees == (2,)
    assert chi_surface(P2, shifted) == chi_surface(P2, line) == 6


shifts = st.builds(Weight, st.integers(-9, 9), st.integers(-9, 9))
surfaces = st.sampled_from((P2, QUADRIC, F0, F1, F2))


def degrees_on(surface, bound):
    return st.tuples(*[st.integers(-bound, bound)] * surface.divisor_rank)


@given(st.data())
@settings(max_examples=60)
def test_degrees_are_read_off_the_weights(data):
    surface = data.draw(surfaces)
    degrees = data.draw(degrees_on(surface, 6))
    shift = data.draw(shifts)
    line = line_bundle(surface, degrees)
    assert line.shifted(shift).degrees == degrees
    assert line.dual().shifted(shift).degrees == tuple(-d for d in degrees)


# ---------------------------------------------------------------------------
# surface Riemann-Roch against closed forms


def test_chi_p2_closed_form():
    for d in range(-5, 11):
        assert chi_surface(P2, line_bundle(P2, (d,))) == (d + 1) * (d + 2) // 2


def test_chi_quadric_closed_form():
    for a in range(-3, 4):
        for b in range(-3, 4):
            expected = (a + 1) * (b + 1)
            assert chi_surface(QUADRIC, line_bundle(QUADRIC, (a, b))) == expected


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=lambda s: s.name)
def test_chi_matches_riemann_roch_formula(surface):
    span = range(-2, 3)
    degree_menu = (
        [(d,) for d in span]
        if surface.divisor_rank == 1
        else [(a, b) for a in span for b in span]
    )
    for degs in degree_menu:
        bundle = split_bundle(surface, [degs])
        assert brute_chi_surface(surface, bundle) == chi_from_chern(
            surface, bundle.chern_data()
        )


@given(st.data())
@settings(max_examples=60)
def test_chi_surface_matches_localized_riemann_roch(data):
    surface = data.draw(surfaces)
    plus = data.draw(st.lists(degrees_on(surface, 4), max_size=3))
    minus = data.draw(st.lists(degrees_on(surface, 4), max_size=2))
    bundle = split_bundle(surface, plus, minus).shifted(data.draw(shifts))
    assert chi_surface(surface, bundle) == brute_chi_surface(surface, bundle)


def test_chi_surface_rejects_edge_incompatible_weights():
    # (0, t1, 0) is no line bundle on P2: the edge (1,2) check fails when
    # the bundle is built, before any sum can run
    weights = (ZERO_WEIGHT, Weight(1, 0), ZERO_WEIGHT)
    assert validate_compatibility(P2, weights)
    with pytest.raises(UsageError, match="no line bundle"):
        EquivariantLineBundle(P2, weights)
    with pytest.raises(UsageError, match="expected 3 weights"):
        EquivariantLineBundle(P2, weights[:2])


def test_line_bundle_refuses_a_degree_that_is_not_an_integer():
    # O(1.5) was quietly truncated to O(1)
    with pytest.raises(UsageError, match=r"degrees must be integers, got \(1\.5,\)"):
        line_bundle(P2, [1.5])
    with pytest.raises(UsageError, match="degrees must be integers"):
        split_bundle(QUADRIC, [(1, 0.5)])
    with pytest.raises(UsageError, match="degrees must be integers"):
        split_bundle(P2, [2, 1.5])
    with pytest.raises(UsageError, match=r"got \(True,\)"):
        line_bundle(P2, [True])
    # a bare int ended in a TypeError traceback
    with pytest.raises(UsageError, match="degrees must be a tuple or list, got 3"):
        line_bundle(P2, 3)


def test_split_bundle_refuses_a_line_on_another_surface():
    with pytest.raises(UsageError, match="a line on P1xP1 in a bundle on P2"):
        SplitBundle(P2, (line_bundle(QUADRIC, (1, 0)),))
    with pytest.raises(UsageError, match="a line on Hirzebruch"):
        SplitBundle(QUADRIC, (line_bundle(QUADRIC, (1, 0)),), (line_bundle(F0, (0, 1)),))


def test_chi_surface_refuses_a_bundle_on_another_surface():
    # its degrees would be read in another divisor basis
    with pytest.raises(UsageError, match="bundle lives on P1xP1"):
        chi_surface(P2, split_bundle(QUADRIC, [(1, 0)]))
    with pytest.raises(UsageError, match="bundle lives on Hirzebruch"):
        chi_surface(QUADRIC, line_bundle(F1, (1, 2)))


def test_chi_pair_refuses_a_bundle_on_another_surface():
    with pytest.raises(UsageError, match="e lives on P1xP1"):
        chi_pair(P2, split_bundle(QUADRIC, [(1, 0)]), 1)


def test_chi_split_additivity_with_minus_lines():
    v = split_bundle(P2, [1, 3], [2])
    assert chi_surface(P2, v) == 3 + 10 - 6
    # Chern data is read as it is by chi_pair (an AttributeError once)
    assert chi_surface(P2, v.chern_data()) == chi_surface(P2, v)
    w = split_bundle(QUADRIC, [(1, 1)], [(0, 1), (1, 0)])
    assert chi_surface(QUADRIC, w) == 4 - 2 - 2


def test_whitney_chern_data():
    v = split_bundle(P2, [1, 3], [2])
    assert v.chern_data() == ChernData(1, (2,), -1)
    assert v.dual().chern_data() == ChernData(1, (-2,), -1)
    honest = split_bundle(P2, [2, 3])
    assert honest.chern_data() == ChernData(2, (5,), 6)


def test_chern_data_ignores_shift():
    v = split_bundle(P2, [2, 3], [1])
    assert v.shifted(Weight(1, 1)).chern_data() == v.chern_data()


def test_chi_pair_and_e_from_v():
    v = ChernData(3, (-5,), 21)
    e = e_from_v(v, 1)
    assert e == ChernData(2, (5,), 20)
    assert chi_pair(P2, e, 1) == 0
    with pytest.raises(UsageError):
        e_from_v(ChernData(1, (2,), 0), 1)


@given(st.integers(3, 5), st.integers(1, 7), st.integers(1, 6))
def test_orthogonality_on_the_expected_dim_zero_family(r, d, k):
    from math import comb

    c2s = comb(d + 2, 2) - (k - 1) * (r - 2)
    v = ChernData(r, (-d,), c2s)
    assert chi_pair(P2, e_from_v(v, k), k) == 0


# ---------------------------------------------------------------------------
# split realization


def _degrees(model):
    return (
        tuple(l.degrees for l in model.plus),
        tuple(l.degrees for l in model.minus),
    )


def test_realize_fixtures():
    # O(c1) + O^(r-2) + O(c2 A) + O(B) - O(c2 A + B), A and B the first and
    # the last basis class
    assert _degrees(realize_split_model(P2, ChernData(2, (5,), 6))) == (
        ((5,), (6,), (1,)), ((7,),),
    )
    assert _degrees(realize_split_model(F2, ChernData(3, (1, -2), -4))) == (
        ((1, -2), (0, 0), (-4, 0), (0, 1)), ((-4, 1),),
    )
    # at rank 1 the trivial line is a minus line
    assert _degrees(realize_split_model(QUADRIC, ChernData(1, (2, 3), 0))) == (
        ((2, 3), (0, 0), (0, 1)), ((0, 1), (0, 0)),
    )


def test_realize_needs_minus_lines_sometimes():
    # rank 2, c1 = 3, c2 = 1 has no honest splitting into integers
    m = realize_split_model(P2, ChernData(2, (3,), 1))
    assert m.minus
    assert m.chern_data() == ChernData(2, (3,), 1)


def test_realize_is_deterministic_and_exact():
    targets = [
        (P2, ChernData(3, (7,), 36)),
        (P2, ChernData(2, (0,), 1)),
        (QUADRIC, ChernData(2, (0, 0), 1)),
        (F1, ChernData(2, (1, 1), 0)),
    ]
    for surface, target in targets:
        a = realize_split_model(surface, target)
        b = realize_split_model(surface, target)
        assert a == b
        assert a.chern_data() == target


@given(st.data())
@settings(max_examples=80)
def test_realize_reaches_every_chern_data(data):
    # degrees up to 200, far beyond any small search box
    surface = data.draw(st.sampled_from((P2, QUADRIC, F0, F1, F2)))
    degree = st.integers(-200, 200)
    target = ChernData(
        data.draw(st.integers(1, 5)),
        data.draw(st.tuples(*[degree] * surface.divisor_rank)),
        data.draw(degree),
    )
    model = realize_split_model(surface, target)
    assert model.surface is surface
    assert model.chern_data() == target


def test_realize_failure_reports():
    with pytest.raises(UsageError):
        realize_split_model(P2, ChernData(0, (0,), 0))
    # c1 in the wrong divisor basis
    with pytest.raises(UsageError, match="divisor degree"):
        realize_split_model(P2, ChernData(2, (1, 2), 0))
    with pytest.raises(UsageError, match="divisor degree"):
        realize_split_model(QUADRIC, ChernData(2, (1,), 0))
    # a bool rank gave a rank-1 model, and 2.5 would repeat a list 0.5 times
    for rank in (True, False, 2.5, "2"):
        with pytest.raises(UsageError, match="rank must be an integer"):
            realize_split_model(P2, ChernData(rank, (1,), 0))
    with pytest.raises(UsageError, match="c2 must be an integer"):
        realize_split_model(P2, ChernData(2, (1,), 0.5))


@pytest.mark.parametrize("surface", (P2, QUADRIC, F1, F2), ids=lambda s: s.name)
def test_realize_integrals_match_the_searched_model(surface):
    # universality, by a route that shares no code with the formula: the
    # first split model of a plain search (box 16 on P2 and 4 elsewhere, up
    # to 2 minus lines) has the same Chern data, so every integral of it is
    # the formula model's
    box = 16 if surface.divisor_rank == 1 else 4
    models = {}

    def both(target):
        if target.rank == 0:
            return None, None
        if target not in models:
            searched = brute_realize_split_model(surface, target, box, 2)
            models[target] = (
                realize_split_model(surface, target), split_bundle(surface, *searched)
            )
        return models[target]

    shapes = (
        (0, None),
        (2, parse_chern_expr("c1(IT)*c1(IT)")),
        (2, parse_chern_expr("c2(IT)")),
    )
    compared = 0
    for rank_v, rank_lam, k, (dim, expr) in product((2, 3), (0, 1, 2), (1, 2), shapes):
        for v, lam in _config_menu(surface, rank_v, rank_lam, k, dim):
            (v_formula, v_searched), (lam_formula, lam_searched) = both(v), both(lam)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # minus lines in the formula V
                assert virtual_integral(
                    surface, v_formula, lam_formula, k, expr
                ) == virtual_integral(surface, v_searched, lam_searched, k, expr)
            if rank_lam == 0 and expr is None:
                assert quot_count(surface, v_formula, k) == quot_count(
                    surface, v_searched, k
                )
            compared += 1
    assert compared == 360


# The formula's degrees for V* of the criterion-5 grid, (r, d, k) ->
# (plus, minus): virtual_integral keys its cache lines by V's line
# weights, so another model would orphan every cached grid line
GRID_MODELS = {
    (3, 4, 1): ((4, 0, 15, 1), (16,)), (3, 4, 2): ((4, 0, 14, 1), (15,)),
    (3, 4, 3): ((4, 0, 13, 1), (14,)), (3, 4, 4): ((4, 0, 12, 1), (13,)),
    (3, 5, 1): ((5, 0, 21, 1), (22,)), (3, 5, 2): ((5, 0, 20, 1), (21,)),
    (3, 5, 3): ((5, 0, 19, 1), (20,)), (3, 5, 4): ((5, 0, 18, 1), (19,)),
    (3, 6, 1): ((6, 0, 28, 1), (29,)), (3, 6, 2): ((6, 0, 27, 1), (28,)),
    (3, 6, 3): ((6, 0, 26, 1), (27,)), (3, 6, 4): ((6, 0, 25, 1), (26,)),
    (3, 7, 1): ((7, 0, 36, 1), (37,)), (3, 7, 2): ((7, 0, 35, 1), (36,)),
    (3, 7, 3): ((7, 0, 34, 1), (35,)), (3, 7, 4): ((7, 0, 33, 1), (34,)),
    (4, 4, 1): ((4, 0, 0, 15, 1), (16,)), (4, 4, 2): ((4, 0, 0, 13, 1), (14,)),
    (4, 4, 3): ((4, 0, 0, 11, 1), (12,)), (4, 4, 4): ((4, 0, 0, 9, 1), (10,)),
    (4, 5, 1): ((5, 0, 0, 21, 1), (22,)), (4, 5, 2): ((5, 0, 0, 19, 1), (20,)),
    (4, 5, 3): ((5, 0, 0, 17, 1), (18,)), (4, 5, 4): ((5, 0, 0, 15, 1), (16,)),
    (4, 6, 1): ((6, 0, 0, 28, 1), (29,)), (4, 6, 2): ((6, 0, 0, 26, 1), (27,)),
    (4, 6, 3): ((6, 0, 0, 24, 1), (25,)), (4, 6, 4): ((6, 0, 0, 22, 1), (23,)),
    (4, 7, 1): ((7, 0, 0, 36, 1), (37,)), (4, 7, 2): ((7, 0, 0, 34, 1), (35,)),
    (4, 7, 3): ((7, 0, 0, 32, 1), (33,)), (4, 7, 4): ((7, 0, 0, 30, 1), (31,)),
}


def test_split_models_are_pinned():
    for (r, d, k), (plus, minus) in GRID_MODELS.items():
        target = ChernData(r, (d,), c2_for_expected_dim_zero(r, d, k))
        expected = (tuple((x,) for x in plus), tuple((x,) for x in minus))
        assert _degrees(realize_split_model(P2, target)) == expected, (r, d, k)


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("surface", ALL_SURFACES + (F0,), ids=lambda s: s.name)
def test_surface_json_roundtrip(surface):
    data = surface_to_json(surface)
    # the record names the model: its family and twist rebuild it
    assert make_surface(data["family"], data["a"]) is surface


@pytest.mark.parametrize("name", ["P2", "P1xP1"])
def test_make_surface_reads_a_zero_twist_as_none(name):
    assert make_surface(name, 0) is make_surface(name)

"""Surface models, bundles and surface-level Riemann-Roch."""

from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import example, given, settings, strategies as st

from hilbloc.errors import RealizationError, UsageError
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
    _box_table,
    _plus_search,
    _realize_cached,
)
from hilbloc.integrals import c2_for_expected_dim_zero

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


def test_realize_fixtures():
    m = realize_split_model(P2, ChernData(2, (5,), 6))
    assert sorted(l.degrees for l in m.plus) == [(2,), (3,)]
    assert not m.minus
    m2 = realize_split_model(P2, ChernData(2, (5,), 4))
    assert sorted(l.degrees for l in m2.plus) == [(1,), (4,)]


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


def _realize(surface, target, box, max_minus):
    """The split model of the search within ``box`` and up to ``max_minus``
    minus lines; a box of None is ``realize_split_model``'s own search."""
    if box is None:
        assert max_minus == 2
        return realize_split_model(surface, target)
    return _realize_cached(
        surface.family, surface.a, target.rank, tuple(target.c1), target.c2,
        box, max_minus,
    )


def test_realize_failure_reports():
    with pytest.raises(RealizationError):
        _realize(P2, ChernData(1, (0,), 50), 2, 1)
    with pytest.raises(UsageError):
        realize_split_model(P2, ChernData(0, (0,), 0))
    # c1 in the wrong divisor basis: rejected before any search
    with pytest.raises(UsageError, match="divisor degree"):
        realize_split_model(P2, ChernData(2, (1, 2), 0))
    with pytest.raises(UsageError, match="divisor degree"):
        realize_split_model(QUADRIC, ChernData(2, (1,), 0))


@st.composite
def realize_cases(draw):
    """(surface, target, box, max_minus): Chern data of a random split
    bundle, which a box of 3 and one minus line always reach, or raw
    (c1, c2) in a small box, which often has no model."""
    surface = draw(st.sampled_from((P2, QUADRIC, F0, F1, F2)))
    degree = st.tuples(*[st.integers(-3, 3)] * surface.divisor_rank)
    if draw(st.booleans()):
        nminus = draw(st.integers(0, 1))
        plus = draw(st.lists(degree, min_size=nminus + 1, max_size=nminus + 3))
        minus = draw(st.lists(degree, min_size=nminus, max_size=nminus))
        return surface, split_bundle(surface, plus, minus).chern_data(), 3, 2
    target = ChernData(draw(st.integers(1, 3)), draw(degree), draw(st.integers(-12, 12)))
    box = draw(st.integers(0, 4 if surface.divisor_rank == 1 else 2))
    return surface, target, box, draw(st.integers(0, 2))


@given(realize_cases())
@example((P2, e_from_v(ChernData(3, (-7,), 33), 4), 16, 2))  # sweep e, k=4
@example((P2, ChernData(4, (4,), 15), 16, 2))  # criterion-5 grid, r=4 d=4 k=3
@settings(max_examples=60)
def test_realize_matches_brute_search(case):
    surface, target, box, max_minus = case
    try:
        expected = brute_realize_split_model(surface, target, box, max_minus)
    except RealizationError as exc:
        with pytest.raises(RealizationError) as got:
            _realize(surface, target, box, max_minus)
        assert str(got.value) == str(exc)
        return
    model = _realize(surface, target, box, max_minus)
    assert (
        tuple(l.degrees for l in model.plus),
        tuple(l.degrees for l in model.minus),
    ) == expected
    assert model.chern_data() == target


def _model_or_error(case):
    """The (plus, minus) degree tuples of the case's model, or the text of
    its RealizationError."""
    surface, target, box, max_minus = case
    try:
        model = _realize(surface, target, box, max_minus)
    except RealizationError as exc:
        return str(exc)
    return (
        tuple(l.degrees for l in model.plus),
        tuple(l.degrees for l in model.minus),
    )


@st.composite
def shared_table_cases(draw):
    """Cases of ``realize_cases``, one in two with the search of
    ``realize_split_model`` (its own box, up to 2 minus lines)."""
    surface, target, box, max_minus = draw(realize_cases())
    return surface, target, *draw(st.sampled_from(((box, max_minus), (None, 2))))


@given(st.data())
@settings(max_examples=40)
def test_realize_is_the_same_in_any_request_order(data):
    # the search's tables are shared by every target of a process: asked
    # for in any order, each target gets the model of a search on cleared
    # caches, and in a small box the model of the plain search
    cases = data.draw(st.lists(shared_table_cases(), min_size=1, max_size=6))
    cases = data.draw(st.permutations(cases))
    _realize_cached.cache_clear()
    _box_table.cache_clear()
    shared = [_model_or_error(case) for case in cases]
    for case, got in zip(cases, shared):
        _realize_cached.cache_clear()
        _box_table.cache_clear()
        assert _model_or_error(case) == got
        surface, target, box, max_minus = case
        if box is not None:
            try:
                expected = brute_realize_split_model(surface, target, box, max_minus)
            except RealizationError as exc:
                expected = str(exc)
            assert got == expected


# default-box models of V* on P2, recorded before the search shared its
# tables: quot_count keys its cache lines by V*'s line weights, so another
# model would orphan every cached quot line
SWEEP_MODELS = {  # (3, 7) sweep, k -> (plus, minus) degrees
    1: ((0, 0, 1, 1), (-5,)), 2: ((-1, 1, 1, 1), (-5,)),
    3: ((-1, 0, 1, 2), (-5,)), 4: ((-3, 0, 1, 3), (-6,)),
    5: ((-2, 1, 1, 2), (-5,)), 6: ((0, 1, 1, 1), (-4,)),
    7: ((0, 0, 1, 2), (-4,)), 8: ((-1, 1, 1, 2), (-4,)),
    9: ((-1, 0, 2, 2), (-4,)), 10: ((1, 1, 1, 1), (-3,)),
    11: ((0, 1, 1, 2), (-3,)), 12: ((0, 0, 2, 2), (-3,)),
    13: ((-1, 1, 2, 2), (-3,)), 14: ((1, 1, 1, 2), (-2,)),
    15: ((0, 1, 2, 2), (-2,)), 16: ((-2, 2, 2, 2), (-3,)),
    17: ((-1, 2, 2, 2), (-2,)), 18: ((0, 2, 2, 2), (-1,)),
    19: ((1, 2, 2, 2), (0,)), 20: ((2, 2, 2, 2), (1,)),
}
GRID_MODELS = {  # criterion-5 grid, (r, d, k) -> (plus, minus) degrees
    (3, 4, 1): ((-1, 0, 0, 1), (-4,)), (3, 4, 2): ((-1, -1, 1, 1), (-4,)),
    (3, 4, 3): ((-2, 0, 1, 1), (-4,)), (3, 4, 4): ((0, 0, 0, 1), (-3,)),
    (3, 5, 1): ((-2, 0, 0, 2), (-5,)), (3, 5, 2): ((0, 0, 0, 1), (-4,)),
    (3, 5, 3): ((-1, 0, 1, 1), (-4,)), (3, 5, 4): ((-1, 0, 0, 2), (-4,)),
    (3, 6, 1): ((-1, 0, 0, 2), (-5,)), (3, 6, 2): ((-2, 1, 1, 1), (-5,)),
    (3, 6, 3): ((-2, 0, 1, 2), (-5,)), (3, 6, 4): ((0, 0, 1, 1), (-4,)),
    (3, 7, 1): ((0, 0, 1, 1), (-5,)), (3, 7, 2): ((-1, 1, 1, 1), (-5,)),
    (3, 7, 3): ((-1, 0, 1, 2), (-5,)), (3, 7, 4): ((-3, 0, 1, 3), (-6,)),
    (4, 4, 1): ((-1, 0, 0, 0, 1), (-4,)), (4, 4, 2): ((-2, 0, 0, 1, 1), (-4,)),
    (4, 4, 3): ((-1, 0, 0, 1, 1), (-3,)), (4, 4, 4): ((0, 0, 0, 1, 1), (-2,)),
    (4, 5, 1): ((-2, -1, 1, 1, 1), (-5,)), (4, 5, 2): ((-1, 0, 0, 1, 1), (-4,)),
    (4, 5, 3): ((-2, 0, 1, 1, 1), (-4,)), (4, 5, 4): ((-1, 0, 1, 1, 1), (-3,)),
    (4, 6, 1): ((-1, -1, 1, 1, 1), (-5,)), (4, 6, 2): ((-2, 0, 0, 1, 2), (-5,)),
    (4, 6, 3): ((-1, 0, 1, 1, 1), (-4,)), (4, 6, 4): ((-2, 1, 1, 1, 1), (-4,)),
    (4, 7, 1): ((0, 0, 0, 1, 1), (-5,)), (4, 7, 2): ((-1, 0, 0, 1, 2), (-5,)),
    (4, 7, 3): ((-2, 0, 1, 1, 2), (-5,)), (4, 7, 4): ((-1, 1, 1, 1, 1), (-4,)),
}


def test_split_models_are_pinned():
    targets = {(3, 7, k): pin for k, pin in SWEEP_MODELS.items()} | GRID_MODELS
    for (r, d, k), (plus, minus) in targets.items():
        target = ChernData(r, (d,), c2_for_expected_dim_zero(r, d, k))
        expected = (tuple((x,) for x in plus), tuple((x,) for x in minus))
        model = realize_split_model(P2, target)
        got = tuple(l.degrees for l in model.plus), tuple(l.degrees for l in model.minus)
        assert got == expected, (r, d, k)


def test_repeated_request_returns_the_same_model():
    # the model is frozen and cached whole, so a repeat builds no lines
    target = ChernData(3, (7,), c2_for_expected_dim_zero(3, 7, 4))
    assert realize_split_model(P2, target) is realize_split_model(P2, target)


@given(st.data())
@settings(max_examples=60)
def test_plus_search_yields_every_tuple(data):
    # every branch the search cuts is empty: it yields exactly the
    # non-decreasing tuples with the two sums, in lexicographic order
    surface = data.draw(st.sampled_from((P2, QUADRIC, F1)))
    bound = data.draw(st.integers(0, 3 if surface.divisor_rank == 1 else 2))
    atoms = sorted(product(range(-bound, bound + 1), repeat=surface.divisor_rank))
    n = data.draw(st.integers(1, 4))
    degs = data.draw(st.lists(st.sampled_from(atoms), min_size=n, max_size=n))

    def sums(t):
        return tuple(map(sum, zip(*t))), sum(surface.intersect(d, d) for d in t)

    want, q = sums(degs)
    # off the drawn sums, out of reach too, so the root's own cuts are tried
    want = (want[0] + data.draw(st.sampled_from((0, 0, 1, n * bound + 1))),) + want[1:]
    q += data.draw(st.sampled_from((0, 0, 1, -2)))
    expected = [
        t for t in combinations_with_replacement(atoms, n) if sums(t) == (want, q)
    ]
    assert list(_plus_search(surface, atoms, bound)(0, n, want, q)) == expected


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

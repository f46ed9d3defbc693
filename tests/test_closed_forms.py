"""Closed forms for Hilbert-scheme integrals, as a route independent of the kernel.

Ellingsrud-Goettsche-Lehn (math/9904095, Lemma 5.1) give, on any surface:

* chi(X^[k], theta of a line bundle L) = C(chi(L), k);
* chi(X^[k], theta of L - O) = C(chi(L) + k - 1, k);
* the integral of c_2k of V*^[k] = C(c2(V*), k) for rank-2 V.

C is the generalized binomial, since chi(L) and c2 can be negative.  The
oracles are this binomial and the surface localizations
``oracles.brute_chi_surface`` and ``c2_by_surface_localization``, so they
stay cheap at k where the brute tuple sums cannot go.

Lehn's series for the top Segre class of H^[k] (``oracles.lehn_segre_series``)
is a closed form for an integrand with a minus line, which none of the
binomials reaches: in the engine it is c_2k of the virtual bundle -H.

For rank 3, ``oracles.closed_quot_series`` and ``closed_chi_series`` give
both sides of the paper's (3, d) family from intersection numbers alone,
by Lagrange inversion in Fractions.  They were found by fitting chart
series, so they stand as an oracle only where these tests compare them.
"""

import warnings
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from hilbloc.integrals import (
    ChernExpr,
    IntegralRequest,
    chi_theta,
    integrate,
    quot_count,
    verify_conjecture,
)
from hilbloc.symbolic import Weight
from hilbloc.toric import SplitBundle, line_bundle, make_surface, split_bundle

from oracles import (
    brute_chi_surface,
    c2_by_surface_localization,
    closed_chi_series,
    closed_quot_series,
    lehn_segre_series,
)

SURFACES = (
    make_surface("P2"),
    make_surface("P1xP1"),
    make_surface("Hirzebruch", 0),
    make_surface("Hirzebruch", 1),
    make_surface("Hirzebruch", 2),
)


def binomial(n: int, k: int) -> int:
    """C(n, k) for any integer n and k >= 0."""
    return prod(range(n - k + 1, n + 1)) // factorial(k)


@st.composite
def surfaces_and_degrees(draw, surfaces=SURFACES):
    surface = draw(st.sampled_from(surfaces))
    degree = st.tuples(*[st.integers(-3, 4)] * surface.divisor_rank)
    return surface, draw(degree), draw(degree)


def chi_theta_checking_warning(surface, e, k, orthogonal):
    """chi_theta, asserting that it warns exactly when e is not orthogonal."""
    if orthogonal:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return chi_theta(surface, e, k)
    with pytest.warns(UserWarning, match="not orthogonal"):
        return chi_theta(surface, e, k)


@settings(max_examples=40)
@given(surfaces_and_degrees(), st.integers(1, 5))
def test_chi_theta_of_a_line_bundle(case, k):
    surface, degrees, _ = case
    chi = brute_chi_surface(surface, split_bundle(surface, [degrees]))
    # chi_pair(L, k) = chi(L) - k
    value = chi_theta_checking_warning(
        surface, line_bundle(surface, degrees), k, chi == k
    )
    assert value == binomial(chi, k)


@settings(max_examples=40)
@given(surfaces_and_degrees(), st.integers(1, 5))
def test_chi_theta_of_a_line_bundle_less_the_structure_sheaf(case, k):
    surface, degrees, _ = case
    chi = brute_chi_surface(surface, split_bundle(surface, [degrees]))
    zero = (0,) * surface.divisor_rank
    e = split_bundle(surface, [degrees], [zero])
    # chi_pair(L - O, k) = chi(L) - 1
    value = chi_theta_checking_warning(surface, e, k, chi == 1)
    assert value == binomial(chi + k - 1, k)


# from the top down: the first call builds the q-product at order 28 and the
# smaller k read prefixes of it.  Three surfaces keep the builds few.
HIGH_K = range(14, 9, -1)
HIGH_K_SURFACES = SURFACES[0], SURFACES[1], SURFACES[3]
shifts = st.builds(Weight, st.integers(-4, 4), st.integers(-4, 4))


@settings(max_examples=5, deadline=None)
@given(surfaces_and_degrees(HIGH_K_SURFACES), shifts)
def test_chi_theta_of_a_shifted_line_bundle_at_high_k(case, shift):
    surface, degrees, _ = case
    chi = brute_chi_surface(surface, split_bundle(surface, [degrees]))
    line = line_bundle(surface, degrees).shifted(shift)
    for k in HIGH_K:
        value = chi_theta_checking_warning(surface, line, k, chi == k)
        assert value == binomial(chi, k)


@settings(max_examples=5, deadline=None)
@given(surfaces_and_degrees(HIGH_K_SURFACES), shifts, shifts)
def test_chi_theta_of_a_shifted_line_bundle_less_the_structure_sheaf_at_high_k(
    case, shift, other
):
    surface, degrees, _ = case
    chi = brute_chi_surface(surface, split_bundle(surface, [degrees]))
    zero = (0,) * surface.divisor_rank
    e = SplitBundle(
        surface,
        (line_bundle(surface, degrees).shifted(shift),),
        (line_bundle(surface, zero).shifted(other),),
    )
    for k in HIGH_K:
        value = chi_theta_checking_warning(surface, e, k, chi == 1)
        assert value == binomial(chi + k - 1, k)


@settings(max_examples=40)
@given(surfaces_and_degrees(), st.integers(1, 5))
def test_quot_count_of_a_rank_two_bundle(case, k):
    surface, d1, d2 = case
    vstar = split_bundle(surface, [d1, d2])
    c2 = c2_by_surface_localization(surface, vstar)
    assert quot_count(surface, vstar.dual(), k) == binomial(c2, k)


# V* per surface with its c2(V*), and quot_count at k = 14..10 (HIGH_K)
RANK_TWO_HIGH_K = [
    (SURFACES[0], [(4,), (5,)], 20, [38760, 77520, 125970, 167960, 184756]),
    (SURFACES[1], [(2, 3), (3, 3)], 15, [15, 105, 455, 1365, 3003]),
    (SURFACES[2], [(2, 3), (3, 3)], 15, [15, 105, 455, 1365, 3003]),
    (SURFACES[3], [(2, 2), (2, 3)], 16, [120, 560, 1820, 4368, 8008]),
    (SURFACES[4], [(1, 2), (2, 3)], 19, [11628, 27132, 50388, 75582, 92378]),
]


@pytest.mark.parametrize("surface, degrees, c2, pins", RANK_TWO_HIGH_K,
                         ids=[case[0].name for case in RANK_TWO_HIGH_K])
def test_quot_count_of_a_rank_two_bundle_at_k10_to_14(surface, degrees, c2, pins):
    vstar = split_bundle(surface, degrees)
    assert c2_by_surface_localization(surface, vstar) == c2
    values = [quot_count(surface, vstar.dual(), k) for k in HIGH_K]
    assert values == [binomial(c2, k) for k in HIGH_K] == pins


def test_chi_theta_of_a_line_bundle_at_k12():
    p2 = make_surface("P2")
    with pytest.warns(UserWarning, match="not orthogonal"):
        assert chi_theta(p2, line_bundle(p2, (4,)), 12) == binomial(15, 12) == 455


def test_chi_theta_of_a_shifted_line_bundle_at_k10_to_14():
    p2 = make_surface("P2")
    line = line_bundle(p2, (4,)).shifted(Weight(2, -1))  # chi = 15
    e = SplitBundle(p2, (line,), (line_bundle(p2, (0,)).shifted(Weight(-1, 3)),))
    with pytest.warns(UserWarning, match="not orthogonal"):
        values = [chi_theta(p2, line, k) for k in HIGH_K]
        less_o = [chi_theta(p2, e, k) for k in HIGH_K]
    assert values == [binomial(15, k) for k in HIGH_K] == [15, 105, 455, 1365, 3003]
    assert less_o == [binomial(k + 14, k) for k in HIGH_K] == [
        40116600, 20058300, 9657700, 4457400, 1961256
    ]


def test_chi_theta_of_a_line_bundle_with_negative_chi():
    quadric = make_surface("P1xP1")
    line = line_bundle(quadric, (1, -3))  # chi = -4
    with pytest.warns(UserWarning, match="not orthogonal"):
        values = [chi_theta(quadric, line, k) for k in range(1, 5)]
    assert values == [binomial(-4, k) for k in range(1, 5)] == [-4, 10, -20, 35]


def segre_integral(surface, degrees, k):
    """The integral over X^[k] of s_2k(H^[k]), c_2k of the minus line H."""
    bundle = split_bundle(surface, [], [degrees])
    return integrate(IntegralRequest(surface, k, {"H": bundle}, ChernExpr.chern(2 * k, "H")))


@settings(max_examples=40, deadline=None)
@given(surfaces_and_degrees((SURFACES[0], SURFACES[1], SURFACES[3], SURFACES[4])),
       st.integers(1, 6))
def test_segre_integral_is_lehns_series(case, k):
    surface, degrees, _ = case
    assert segre_integral(surface, degrees, k) == lehn_segre_series(surface, degrees, k)[k]


def test_segre_integral_of_o1_on_p2():
    p2 = make_surface("P2")
    pins = {12: -498769717635, 6: -63028, 5: 3801, 4: -189, 3: 5, 2: 0, 1: 1}
    series = lehn_segre_series(p2, (1,), 12)
    assert {k: series[k] for k in pins} == pins
    # from k = 12 down, the smaller k read the points' Chern levels off the
    # k = 12 build
    assert {k: segre_integral(p2, (1,), k) for k in pins} == pins


# the (3, 7) rows pinned by the benchmark (k <= 9), test_integrals (k = 10..13)
# and the CI growth run (k = 15, 16, 18 and 20)
SWEEP_PINS = {
    1: 36, 2: 546, 3: 4556, 4: 22935, 5: 71940, 6: 140504, 7: 166308,
    8: 112827, 9: 39820, 10: 6804, 11: -7272, 12: 87639, 13: -950460,
    15: -99801856, 16: 984227088, 18: 90680741474, 20: 7882041702801,
}


def closed_sweep_rows(d, k_max):
    """Both closed forms at the rows k = 1..k_max of the (3, d) sweep on P2:
    V* has c1 = d h and c2 = 2 + d(d+3)/2 - k, e = e_from_v(V, k) has rank 2
    and det O(d); on P2, K^2 = 9, c2(X) = 3, chi(O) = 1 and h.K = -3."""
    chi = closed_chi_series((d + 1) * (d + 2) // 2, 1, 9, -3 * d, k_max)
    return {
        k: (closed_quot_series(9, 3, d * d, -3 * d, 2 + d * (d + 3) // 2 - k, k)[k], chi[k])
        for k in range(1, k_max + 1)
    }


def test_closed_forms_give_every_pinned_sweep_row():
    rows = closed_sweep_rows(7, max(SWEEP_PINS))
    assert {k: rows[k] for k in SWEEP_PINS} == {k: (v, v) for k, v in SWEEP_PINS.items()}


@pytest.mark.parametrize("d", [4, 9])
def test_closed_forms_are_the_direct_sweep_rows(d):
    closed = closed_sweep_rows(d, 6)
    for row in verify_conjecture(make_surface("P2"), 3, d, 6):
        assert row.c2_vstar == 2 + d * (d + 3) // 2 - row.k
        assert (row.quot, row.chi) == closed[row.k]


def test_closed_forms_agree_along_the_sweep():
    # strange duality for the (3, d) family on P2, from the forms alone
    for d in range(1, 10):
        assert all(quot == chi for quot, chi in closed_sweep_rows(d, 16).values())


@settings(max_examples=15, deadline=None)
@given(surfaces_and_degrees(), st.integers(1, 4))
def test_closed_forms_on_every_surface(case, k):
    # V* = L1 + L2 + O and e = L1 + L2 on any toric surface, whose c2(X)
    # is its number of fixed points, chi_top
    surface, d1, d2 = case
    zero = (0,) * surface.divisor_rank
    canonical = surface.canonical_degrees
    k2 = surface.intersect(canonical, canonical)
    c1 = tuple(x + y for x, y in zip(d1, d2))
    c1_c1, c1_k = surface.intersect(c1, c1), surface.intersect(c1, canonical)
    vstar = split_bundle(surface, [d1, d2, zero])
    c2 = c2_by_surface_localization(surface, vstar)
    quot = closed_quot_series(k2, surface.chi_top, c1_c1, c1_k, c2, k)[k]
    assert quot_count(surface, vstar.dual(), k) == quot
    e = split_bundle(surface, [d1, d2])
    chi_l = brute_chi_surface(surface, split_bundle(surface, [c1]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # e is rarely orthogonal
        value = chi_theta(surface, e, k)
    assert value == closed_chi_series(chi_l, 1, k2, c1_k, k)[k]

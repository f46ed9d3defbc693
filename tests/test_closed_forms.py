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
"""

import warnings
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from hilbloc.integrals import ChernExpr, IntegralRequest, chi_theta, integrate, quot_count
from hilbloc.symbolic import Weight
from hilbloc.toric import SplitBundle, line_bundle, make_surface, split_bundle

from oracles import brute_chi_surface, c2_by_surface_localization, lehn_segre_series

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

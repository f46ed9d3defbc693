"""Closed forms for Hilbert-scheme integrals, as a route independent of the kernel.

Ellingsrud-Goettsche-Lehn (math/9904095, Lemma 5.1) give, on any surface:

* chi(X^[k], theta of a line bundle L) = C(chi(L), k);
* chi(X^[k], theta of L - O) = C(chi(L) + k - 1, k);
* the integral of c_2k of V*^[k] = C(c2(V*), k) for rank-2 V.

C is the generalized binomial, since chi(L) and c2 can be negative.  The
oracles are this binomial and the surface localizations
``oracles.brute_chi_surface`` and ``c2_by_surface_localization``, so they
stay cheap at k where the brute tuple sums cannot go.
"""

import warnings
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from hilbloc.integrals import chi_theta, quot_count
from hilbloc.toric import line_bundle, make_surface, split_bundle

from oracles import brute_chi_surface, c2_by_surface_localization

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
def surfaces_and_degrees(draw):
    surface = draw(st.sampled_from(SURFACES))
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


@settings(max_examples=40)
@given(surfaces_and_degrees(), st.integers(1, 5))
def test_quot_count_of_a_rank_two_bundle(case, k):
    surface, d1, d2 = case
    vstar = split_bundle(surface, [d1, d2])
    c2 = c2_by_surface_localization(surface, vstar)
    assert quot_count(surface, vstar.dual(), k) == binomial(c2, k)


def test_chi_theta_of_a_line_bundle_at_k12():
    p2 = make_surface("P2")
    with pytest.warns(UserWarning, match="not orthogonal"):
        assert chi_theta(p2, line_bundle(p2, (4,)), 12) == binomial(15, 12) == 455


def test_chi_theta_of_a_line_bundle_with_negative_chi():
    quadric = make_surface("P1xP1")
    line = line_bundle(quadric, (1, -3))  # chi = -4
    with pytest.warns(UserWarning, match="not orthogonal"):
        values = [chi_theta(quadric, line, k) for k in range(1, 5)]
    assert values == [binomial(-4, k) for k in range(1, 5)] == [-4, 10, -20, 35]

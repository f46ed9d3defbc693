"""Acceptance suite: one test per release criterion.

Each test prints a single line

    ACCEPTANCE <n> <PASS|FAIL>: <summary> [<elapsed>s / <budget>s]

(shown with ``pytest -s``, or in the passes section with ``-rP``) and then
asserts both the mathematical statement and its wall-clock budget.
Criterion 4 has an extended variant (k <= 11).
"""

from __future__ import annotations

import random
import time
import warnings
from fractions import Fraction
from math import comb

from hilbloc.hilb import count_fixed_points, enumerate_fixed_points
from hilbloc.integrals import (
    c2_for_expected_dim_zero,
    chi_theta,
    expected_dim_pairs,
    quot_count,
    validate_construction,
    verify_conjecture,
)
from hilbloc.symbolic import Weight
from hilbloc.tautological import universal_poly, virtual_integral
from hilbloc.toric import (
    ChernData,
    SplitBundle,
    chi_surface,
    e_from_v,
    make_surface,
    realize_split_model,
    split_bundle,
)

from oracles import c2_by_surface_localization, euler_product_coefficients

P2 = make_surface("P2")
QUADRIC = make_surface("P1xP1")
F1 = make_surface("Hirzebruch", 1)


def _finish(n, budget: float, t0: float, ok: bool, summary: str) -> None:
    elapsed = time.monotonic() - t0
    in_budget = elapsed < budget
    status = "PASS" if ok and in_budget else "FAIL"
    print(f"ACCEPTANCE {n} {status}: {summary} [{elapsed:.1f}s / {budget:.0f}s]")
    assert ok, f"criterion {n}: {summary}"
    assert in_budget, (
        f"criterion {n} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"
    )


def _zero_dim_v(r: int, d: int, k: int) -> SplitBundle:
    """V on P2 with rank r, c1(V*) = d and expected pair dimension zero."""
    c2 = c2_for_expected_dim_zero(r, d, k)
    return realize_split_model(P2, ChernData(r, (d,), c2)).dual()


def test_criterion_1_fixed_point_census():
    t0 = time.monotonic()
    ok = True
    for surface in (P2, QUADRIC):
        expected = euler_product_coefficients(surface.chi_top, 12)
        for k in range(13):
            n_enum = sum(1 for _ in enumerate_fixed_points(surface, k))
            ok = ok and n_enum == expected[k]
            ok = ok and count_fixed_points(surface, k) == expected[k]
    _finish(1, 10.0, t0, ok,
            "fixed-point census matches the Euler-product oracle for k <= 12")


def test_criterion_2_surface_riemann_roch():
    t0 = time.monotonic()
    ok = True
    for d in range(-5, 11):
        value = chi_surface(P2, split_bundle(P2, [d]))
        ok = ok and value == (d + 1) * (d + 2) // 2
    for a in range(-3, 4):
        for b in range(-3, 4):
            value = chi_surface(QUADRIC, split_bundle(QUADRIC, [(a, b)]))
            ok = ok and value == (a + 1) * (b + 1)
    _finish(2, 5.0, t0, ok,
            "chi of line bundles matches the closed forms on both surfaces")


def test_criterion_3_structure_sheaf_chi():
    t0 = time.monotonic()
    ok = True
    for surface in (P2, QUADRIC):
        chi_o = chi_surface(
            surface, split_bundle(surface, [(0,) * surface.divisor_rank])
        )
        for k in range(9):
            oracle = comb(chi_o + k - 1, k)
            value = chi_theta(surface, SplitBundle(surface), k)
            ok = ok and value == oracle == 1
    _finish(3, 120.0, t0, ok,
            "chi of O on X^[k] equals 1 for k <= 8 on both surfaces")


def test_criterion_4_conjecture_k_to_8():
    t0 = time.monotonic()
    rows = verify_conjecture(P2, 3, 7, 8)
    ok = len(rows) == 8 and all(
        row.equal is True and row.error is None for row in rows
    )
    _finish(4, 900.0, t0, ok,
            "quot_count = chi_theta on P2 (r=3, d=7) for every k <= 8")


def test_criterion_4_extended_conjecture_k_to_11():
    t0 = time.monotonic()
    rows = verify_conjecture(P2, 3, 7, 11)
    ok = len(rows) == 11 and all(
        row.equal is True and row.error is None for row in rows
    )
    _finish("4-extended", 7200.0, t0, ok,
            "quot_count = chi_theta on P2 (r=3, d=7) for every k <= 11")


def test_criterion_5_virtual_integral_consistency():
    t0 = time.monotonic()
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for r in (3, 4):
            for d in range(4, 8):
                for k in range(1, 5):
                    v = _zero_dim_v(r, d, k)
                    ok = ok and expected_dim_pairs(P2, v.chern_data(), k) == 0
                    ok = ok and virtual_integral(P2, v, None, k) == quot_count(P2, v, k)
    _finish(5, 600.0, t0, ok,
            "virtual_integral(P=1) = quot_count on the zero-dimensional "
            "family, r in {3,4}, d in {4..7}, k in {1..4}")


def test_criterion_6_k1_surface_reduction():
    t0 = time.monotonic()
    ok = True
    rng = random.Random(6)
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
        ok = ok and quot_count(surface, vstar.dual(), 1) == expected
    _finish(6, 60.0, t0, ok,
            "quot_count at k = 1 equals the independent surface-level c2 "
            "for 10 randomized splits")


def test_criterion_7_robustness():
    t0 = time.monotonic()
    ok = True

    v0 = split_bundle(P2, [-2, -3])
    e1 = realize_split_model(P2, e_from_v(ChernData(3, (-5,), 20), 2))
    v1 = _zero_dim_v(3, 4, 2)

    # (a) ten seeds agree on every kind of integral
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quots = {quot_count(P2, v0, 2, seed=s) for s in range(1, 11)}
        chis = {chi_theta(P2, e1, 2, seed=s) for s in range(1, 11)}
        virts = {virtual_integral(P2, v1, None, 2, seed=s) for s in range(1, 11)}
    ok = ok and len(quots) == len(chis) == len(virts) == 1

    # (b) a global linearization shift changes no output
    shift = Weight(3, -5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ok = ok and quot_count(P2, v0.shifted(shift), 2) == next(iter(quots))
        ok = ok and chi_theta(P2, e1.shifted(shift), 2) == next(iter(chis))
        ok = ok and (
            virtual_integral(P2, v1.shifted(shift), None, 2)
            == next(iter(virts))
        )

    # (c) the negative-u cancellation assertions ran inside every call
    # above without raising; a violation is a hard ComputationError.

    # (d) rank-1 V admits no quotients
    for k in range(1, 6):
        ok = ok and quot_count(P2, split_bundle(P2, [-2]), k) == 0
        ok = ok and quot_count(QUADRIC, split_bundle(QUADRIC, [(-1, -2)]), k) == 0
    _finish(7, 300.0, t0, ok,
            "seed independence, shift invariance, clean u-cancellation "
            "and rank-1 vanishing all hold")


def test_criterion_8_universality():
    t0 = time.monotonic()
    poly = universal_poly("count", k=1, rank_v=2)
    ok = poly.nonzero_terms() == [("c2(V)", Fraction(1))]

    # Re-check held out configurations explicitly, none of them in the
    # interpolation menu; the last surface was never sampled at all.
    held_out = [
        (P2, (4,)),
        (P2, (-3,)),
        (QUADRIC, (2, 2)),
        (F1, (1, 2)),
        (make_surface("Hirzebruch", 2), (2, 1)),
    ]
    for surface, c1v in held_out:
        mk = tuple(-c for c in surface.canonical_degrees)
        c1sq = surface.intersect(c1v, c1v)
        kc1 = surface.intersect(mk, c1v)
        half, rem = divmod(c1sq - kc1, 2)
        assert rem == 0
        c2v = 1 + half  # forces chi(V*) = 1, the zero-dimensional stratum
        v = realize_split_model(surface, ChernData(2, c1v, c2v))
        ok = ok and chi_surface(surface, v.dual()) == 1
        symbols = {
            "c2(V)": c2v,
            "c2(L)": 0,
            "c1(V)^2": c1sq,
            "c1(L)^2": 0,
            "c1(V).c1(L)": 0,
            "c1(X).c1(V)": kc1,
            "c1(X).c1(L)": 0,
            "c1(X)^2": surface.intersect(mk, mk),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            direct = virtual_integral(surface, v, None, 1)
        ok = ok and poly.evaluate(symbols) == direct
    _finish(8, 300.0, t0, ok,
            "the k = 1 rank-2 count shape is exactly c2(V), confirmed on "
            "5 held-out configurations including two Hirzebruch surfaces")


def test_criterion_9_construction_validator():
    t0 = time.monotonic()
    accept_small = validate_construction(2, 1, 1)
    reject = validate_construction(2, 3, 5)
    accept = validate_construction(2, 3, 7)
    ok = (
        accept_small.ok
        and not reject.ok
        and any("lower bound" in text for text in reject.violations)
        and accept.ok
    )
    _finish(9, 1.0, t0, ok,
            "the three worked bound cases validate as documented")

"""Fixed points of the Hilbert scheme and their weight data."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from hilbloc.errors import ComputationError, UsageError
from hilbloc.hilb import (
    MAX_K,
    HilbFixedPoint,
    Partition,
    cell_tangent_weights,
    compositions,
    count_fixed_points,
    enumerate_fixed_points,
    partitions,
    tangent_forms,
    tangent_weights,
    taut_weights,
    theta_weight,
)
from hilbloc.symbolic import Weight
from hilbloc.toric import ToricSurfaceModel, line_bundle, make_surface, split_bundle

from oracles import euler_product_coefficients

P2 = make_surface("P2")
QUADRIC = make_surface("P1xP1")


@pytest.mark.parametrize("surface", (P2, QUADRIC), ids=lambda s: s.name)
def test_census_against_convolution_oracle(surface):
    expected = euler_product_coefficients(surface.chi_top, 12)
    for k in range(13):
        assert count_fixed_points(surface, k) == expected[k]
    # the enumeration agrees with the counting formula
    for k in range(9):
        assert len(list(enumerate_fixed_points(surface, k))) == expected[k]


def test_small_counts():
    assert [count_fixed_points(P2, k) for k in range(7)] == [1, 3, 9, 22, 51, 108, 221]
    assert [count_fixed_points(QUADRIC, k) for k in range(7)] == [
        1, 4, 14, 40, 105, 252, 574,
    ]


def test_fixed_points_stop_at_max_k():
    assert count_fixed_points(P2, MAX_K) == 1587333926761125
    with pytest.raises(UsageError, match=f"k = {MAX_K + 1} is above MAX_K"):
        count_fixed_points(P2, MAX_K + 1)
    with pytest.raises(UsageError, match=f"k = {MAX_K + 1} is above MAX_K"):
        next(enumerate_fixed_points(P2, MAX_K + 1))


# ---------------------------------------------------------------------------
# partitions


def test_partition_validation():
    with pytest.raises(UsageError):
        Partition((1, 2))
    with pytest.raises(UsageError):
        Partition((2, 0))
    with pytest.raises(UsageError, match="parts must be integers"):
        Partition((2.5, 1))
    with pytest.raises(UsageError, match="parts must be integers"):
        Partition((True,))
    # a list made a frozen value that hash() refused
    with pytest.raises(UsageError, match=r"parts must be a tuple, got \[2, 1\]"):
        Partition([2, 1])
    assert Partition(()).size == 0


def test_partition_basics():
    lam = Partition((3, 1))
    assert lam.size == 4
    assert lam.conjugate == (2, 1, 1)
    assert list(lam.cells()) == [(0, 0), (0, 1), (0, 2), (1, 0)]
    forms = list(tangent_forms(lam.parts, lam.conjugate))
    # cell (0, 0) has arm 2 and leg 1, cell (0, 2) arm 0 and leg 0
    assert forms[0:2] == [(2, -2), (-1, 3)]
    assert forms[4:6] == [(1, 0), (0, 1)]
    assert str(lam) == "(3,1)"


@given(st.integers(0, 12))
def test_partitions_enumerate_the_right_number(n):
    got = list(partitions(n))
    assert len(got) == len(set(got))
    assert all(p.size == n for p in got)
    # Euler's pentagonal-free check: count matches the product formula
    assert len(got) == euler_product_coefficients(1, 12)[n]


@given(st.integers(0, 10))
def test_conjugate_is_an_involution(n):
    for p in partitions(n):
        assert Partition(p.conjugate).conjugate == p.parts


def test_compositions_cover_all_splits():
    got = list(compositions(3, 2))
    assert got == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert list(compositions(0, 3)) == [(0, 0, 0)]


# ---------------------------------------------------------------------------
# tangent weights


def test_tangent_weights_worked_examples():
    # at the fixed point of P2 where (v1, v2) = (t1, t2)
    fp_row = HilbFixedPoint((Partition((2,)), Partition(()), Partition(())))
    got = Counter(str(w) for w in tangent_weights(P2, fp_row))
    assert got == Counter(["t1", "t2", "t1-t2", "2*t2"])
    fp_col = HilbFixedPoint((Partition((1, 1)), Partition(()), Partition(())))
    got = Counter(str(w) for w in tangent_weights(P2, fp_col))
    assert got == Counter(["2*t1", "-t1+t2", "t1", "t2"])


def test_cell_tangent_weights_dimension():
    v1, v2 = Weight(1, 0), Weight(0, 1)
    for lam in partitions(5):
        assert len(cell_tangent_weights(v1, v2, lam)) == 2 * lam.size


@given(st.integers(1, 8), st.integers(0, 40))
def test_transpose_swaps_tangent_roles(n, idx):
    ps = list(partitions(n))
    lam = ps[idx % len(ps)]
    v1, v2 = Weight(1, 0), Weight(0, 1)
    direct = Counter(cell_tangent_weights(v1, v2, lam))
    swapped = Counter(
        Weight(w.b, w.a) for w in cell_tangent_weights(v1, v2, Partition(lam.conjugate))
    )
    assert direct == swapped


def test_degenerate_tangent_frame_is_rejected():
    broken = ToricSurfaceModel(
        name="broken",
        family="broken",
        a=None,
        points=((Weight(1, 0), Weight(1, 0)),),
        edges=(),
        chi_top=1,
        k_squared=0,
        canonical_degrees=(0,),
        divisor_rank=1,
    )
    fp = HilbFixedPoint((Partition((2,)),))
    with pytest.raises(ComputationError):
        tangent_weights(broken, fp)


# ---------------------------------------------------------------------------
# tautological weights


def test_taut_weights_worked_example():
    # O(2) on P2, partition (2) at the point where weights are (2 t1) based
    fp = HilbFixedPoint((Partition(()), Partition((2,)), Partition(())))
    plus, minus = taut_weights(P2, fp, line_bundle(P2, (2,)))
    assert Counter(str(w) for w in plus) == Counter(["2*t1", "t1+t2"])
    assert minus == ()
    assert str(theta_weight(P2, fp, line_bundle(P2, (2,)))) == "3*t1+t2"


def test_taut_weights_respect_multiplicity():
    fp = HilbFixedPoint((Partition((1,)), Partition(()), Partition(())))
    double = split_bundle(P2, [0, 0])
    plus, minus = taut_weights(P2, fp, double)
    assert len(plus) == 2 and not minus
    single_plus, _ = taut_weights(P2, fp, split_bundle(P2, [0]))
    assert Counter(plus) == Counter(single_plus * 2)


def test_taut_weights_signed_for_virtual_splits():
    fp = HilbFixedPoint((Partition((2, 1)), Partition(()), Partition(())))
    v = split_bundle(P2, [1], [3])
    plus, minus = taut_weights(P2, fp, v)
    assert len(plus) == len(minus) == fp.size
    assert theta_weight(P2, fp, v) == (
        theta_weight(P2, fp, split_bundle(P2, [1]))
        - theta_weight(P2, fp, split_bundle(P2, [3]))
    )


def test_fixed_point_json_roundtrip():
    for fp in enumerate_fixed_points(QUADRIC, 4):
        back = HilbFixedPoint(tuple(Partition(tuple(p)) for p in fp.to_json()))
        assert back == fp


def test_enumeration_streams_in_deterministic_order():
    first = list(enumerate_fixed_points(P2, 3))
    second = list(enumerate_fixed_points(P2, 3))
    assert first == second
    assert len(set(first)) == len(first)

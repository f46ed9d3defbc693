"""Fixed-point combinatorics on Hilbert schemes of points.

A torus fixed point of X^[k] is a tuple of partitions, one per surface fixed
point, with total size k (each partition is the staircase of a monomial
ideal in the local chart).  This module enumerates partitions and those
tuples, and gives the tangent weights of a partition's cells, two per cell,
by the arm/leg formula in the chart coordinates (v1, v2); the localization
core in ``integrals`` needs nothing else.  The per-fixed-point weights
(``tangent_weights``, the tautological fiber weights ``taut_weights``, cell
(i, j) twisting a line weight by i*v1 + j*v2, and their determinant
``theta_weight``) stay only for ``tests/oracles.py`` and the benchmark
tracer, which times them by name.

Cells are indexed (i, j) with i the row (index into the partition) and j the
column (0 <= j < lambda_i).
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Iterator, Sequence

from .errors import ComputationError, UsageError, check_int
from .symbolic import Weight, ZERO_WEIGHT
from .toric import EquivariantLineBundle, SplitBundle, ToricSurfaceModel, split_on
from .value import Frozen, set_field

__all__ = [
    "Partition",
    "HilbFixedPoint",
    "partitions",
    "compositions",
    "enumerate_fixed_points",
    "count_fixed_points",
    "tangent_forms",
    "cell_tangent_weights",
    "check_k",
    "MAX_K",
    "check_work",
]

MAX_K = 100
"""The largest k that a sum over the fixed points of X^[k] is run for.

Every such sum tables the partitions of each n <= k at a chart, and 100
alone has 190569292 of them, so no run above it could finish; every k that
the tests, the benchmark and the documentation use is at most 40."""


def check_k(k: int) -> None:
    """Refuse a k that is not an int, or a negative one.  Only a sum bounds
    k from above (``check_work``); the closed forms build no series."""
    check_int(k, "k")
    if k < 0:
        raise UsageError("negative k")


def check_work(k: int) -> None:
    """Refuse a k that ``check_k`` refuses, or one above ``MAX_K`` however
    large, before any table is built for it: every sum calls it."""
    check_k(k)
    if k > MAX_K:
        raise UsageError(
            f"k = {k} is above MAX_K = {MAX_K}, the largest k a sum over "
            "the fixed points of X^[k] is run for"
        )


class Partition(Frozen):
    """A partition as a non-increasing tuple of positive parts."""

    # no __slots__: the cached ``conjugate`` lives in the instance __dict__
    _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...]) -> None:
        set_field(self, "parts", parts)
        if type(parts) is not tuple:  # a list would make a frozen value unhashable
            raise UsageError(f"partition parts must be a tuple, got {parts!r}")
        if any(type(p) is not int for p in parts):
            raise UsageError(f"partition parts must be integers: {parts}")
        if any(p <= 0 for p in parts):
            raise UsageError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise UsageError(f"partition parts must be non-increasing: {parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @cached_property
    def conjugate(self) -> tuple[int, ...]:
        if not self.parts:
            return ()
        return tuple(
            sum(1 for p in self.parts if p > j) for j in range(self.parts[0])
        )

    def cells(self) -> Iterator[tuple[int, int]]:
        for i, p in enumerate(self.parts):
            for j in range(p):
                yield (i, j)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


class HilbFixedPoint(Frozen):
    """One fixed point of X^[k]: a partition per surface fixed point."""

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[Partition, ...]) -> None:
        set_field(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(p.size for p in self.parts)

    def to_json(self) -> list[list[int]]:
        return [list(p.parts) for p in self.parts]

    def __str__(self) -> str:
        return "[" + ", ".join(str(p) for p in self.parts) + "]"


def partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, largest-first lexicographic order."""
    if n < 0:
        raise UsageError("partitions of a negative integer")

    def rec(n: int, cap: int):
        if n == 0:
            yield ()
            return
        for first in range(min(n, cap), 0, -1):
            for rest in rec(n - first, first):
                yield (first,) + rest

    for parts in rec(n, n):
        yield Partition(parts)


def compositions(n: int, slots: int) -> Iterator[tuple[int, ...]]:
    """Ordered splits of n into the given number of non-negative slots."""
    if slots <= 0:
        raise UsageError("compositions need at least one slot")
    if slots == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, slots - 1):
            yield (first,) + rest


def enumerate_fixed_points(
    surface: ToricSurfaceModel, k: int
) -> Iterator[HilbFixedPoint]:
    """Stream the fixed points of X^[k], grouped by size composition."""
    check_work(k)
    for sizes in compositions(k, len(surface.points)):
        for parts in product(*map(partitions, sizes)):
            yield HilbFixedPoint(parts)


def count_fixed_points(surface: ToricSurfaceModel, k: int) -> int:
    """Number of fixed points: [q^k] of prod_m (1 - q^m)^(-chi_top)."""
    check_work(k)
    series = [0] * (k + 1)
    series[0] = 1
    for m in range(1, k + 1):
        # multiply by (1 - q^m)^(-1), chi_top times
        for _ in range(surface.chi_top):
            for d in range(m, k + 1):
                series[d] += series[d - m]
    return series[k]


def tangent_forms(
    parts: Sequence[int], conjugate: Sequence[int]
) -> Iterator[tuple[int, int]]:
    """Tangent weights of the punctual stratum as forms (x, y), meaning
    x*v1 + y*v2, two per cell in ``Partition.cells`` order.

    Cell (i, j) with arm a and leg l contributes (l+1, -a) and (-l, a+1).
    """
    for i, p in enumerate(parts):
        for j in range(p):
            a, l = p - 1 - j, conjugate[j] - 1 - i
            yield l + 1, -a
            yield -l, a + 1


def cell_tangent_weights(v1, v2, part: Partition) -> list:
    """Tangent weights of the punctual stratum for one chart.

    The chart weights may be Weights or their integer specializations; the
    result has the same type.
    """
    return [x * v1 + y * v2 for x, y in tangent_forms(part.parts, part.conjugate)]


def tangent_weights(
    surface: ToricSurfaceModel, fp: HilbFixedPoint
) -> tuple[Weight, ...]:
    """The 2k tangent weights of X^[k] at a fixed point, none zero."""
    if len(fp.parts) != len(surface.points):
        raise UsageError("fixed point does not match the surface model")
    out: list[Weight] = []
    for (v1, v2), part in zip(surface.points, fp.parts):
        out.extend(cell_tangent_weights(v1, v2, part))
    for w in out:
        if w.is_zero():
            raise ComputationError(f"zero tangent weight at {fp}")
    return tuple(out)


def taut_weights(
    surface: ToricSurfaceModel,
    fp: HilbFixedPoint,
    bundle: SplitBundle | EquivariantLineBundle,
) -> tuple[tuple[Weight, ...], tuple[Weight, ...]]:
    """Weights of the tautological fiber of bundle^[k] at a fixed point.

    Returns (plus, minus) weight lists: a line with weight w at the surface
    point contributes w + i*v1 + j*v2 for every cell (i, j) of the partition
    sitting there.  Minus lines of a virtual split land in the minus list.
    """
    bundle = split_on(surface, bundle, "bundle")
    if len(fp.parts) != len(surface.points):
        raise UsageError("fixed point does not match the surface model")
    plus: list[Weight] = []
    minus: list[Weight] = []
    for p, ((v1, v2), part) in enumerate(zip(surface.points, fp.parts)):
        cells = list(part.cells())
        for line in bundle.plus:
            w = line.weights[p]
            plus.extend(w + i * v1 + j * v2 for i, j in cells)
        for line in bundle.minus:
            w = line.weights[p]
            minus.extend(w + i * v1 + j * v2 for i, j in cells)
    return tuple(plus), tuple(minus)


def theta_weight(
    surface: ToricSurfaceModel,
    fp: HilbFixedPoint,
    bundle: SplitBundle | EquivariantLineBundle,
) -> Weight:
    """Determinant weight of the tautological fiber (minus lines signed)."""
    plus, minus = taut_weights(surface, fp, bundle)
    total = ZERO_WEIGHT
    for w in plus:
        total = total + w
    for w in minus:
        total = total - w
    return total

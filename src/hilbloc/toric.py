"""Toric surface models with explicit torus fixed-point data.

Three families are supported, each with its fixed points, tangent weights,
invariant-curve (edge) data and intersection theory hard-coded from the fan:

* ``P2``: three fixed points, tangent weights (t1, t2), (-t1, t2-t1),
  (t1-t2, -t2); divisor basis (H) with H.H = 1, K = -3H.
* ``P1xP1``: four fixed points ordered (0,0), (0,1), (1,0), (1,1); divisor
  basis (f1, f2) of the two rulings, K = (-2, -2).
* ``Hirzebruch(a)``, a >= 0: four fixed points; divisor basis (fiber f,
  positive section s) with f.f = 0, f.s = 1, s.s = a, K = (a-2, -2).
  Hirzebruch(0) is P1xP1 in a different basis.

Line bundles carry one weight per fixed point; ``line_bundle`` normalizes
the first fixed point to weight zero.  The weight data follows the section
convention: on P2 the bundle O(d) gets weights (0, d*t1, d*t2).  On these
smooth complete surfaces an edge-compatible weight assignment is exactly an
equivariant line bundle, and the weights fix its divisor class (the degrees)
up to a global shift of the linearization, so a bundle is its weights and
its degrees are read off them.  The Euler characteristic over the surface
is then closed-form Riemann-Roch on the Whitney Chern data, and any Chern
data has a split model written down by Whitney (``realize_split_model``).
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

from .errors import ComputationError, UsageError
from .symbolic import Weight
from .value import Frozen, set_field

__all__ = [
    "ChernData",
    "ToricSurfaceModel",
    "EquivariantLineBundle",
    "SplitBundle",
    "make_surface",
    "line_bundle",
    "split_bundle",
    "validate_compatibility",
    "chi_from_chern",
    "split_on",
    "chi_surface",
    "chi_pair",
    "e_from_v",
    "realize_split_model",
    "surface_to_json",
]

SURFACE_NAMES = ("P2", "P1xP1", "Hirzebruch")


class ChernData(Frozen):
    """(rank, c1 in the divisor basis, integral c2) of a coherent class."""

    __slots__ = _fields = ("rank", "c1", "c2")

    def __init__(self, rank: int, c1: tuple[int, ...], c2: int) -> None:
        # a float or bool field would key cache lines of its own
        if type(rank) is not int:
            raise UsageError(f"rank must be an integer, got {rank!r}")
        if not all(type(d) is int for d in c1):
            raise UsageError(f"c1 entries must be integers, got {c1!r}")
        if type(c2) is not int:
            raise UsageError(f"c2 must be an integer, got {c2!r}")
        set_field(self, "rank", rank)
        set_field(self, "c1", c1)
        set_field(self, "c2", c2)

    def dual(self) -> "ChernData":
        return ChernData(self.rank, tuple(-d for d in self.c1), self.c2)


class ToricSurfaceModel(Frozen):
    __slots__ = _fields = (
        "name", "family", "a", "points", "edges", "chi_top", "k_squared",
        "canonical_degrees", "divisor_rank",
    )

    def __init__(
        self,
        name: str,
        family: str,
        a: int,
        points: tuple[tuple[Weight, Weight], ...],
        edges: tuple[tuple[int, int, Weight], ...],
        chi_top: int,
        k_squared: int,
        canonical_degrees: tuple[int, ...],
        divisor_rank: int,
    ) -> None:
        set_field(self, "name", name)
        set_field(self, "family", family)
        set_field(self, "a", a)
        set_field(self, "points", points)
        set_field(self, "edges", edges)
        set_field(self, "chi_top", chi_top)
        set_field(self, "k_squared", k_squared)
        set_field(self, "canonical_degrees", canonical_degrees)
        set_field(self, "divisor_rank", divisor_rank)

    def intersect(self, d1: Sequence[int], d2: Sequence[int]) -> int:
        """Intersection number of two divisor classes in this basis."""
        if self.family == "P2":
            return d1[0] * d2[0]
        if self.family == "P1xP1":
            return d1[0] * d2[1] + d1[1] * d2[0]
        return d1[0] * d2[1] + d1[1] * d2[0] + self.a * d1[1] * d2[1]

    def is_nef(self, degrees: Sequence[int]) -> bool:
        return all(d >= 0 for d in degrees)

    def line_weights(self, degrees: Sequence[int]) -> tuple[Weight, ...]:
        """Fixed-point weights of O(degrees), zero at the first point."""
        if len(degrees) != self.divisor_rank:
            raise UsageError(
                f"{self.name} wants {self.divisor_rank} divisor degree(s), "
                f"got {len(degrees)}"
            )
        if self.family == "P2":
            d = degrees[0]
            return (Weight(0, 0), Weight(d, 0), Weight(0, d))
        if self.family == "P1xP1":
            a, b = degrees
            return (Weight(0, 0), Weight(0, b), Weight(a, 0), Weight(a, b))
        a, b = degrees
        n = self.a
        return (
            Weight(0, 0),
            Weight(a, 0),
            Weight(a + n * b, b),
            Weight(0, b),
        )

    def degrees_of(self, weights: Sequence[Weight]) -> tuple[int, ...]:
        """The divisor degrees of the line bundle with these fixed-point
        weights: ``line_weights`` inverted after subtracting ``weights[0]``.
        """
        bad = validate_compatibility(self, weights)
        if bad:
            raise UsageError(f"weights are no line bundle on {self.name}: {bad}")
        w = [x - weights[0] for x in weights]
        if self.family == "P2":
            return (w[1].a,)
        if self.family == "P1xP1":
            return (w[2].a, w[1].b)
        return (w[1].a, w[3].b)


def _p2_model() -> ToricSurfaceModel:
    t1, t2 = Weight(1, 0), Weight(0, 1)
    points = ((t1, t2), (-1 * t1, t2 - t1), (t1 - t2, -1 * t2))
    edges = ((0, 1, t1), (0, 2, t2), (1, 2, t2 - t1))
    return ToricSurfaceModel("P2", "P2", 0, points, edges, 3, 9, (-3,), 1)


def _p1xp1_model() -> ToricSurfaceModel:
    t1, t2 = Weight(1, 0), Weight(0, 1)
    points = (
        (t1, t2),
        (t1, -1 * t2),
        (-1 * t1, t2),
        (-1 * t1, -1 * t2),
    )
    edges = ((0, 2, t1), (1, 3, t1), (0, 1, t2), (2, 3, t2))
    return ToricSurfaceModel("P1xP1", "P1xP1", 0, points, edges, 4, 8, (-2, -2), 2)


def _hirzebruch_model(a: int) -> ToricSurfaceModel:
    t1, t2 = Weight(1, 0), Weight(0, 1)
    s = Weight(a, 1)  # a*t1 + t2, the weight along the negative section
    points = (
        (t1, t2),
        (s, -1 * t1),
        (-1 * t1, -1 * s),
        (-1 * t2, t1),
    )
    edges = ((0, 1, t1), (1, 2, s), (2, 3, -1 * t1), (3, 0, -1 * t2))
    return ToricSurfaceModel(
        f"Hirzebruch({a})", "Hirzebruch", a, points, edges, 4, 8, (a - 2, -2), 2
    )


def _check_model(m: ToricSurfaceModel) -> ToricSurfaceModel:
    for i, (v1, v2) in enumerate(m.points):
        if v1.a * v2.b - v1.b * v2.a == 0:
            raise ComputationError(f"{m.name}: dependent tangent weights at point {i}")
    for p, q, w in m.edges:
        if w not in m.points[p] or (-1 * w) not in m.points[q]:
            raise ComputationError(f"{m.name}: edge ({p},{q},{w}) mismatches tangents")
    return m


def make_surface(name: str, a: int | None = None) -> ToricSurfaceModel:
    """Build one of the supported surface models, one object per surface.

    ``name`` is one of P2, P1xP1, Hirzebruch; Hirzebruch takes the
    non-negative twist ``a`` (Hirzebruch(0) has the same intersection numbers
    as P1xP1 but a different divisor basis).  P2 and P1xP1 read ``a = 0``
    as no twist.  A twist that is not an int is refused: the model cache
    would hand a bool's or a float's model, named by it, to the equal int.
    """
    if a is not None and type(a) is not int:
        raise UsageError(f"the twist a must be an integer, got {a!r}")
    return _make_surface(name, None if a == 0 and name != "Hirzebruch" else a)


@functools.lru_cache(maxsize=None)
def _make_surface(name: str, a: int | None) -> ToricSurfaceModel:
    if name == "P2":
        if a is not None:
            raise UsageError("P2 takes no twist parameter")
        return _check_model(_p2_model())
    if name == "P1xP1":
        if a is not None:
            raise UsageError("P1xP1 takes no twist parameter")
        return _check_model(_p1xp1_model())
    if name == "Hirzebruch":
        if a is None or a < 0:
            raise UsageError("Hirzebruch needs a twist a >= 0")
        return _check_model(_hirzebruch_model(a))
    raise UsageError(f"unknown surface {name!r}; expected one of {SURFACE_NAMES}")


# ---------------------------------------------------------------------------
# equivariant line bundles and split bundles


class EquivariantLineBundle(Frozen):
    """A line bundle given by one weight per fixed point.

    The weights are checked for edge compatibility once, here, and the
    divisor ``degrees`` are derived from them; a shift of the linearization
    changes the weights but not the degrees.  Equality and hashing read the
    surface and the weights only.
    """

    __slots__ = ("surface", "weights", "degrees")
    _fields = ("surface", "weights")

    def __init__(self, surface: ToricSurfaceModel, weights: tuple[Weight, ...]) -> None:
        set_field(self, "surface", surface)
        set_field(self, "weights", weights)
        set_field(self, "degrees", surface.degrees_of(weights))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(surface={self.surface!r}, "
                f"weights={self.weights!r}, degrees={self.degrees!r})")

    def dual(self) -> "EquivariantLineBundle":
        return EquivariantLineBundle(self.surface, tuple(-1 * w for w in self.weights))

    def shifted(self, s: Weight) -> "EquivariantLineBundle":
        """Shift the linearization; the underlying bundle does not change."""
        return EquivariantLineBundle(self.surface, tuple(w + s for w in self.weights))


def line_bundle(surface: ToricSurfaceModel, degrees: Sequence[int]) -> EquivariantLineBundle:
    """O(degrees) with its canonical linearization (weight zero first)."""
    degrees = tuple(degrees)
    if not all(type(d) is int for d in degrees):
        raise UsageError(f"line bundle degrees must be integers, got {degrees}")
    return EquivariantLineBundle(surface, surface.line_weights(degrees))


def validate_compatibility(
    surface: ToricSurfaceModel, weights: Sequence[Weight]
) -> list[str]:
    """Check edge compatibility of a per-point weight assignment.

    For each invariant curve joining p to q with tangent weight w at p, the
    difference weights[p] - weights[q] must be an integer multiple of w.
    Returns a list of human-readable violations, empty when consistent.
    """
    if len(weights) != len(surface.points):
        return [
            f"expected {len(surface.points)} weights, got {len(weights)}"
        ]
    out = []
    for p, q, w in surface.edges:
        diff = weights[p] - weights[q]
        if diff.a * w.b - diff.b * w.a != 0:
            out.append(f"edge ({p},{q}) with weight {w}: {diff} not proportional")
            continue
        num, den = (diff.a, w.a) if w.a != 0 else (diff.b, w.b)
        if num % den != 0:
            out.append(f"edge ({p},{q}) with weight {w}: {diff} not an integer multiple")
    return out


class SplitBundle(Frozen):
    """Formal sum of line bundles, minus-lines allowed (virtual splits)."""

    __slots__ = _fields = ("surface", "plus", "minus")

    def __init__(
        self,
        surface: ToricSurfaceModel,
        plus: tuple[EquivariantLineBundle, ...] = (),
        minus: tuple[EquivariantLineBundle, ...] = (),
    ) -> None:
        set_field(self, "surface", surface)
        set_field(self, "plus", plus)
        set_field(self, "minus", minus)
        for line in plus + minus:
            if line.surface.name != surface.name:
                raise UsageError(
                    f"a line on {line.surface.name} in a bundle on {surface.name}"
                )

    @property
    def rank(self) -> int:
        return len(self.plus) - len(self.minus)

    def is_honest(self) -> bool:
        return not self.minus

    def dual(self) -> "SplitBundle":
        return SplitBundle(
            self.surface,
            tuple(l.dual() for l in self.plus),
            tuple(l.dual() for l in self.minus),
        )

    def shifted(self, s: Weight) -> "SplitBundle":
        return SplitBundle(
            self.surface,
            tuple(l.shifted(s) for l in self.plus),
            tuple(l.shifted(s) for l in self.minus),
        )

    def weight_key(self) -> dict:
        """The line weights as JSON: what a cache key needs of the bundle."""
        return {
            "plus": [[w.to_json() for w in l.weights] for l in self.plus],
            "minus": [[w.to_json() for w in l.weights] for l in self.minus],
        }

    def chern_data(self) -> ChernData:
        """Rank, c1 and c2 by the Whitney formula."""
        c1, c2 = _whitney(
            self.surface,
            [l.degrees for l in self.plus],
            [l.degrees for l in self.minus],
        )
        return ChernData(self.rank, c1, c2)


def _whitney(
    surface: ToricSurfaceModel,
    plus: Sequence[Sequence[int]],
    minus: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], int]:
    """(c1, c2) of the sum of O(d) over ``plus`` minus that over ``minus``.

    With e1, e2 the elementary symmetric classes of each side, c(plus) /
    c(minus) gives c1 = e1p - e1m and c2 = e2p - e1p.e1m + e1m.e1m - e2m.
    """
    inter = surface.intersect

    def e1(degs) -> tuple[int, ...]:
        return tuple(sum(d[i] for d in degs) for i in range(surface.divisor_rank))

    def e2(degs) -> int:
        return sum(
            inter(degs[i], degs[j])
            for i in range(len(degs))
            for j in range(i + 1, len(degs))
        )

    e1p, e1m = e1(plus), e1(minus)
    c1 = tuple(x - y for x, y in zip(e1p, e1m))
    return c1, e2(plus) - inter(e1p, e1m) + inter(e1m, e1m) - e2(minus)


def split_bundle(
    surface: ToricSurfaceModel,
    plus_degrees: Iterable[Sequence[int] | int],
    minus_degrees: Iterable[Sequence[int] | int] = (),
) -> SplitBundle:
    """Convenience constructor from degree lists (ints on P2, pairs elsewhere)."""

    def norm(d):
        return tuple(d) if isinstance(d, (tuple, list)) else (d,)

    return SplitBundle(
        surface,
        tuple(line_bundle(surface, norm(d)) for d in plus_degrees),
        tuple(line_bundle(surface, norm(d)) for d in minus_degrees),
    )


# ---------------------------------------------------------------------------
# Euler characteristics


def _check_c1(surface: ToricSurfaceModel, c1: Sequence[int]) -> None:
    if len(c1) != surface.divisor_rank:
        raise UsageError(
            f"{surface.name} wants {surface.divisor_rank} divisor degree(s) "
            f"in c1, got {len(c1)}"
        )


def chi_from_chern(surface: ToricSurfaceModel, cd: ChernData) -> int:
    """chi(E) = rank + c1.(c1 - K)/2 - c2 on a rational surface (chi(O) = 1)."""
    _check_c1(surface, cd.c1)
    k = surface.canonical_degrees
    c1_c1 = surface.intersect(cd.c1, cd.c1)
    c1_k = surface.intersect(cd.c1, k)
    twice = c1_c1 - c1_k
    if twice % 2 != 0:
        raise ComputationError("odd Riemann-Roch combination; degrees corrupt")
    return cd.rank + twice // 2 - cd.c2


def split_on(
    surface: ToricSurfaceModel, bundle: SplitBundle | EquivariantLineBundle, name: str
) -> SplitBundle:
    """The bundle, a line as a split bundle of one line, or a UsageError
    calling it ``name`` if it lives on another surface."""
    if bundle.surface.name != surface.name:
        raise UsageError(f"{name} lives on {bundle.surface.name}")
    if isinstance(bundle, EquivariantLineBundle):
        return SplitBundle(surface, (bundle,))
    return bundle


def chi_surface(
    surface: ToricSurfaceModel,
    bundle: SplitBundle | EquivariantLineBundle,
) -> int:
    """Hirzebruch-Riemann-Roch over the surface, exact integer."""
    return chi_from_chern(surface, split_on(surface, bundle, "bundle").chern_data())


def chi_pair(
    surface: ToricSurfaceModel,
    e: ChernData | SplitBundle | EquivariantLineBundle,
    k: int,
) -> int:
    """chi(E tensor I_Z) for any length-k Z: chi(E) - rank(E) * k."""
    if not isinstance(e, ChernData):
        e = split_on(surface, e, "e").chern_data()
    return chi_from_chern(surface, e) - e.rank * k


def e_from_v(v: ChernData, k: int) -> ChernData:
    """Chern data of the dualized kernel class for the pairing construction.

    ch(E) = (rank V - 1, -c1(V), ch2(V) + k); c2 follows from
    c2 = (c1^2 - 2 ch2)/2, and the c1^2 terms cancel, leaving
    c2(E) = c2(V) - k on any surface.
    """
    if v.rank < 2:
        raise UsageError("pairing construction needs rank V >= 2")
    return ChernData(v.rank - 1, tuple(-d for d in v.c1), v.c2 - k)


# ---------------------------------------------------------------------------
# split models with prescribed Chern data


def realize_split_model(surface: ToricSurfaceModel, target: ChernData) -> SplitBundle:
    """A split bundle with the requested Chern data, written down by Whitney.

    With A and B the first and the last basis class (A.B = 1 on every
    supported surface), the model is
    O(c1) + O^(r-2) + O(c2 A) + O(B) - O(c2 A + B): rank r, c1 and, by
    Whitney, c2.  At rank 1 one trivial line moves to the minus side.  The
    model always has minus lines, so it is a K-theory stand-in; by
    Ellingsrud-Goettsche-Lehn universality the localized integrals read a
    bundle only through its Chern data, so any model gives their value.
    """
    if target.rank < 1:
        raise UsageError("realize_split_model needs rank >= 1")
    _check_c1(surface, target.c1)
    r = target.rank
    zero = (0,) * surface.divisor_rank
    a, b = (1,) + zero[1:], zero[:-1] + (1,)
    c2a = tuple(target.c2 * x for x in a)
    return split_bundle(
        surface,
        [target.c1, *[zero] * (r - 2), c2a, b],
        [tuple(x + y for x, y in zip(c2a, b)), *[zero] * (2 - r)],
    )


# ---------------------------------------------------------------------------
# serialization


def surface_to_json(surface: ToricSurfaceModel) -> dict:
    return {
        "name": surface.name,
        "family": surface.family,
        "a": surface.a,
        "points": [[v1.to_json(), v2.to_json()] for v1, v2 in surface.points],
        "edges": [[p, q, w.to_json()] for p, q, w in surface.edges],
        "chi_top": surface.chi_top,
        "K2": surface.k_squared,
        "canonical_degrees": list(surface.canonical_degrees),
    }

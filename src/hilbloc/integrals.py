"""Localization integrals over the Hilbert scheme X^[k].

Chern-class integrals of tautological bundles (integrate, quot_count) and
holomorphic Euler characteristics of determinant line bundles (chi_theta)
are sums over the torus-fixed points of X^[k]: tuples of partitions, one
per fixed point p of the surface.  Each integrand, over the tangent Euler
class, is a product of local factors f_p(lambda_p), so the sum is the q^k
coefficient of prod_p sum_lambda q^|lambda| f_p(lambda) (the
Ellingsrud-Goettsche-Lehn factorization).  ``localize`` evaluates it by
walking the partitions of n <= k at each point, not the tuples.

Every sum keeps one contract: the integrand is a mixed-degree class, and
``localize`` returns the integrals of its parts of degree 2k = dim X^[k],
drops the parts above it, and checks that those below it integrate to zero.

What a partition contributes apart from the bundle (its cell shifts, its
tangent weights, the inverse of their product mod m, and its parent, the
partition one cell smaller) depends only on the specialized chart weights
at the point, n and m.  ``partition_table`` builds it once per process for
each of them, so every bundle, k and side of a sum under the same z shares
it.  Chern-class integrands are built cell by cell: ``chern_rows`` grows
each partition's row of Chern classes from its parent's by the lines of its
last cell, instead of from all of its cells.

Each sum is evaluated mod m, a product of word primes, one pass per
specialization, and the exact rational is rebuilt from the residue by
rational reconstruction (``symbolic.reconstruct``).  ``exact`` does that
under two independent integer specializations of (t1, t2) and asserts the
results equal, so neither a silently bad specialization nor an unlucky
reconstruction can leak into output; it alone reads and writes the cache.
The module also holds the Chern-expression grammar and the count-matching
verification loop (verify_conjecture).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import comb, prod
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .cache import ResultCache
from .errors import (
    ComputationError,
    ParseError,
    PoleError,
    RealizationError,
    UsageError,
)
from .hilb import Partition, cell_tangent_weights, partitions
from .symbolic import (
    DEFAULT_SEED,
    dual_specialized,
    exp_todd_series,
    reconstruct,
    residue,
    signed_chern_coefficients,
)
from .toric import (
    ChernData,
    EquivariantLineBundle,
    SplitBundle,
    ToricSurfaceModel,
    as_split,
    chi_from_chern,
    chi_pair,
    e_from_v,
    make_surface,
    realize_split_model,
)

__all__ = [
    "Term",
    "ChernExpr",
    "parse_chern_expr",
    "IntegralRequest",
    "LocalPartition",
    "partition_table",
    "localize",
    "chern_rows",
    "localize_chern",
    "exact",
    "integrate",
    "quot_count",
    "chi_theta",
    "expected_dim_pairs",
    "c2_for_expected_dim_zero",
    "validate_construction",
    "ConstructionReport",
    "verify_conjecture",
    "ConjectureRow",
]


# ---------------------------------------------------------------------------
# Chern-class expressions


@dataclass(frozen=True)
class Term:
    """coefficient * product of c_index(bundle_id) factors."""

    coefficient: Fraction
    factors: tuple[tuple[str, int], ...]

    @property
    def degree(self) -> int:
        return sum(idx for _, idx in self.factors)

    def __str__(self) -> str:
        parts = [f"c{idx}({bid})" for bid, idx in self.factors]
        if not parts:
            return str(self.coefficient)
        if self.coefficient == 1:
            return "*".join(parts)
        return "*".join([str(self.coefficient)] + parts)


@dataclass(frozen=True)
class ChernExpr:
    """A formal sum of Chern monomials in declared bundle identifiers."""

    terms: tuple[Term, ...]

    @classmethod
    def constant(cls, value) -> "ChernExpr":
        return cls((Term(Fraction(value), ()),))

    @classmethod
    def chern(cls, index: int, bundle_id: str, coefficient=1) -> "ChernExpr":
        if index < 0:
            raise UsageError("Chern index must be non-negative")
        if index == 0:
            return cls.constant(coefficient)
        return cls((Term(Fraction(coefficient), ((bundle_id, index),)),))

    def __add__(self, other: "ChernExpr") -> "ChernExpr":
        return ChernExpr(self.terms + other.terms).collect()

    def __mul__(self, other: "ChernExpr") -> "ChernExpr":
        out = []
        for a in self.terms:
            for b in other.terms:
                out.append(
                    Term(
                        a.coefficient * b.coefficient,
                        tuple(sorted(a.factors + b.factors)),
                    )
                )
        return ChernExpr(tuple(out)).collect()

    def collect(self) -> "ChernExpr":
        """Merge duplicate monomials and drop zero terms; canonical order."""
        merged: dict[tuple, Fraction] = {}
        for t in self.terms:
            key = tuple(sorted(t.factors))
            merged[key] = merged.get(key, Fraction(0)) + t.coefficient
        terms = tuple(
            Term(c, f) for f, c in sorted(merged.items()) if c != 0
        )
        return ChernExpr(terms)

    def bundle_ids(self) -> set[str]:
        return {bid for t in self.terms for bid, _ in t.factors}

    def degrees(self) -> set[int]:
        if not self.terms:
            return {0}
        return {t.degree for t in self.terms}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(str(t) for t in self.terms)


# Chern-expression grammar: sum of terms, term = factors joined by "*",
# factor = rational number or c<j>(<identifier>); whitespace-insensitive.


def parse_chern_expr(text: str) -> ChernExpr:
    """Parse an expression like "3*c1(IT)*c1(IT) - 1/2*c2(IT)".

    Errors carry a 1-based column number.
    """
    pos = 0
    n = len(text)

    def skip() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_number() -> Fraction:
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        value = int(text[start:pos])
        if pos < n and text[pos] == "/":
            pos += 1
            dstart = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            if dstart == pos:
                raise ParseError("expected digits after '/'", pos + 1)
            den = int(text[dstart:pos])
            if den == 0:
                raise ParseError("zero denominator", dstart + 1)
            return Fraction(value, den)
        return Fraction(value)

    def parse_factor():
        nonlocal pos
        skip()
        if pos >= n:
            raise ParseError("expected a factor", pos + 1)
        ch = text[pos]
        if ch.isdigit():
            return parse_number()
        if ch == "c":
            pos += 1
            istart = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            if istart == pos:
                raise ParseError("expected a Chern index after 'c'", istart + 1)
            index = int(text[istart:pos])
            if pos >= n or text[pos] != "(":
                raise ParseError("expected '(' after the Chern index", pos + 1)
            paren = pos
            pos += 1
            idstart = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            if idstart == pos or pos >= n or text[pos] != ")":
                raise ParseError("unclosed Chern factor", paren + 1)
            bundle_id = text[idstart:pos]
            pos += 1
            return (bundle_id, index)
        raise ParseError(f"unexpected character {ch!r}", pos + 1)

    def parse_term(sign: int) -> Term:
        nonlocal pos
        coeff = Fraction(sign)
        factors: list[tuple[str, int]] = []
        while True:
            f = parse_factor()
            if isinstance(f, Fraction):
                coeff *= f
            else:
                bid, index = f
                if index > 0:
                    factors.append((bid, index))
            skip()
            if pos < n and text[pos] == "*":
                pos += 1
                continue
            return Term(coeff, tuple(sorted(factors)))

    terms: list[Term] = []
    skip()
    sign = 1
    if pos < n and text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        pos += 1
    while True:
        terms.append(parse_term(sign))
        skip()
        if pos >= n:
            break
        if text[pos] == "+":
            sign = 1
        elif text[pos] == "-":
            sign = -1
        else:
            raise ParseError(f"unexpected character {text[pos]!r}", pos + 1)
        pos += 1
    return ChernExpr(tuple(terms)).collect()


@dataclass
class IntegralRequest:
    """One integral over X^[k]: declared bundles and a degree-2k expression."""

    surface: ToricSurfaceModel
    k: int
    bundles: dict[str, SplitBundle]
    expr: ChernExpr

    def __post_init__(self) -> None:
        if self.k < 0:
            raise UsageError("negative k")
        self.bundles = {
            bid: as_split(b) for bid, b in self.bundles.items()
        }
        for bid, b in self.bundles.items():
            if b.surface.name != self.surface.name:
                raise UsageError(f"bundle {bid!r} lives on {b.surface.name}")
        missing = self.expr.bundle_ids() - set(self.bundles)
        if missing:
            raise UsageError(f"undeclared bundle ids in expression: {sorted(missing)}")
        degs = self.expr.degrees()
        if degs != {2 * self.k} and self.expr.terms:
            raise UsageError(
                f"expression degrees {sorted(degs)} != 2k = {2 * self.k}; "
                "integrals over X^[k] need homogeneous degree 2k"
            )


# ---------------------------------------------------------------------------
# the factorized localization core


@lru_cache(maxsize=None)
def _exponents(width: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The exponent tuples of a row-major series of this width, in flat order."""
    return tuple(product(*(range(w) for w in width)))


@lru_cache(maxsize=None)
def _fitting(width: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Per flat index i of a row-major series of this width, the flat j
    whose exponents add to i's within the truncation; a[i]*b[j] lands at i+j."""
    exps = _exponents(width)
    return tuple(
        tuple(
            j for j, ej in enumerate(exps)
            if all(x + y < w for x, y, w in zip(ei, ej, width))
        )
        for ei in exps
    )


def _q_coefficient(a: list, b: list, n: int, fitting, m: int) -> list:
    """[q^n] of the product of two q-series of truncated series, mod m."""
    out = [0] * len(fitting)
    for h in range(n + 1):
        left, right = a[h], b[n - h]
        for i, x in enumerate(left):
            if x:
                for j in fitting[i]:
                    y = right[j]
                    if y:
                        out[i + j] += x * y
    return [x % m for x in out]


class LocalPartition(NamedTuple):
    """One partition of n at a chart with specialized weights (s1, s2), mod m."""

    partition: Partition
    parent: int  # its index less the last cell of its last row, among n - 1
    shift: int  # the specialized shift i*s1 + j*s2 of that cell
    shift_sum: int  # the sum of the shifts of every cell
    tangents: tuple[int, ...]  # the 2n specialized tangent weights
    inverse: int | None  # 1 / prod(tangents) mod m; None for a pole


@lru_cache(maxsize=1024)
def partition_table(s1: int, s2: int, n: int, m: int) -> tuple[LocalPartition, ...]:
    """The bundle-free data of every partition of n, in ``partitions`` order.

    It depends only on the chart's specialized weights and the modulus, so
    a process builds it once and every bundle, k and side of a sum under
    the same z reuses it.  A tangent product that specializes to zero is
    kept as a pole (``inverse`` None), which ``localize`` raises on each
    time it meets it.
    """
    parents = {} if n == 0 else {
        part.parts: i for i, part in enumerate(partitions(n - 1))
    }
    table = []
    for part in partitions(n):
        parent = shift = 0  # the empty partition has neither
        if part.parts:
            i, j = len(part.parts) - 1, part.parts[-1] - 1
            parent = parents[part.parts[:-1] + ((j,) if j else ())]
            shift = i * s1 + j * s2
        tangents = tuple(cell_tangent_weights(s1, s2, part))
        den = prod(tangents)
        table.append(LocalPartition(
            part,
            parent,
            shift,
            sum(i * s1 + j * s2 for i, j in part.cells()),
            tangents,
            pow(den % m, -1, m) if den else None,
        ))
    return tuple(table)


def localize(
    surface: ToricSurfaceModel,
    k: int,
    point_factor: Callable[[int, list], Iterable[Sequence[Sequence]]],
    z: tuple[int, int],
    width: tuple[int, ...],
    m: int,
) -> dict[tuple[int, ...], int]:
    """[q^k] of prod_p sum_lambda q^|lambda| point_factor(p, lambda) / e_p(lambda),
    mod m, a product of word primes: one pass per specialization z.

    ``point_factor(p, table)`` gets the shared ``partition_table`` of each
    n = 0..k at surface point p, which holds per partition lambda its
    2|lambda| specialized tangent weights, the sum of its cell shifts, and
    its parent (lambda less its last cell, among the partitions of n - 1)
    with the shift of that cell.  It yields, per n, the local integrands of
    those partitions in table order, each a truncated series: a flat
    row-major list over one formal variable per entry of ``width``, each
    kept below its entry.  The q^k coefficient is the sum over X^[k] of the
    product of the local integrands, a class whose part at an exponent
    tuple has the tuple's total degree.  It is returned keyed by exponent
    tuple, for the tuples of total degree 2k; a part of lower degree must
    integrate to zero, else ComputationError.  A tangent weight that
    specializes to zero raises PoleError; every other tangent weight is a
    nonzero integer far below each word prime, so it is invertible mod m.
    """
    fitting = _fitting(width)

    def point_series(p: int) -> list[list]:
        v1, v2 = surface.points[p]
        s1, s2 = v1.spec_int(*z), v2.spec_int(*z)
        table = [partition_table(s1, s2, n, m) for n in range(k + 1)]
        out = []
        for level, values in zip(table, point_factor(p, table)):
            acc = [0] * len(fitting)
            for part, series in zip(level, values):
                inv = part.inverse
                if inv is None:
                    raise PoleError(
                        f"tangent weight vanished at point {p} under z={z}"
                    )
                for i, c in enumerate(series):
                    if c:
                        acc[i] += c * inv
            out.append([x % m for x in acc])
        return out

    *head, last = [point_series(p) for p in range(len(surface.points))]
    total = [[1] + [0] * (len(fitting) - 1)] + [[0] * len(fitting)] * k
    for local in head:
        total = [
            _q_coefficient(total, local, n, fitting, m) for n in range(k + 1)
        ]
    total = _q_coefficient(total, last, k, fitting, m)
    exps = _exponents(width)
    low = {e: c for e, c in zip(exps, total) if c and sum(e) < 2 * k}
    if low:
        raise ComputationError(
            f"classes below degree {2 * k} do not cancel over X^[{k}]: {low}"
        )
    return {e: c for e, c in zip(exps, total) if sum(e) == 2 * k}


def _spec_lines(bundle: SplitBundle, z: tuple[int, int]):
    """Specialized (plus, minus) line weights per surface point."""
    return [
        (
            [line.weights[p].spec_int(*z) for line in bundle.plus],
            [line.weights[p].spec_int(*z) for line in bundle.minus],
        )
        for p in range(len(bundle.surface.points))
    ]


def chern_rows(
    table: Sequence[Sequence[LocalPartition]],
    plus: Sequence[int],
    minus: Sequence[int],
    top: int,
    m: int,
) -> Iterator[list[list[int]]]:
    """Per level of ``table``, the rows c_0..c_top of the signed Chern class
    of the plus lines less the minus lines, each shifted by every cell of the
    partition, mod m.

    A partition's row is its parent's row times the lines shifted by its
    last cell, so each row costs one cell, and only the rows of two
    consecutive sizes are kept.
    """
    rows = [[1] + [0] * top]
    for n, level in enumerate(table):
        if n:
            rows = [
                signed_chern_coefficients(
                    [w + part.shift for w in plus],
                    [w + part.shift for w in minus],
                    rows[part.parent],
                    m,
                )
                for part in level
            ]
        yield rows


def localize_chern(
    surface: ToricSurfaceModel,
    k: int,
    factors: Sequence[tuple[SplitBundle, int]],
    z: tuple[int, int],
    m: int,
) -> dict[tuple[int, ...], int]:
    """Integrals of products of Chern classes of tautological bundles.

    ``factors`` lists pairs (B_j, top_j).  The result maps each (d_1, ...,
    d_r) with d_j <= top_j and sum d_j = 2k to the integral over X^[k] of
    prod_j c_{d_j}(B_j^[k]), mod m.  The local factor is the product of
    the signed Chern polynomials of the cell-shifted line weights of each
    B_j, grown partition by partition from the parent's by ``chern_rows``.
    """
    lines = [_spec_lines(bundle, z) for bundle, _ in factors]

    def factor(p, table):
        grown = [
            chern_rows(table, *spec[p], top, m)
            for (_, top), spec in zip(factors, lines)
        ]
        for level in table:
            flats = [[1]] * len(level)
            for rows in map(next, grown):
                flats = [
                    [x * y % m for x in flat for y in row]
                    for flat, row in zip(flats, rows)
                ]
            yield flats

    width = tuple(top + 1 for _, top in factors)
    return localize(surface, k, factor, z, width, m)


def exact(
    residue_at: Callable[[tuple[int, int], int], int],
    seed: int = DEFAULT_SEED,
    cache: ResultCache | None = None,
    request: dict | None = None,
) -> Fraction:
    """The exact value of a localization sum from its residues.

    ``residue_at(z, m)`` is the sum under the specialization z, mod m, a
    product of word primes.  Each specialization is rebuilt by
    ``reconstruct`` and two of them are cross-checked by
    ``dual_specialized``.  This is the one place that reads and writes
    ``cache``, under ``request``.
    """

    def compute() -> Fraction:
        return dual_specialized(lambda z: reconstruct(partial(residue_at, z)), seed)

    return compute() if cache is None else cache.fetch(request, compute)


def _chern_plans_at(
    surface: ToricSurfaceModel,
    k: int,
    plans: Sequence[tuple[list, list]],
    z: tuple[int, int],
    m: int,
) -> int:
    """Sum over plans (factors, [(exponents, weight), ...]) of each weight
    times that entry of ``localize_chern(surface, k, factors, z, m)``, mod m."""
    total = 0
    for factors, top in plans:
        series = localize_chern(surface, k, factors, z, m)
        total += sum(residue(w, m) * series[exps] for exps, w in top)
    return total % m


def integrate(
    req: IntegralRequest,
    seed: int = DEFAULT_SEED,
    cache: ResultCache | None = None,
) -> Fraction:
    """Atiyah-Bott evaluation of a Chern-class integral over X^[k].

    Each term c_{i1}(B1)...c_{im}(Bm) is the t1^i1...tm^im coefficient of
    the product of total Chern classes c_{t1}(B1^[k])...c_{tm}(Bm^[k]),
    which is multiplicative over the surface points.
    """
    plans = [
        (
            [(req.bundles[bid], idx) for bid, idx in term.factors],
            [(tuple(idx for _, idx in term.factors), term.coefficient)],
        )
        for term in req.expr.terms
    ]
    request = {
        "op": "integrate",
        "surface": req.surface.name,
        "k": req.k,
        "bundles": {bid: b.weight_key() for bid, b in sorted(req.bundles.items())},
        "expr": str(req.expr),
    }
    return exact(
        partial(_chern_plans_at, req.surface, req.k, plans), seed, cache, request
    )


def quot_count(
    surface: ToricSurfaceModel,
    v: SplitBundle | EquivariantLineBundle,
    k: int,
    seed: int = DEFAULT_SEED,
    cache: ResultCache | None = None,
) -> Fraction:
    """The quotient count: integral of c_{2k} of the taut bundle of V*.

    The argument is V itself; the dual is taken here.  For honest V the
    count is asserted to be an integer (it is a signed count of points).
    """
    v = as_split(v)
    if k < 0:
        raise UsageError("negative k")
    if v.rank < 1:
        raise UsageError("quot_count needs rank V >= 1")
    if k == 0:
        return Fraction(1)
    vd = v.dual()
    req = IntegralRequest(
        surface, k, {"Vdual_k": vd}, ChernExpr.chern(2 * k, "Vdual_k")
    )
    value = integrate(req, seed=seed, cache=cache)
    if v.is_honest() and value.denominator != 1:
        raise ComputationError(f"honest quot count came out non-integral: {value}")
    return value


def chi_theta(
    surface: ToricSurfaceModel,
    e: SplitBundle | EquivariantLineBundle,
    k: int,
    seed: int = DEFAULT_SEED,
    cache: ResultCache | None = None,
) -> int:
    """chi of the determinant line bundle induced by e on X^[k].

    Localization sum of exp(-theta u) * prod todd(v u) / (u^2k * prod v);
    ``localize`` checks that the strictly negative u-powers cancel across
    fixed points, and the u^0 coefficient is the (integer) answer.  A
    truncated product is exact up to its order, so order 2k suffices.  A
    non-orthogonal e (chi_pair nonzero) only warns: the line bundle exists,
    it is just not the canonical pairing class.
    """
    e = as_split(e)
    if k < 0:
        raise UsageError("negative k")
    if chi_pair(surface, e.chern_data(), k) != 0:
        warnings.warn(
            f"chi_pair(e, k={k}) != 0: theta class is not orthogonal",
            stacklevel=2,
        )
    if k == 0:
        return 1
    order = 2 * k

    def residue_at(z: tuple[int, int], m: int) -> int:
        lines = _spec_lines(e, z)

        def factor(p, table):
            plus, minus = lines[p]
            det, rank = sum(plus) - sum(minus), len(plus) - len(minus)
            for n, level in enumerate(table):
                yield [
                    exp_todd_series(
                        n * det + rank * part.shift_sum, part.tangents, order, m
                    )
                    for part in level
                ]

        return localize(surface, k, factor, z, (order + 1,), m)[(order,)]

    request = {
        "op": "chi_theta",
        "surface": surface.name,
        "k": k,
        "bundle": e.weight_key(),
        "order": order,
    }
    value = exact(residue_at, seed, cache, request)
    if value.denominator != 1:
        raise ComputationError(f"chi_theta came out non-integral: {value}")
    return int(value)


# ---------------------------------------------------------------------------
# expected dimensions and the count-matching loop


def expected_dim_pairs(
    surface: ToricSurfaceModel,
    v: ChernData | SplitBundle,
    k: int,
) -> int:
    """chi(V*) - 1 - (rank V - 2) k, the expected dimension of the pair space."""
    if k < 0:
        raise UsageError("negative k")
    if isinstance(v, SplitBundle):
        v = v.chern_data()
    if v.rank < 1:
        raise UsageError("expected_dim_pairs needs rank V >= 1")
    return chi_from_chern(surface, v.dual()) - 1 - (v.rank - 2) * k


def c2_for_expected_dim_zero(r: int, d: int, k: int) -> int:
    """c2(V*) forcing expected dimension zero for degree-(-d) rank-r V on P2:
    the expected dimension at c2 = 0, since each unit of c2 lowers it by one."""
    if r < 2:
        raise UsageError("need rank r >= 2")
    if d < 1:
        raise UsageError("need degree d >= 1")
    if k < 1:
        raise UsageError("need k >= 1")
    return expected_dim_pairs(make_surface("P2"), ChernData(r, (-d,), 0), k)


@dataclass(frozen=True)
class ConstructionReport:
    ok: bool
    r: int
    d: int
    w: int
    lower: int
    upper: int
    violations: tuple[str, ...]


def validate_construction(r: int, d: int, w: int) -> ConstructionReport:
    """Check the (r, d, w) bounds under which good split constructions exist.

    Requires r >= 2, d >= 1 and C(d+1,2) <= w <= C(d+2,2) - 3 + eps with
    eps = 1 for d in {1, 2} and 0 otherwise.
    """
    eps = 1 if d in (1, 2) else 0
    lower = comb(d + 1, 2)
    upper = lower + d - 2 + eps  # C(d+2,2) - 3 + eps, by Pascal's rule
    violations = []
    if r < 2:
        violations.append(f"rank bound violated: r = {r} < 2")
    if d < 1:
        violations.append(f"degree bound violated: d = {d} < 1")
    else:
        if w < lower:
            violations.append(f"lower bound violated: w = {w} < C(d+1,2) = {lower}")
        if w > upper:
            violations.append(
                f"upper bound violated: w = {w} > C(d+2,2) - 3 + eps = {upper}"
            )
    return ConstructionReport(not violations, r, d, w, lower, upper, tuple(violations))


@dataclass(frozen=True)
class ConjectureRow:
    k: int
    c2_vstar: int
    quot: int | None
    chi: int | None
    equal: bool | None
    error: str | None = None

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "c2_vstar": self.c2_vstar,
            "quot_count": None if self.quot is None else str(self.quot),
            "chi_theta": None if self.chi is None else str(self.chi),
            "equal": self.equal,
            "error": self.error,
        }


def verify_conjecture(
    surface: ToricSurfaceModel,
    r: int,
    d: int,
    k_max: int,
    seed: int = DEFAULT_SEED,
    threads: int = 1,
    cache: ResultCache | None = None,
) -> list[ConjectureRow]:
    """Check quot_count = chi_theta for the expected-dimension-zero family.

    For each k <= k_max: pick c2(V*) so the expected dimension vanishes,
    realize split stand-ins for V* and for e = e_from_v(V, k) (the integrals
    depend only on Chern data), assert the orthogonality chi_pair(e, k) = 0,
    and compare the two sides.  A failed split-model search is recorded in
    that row instead of aborting the sweep.

    The count interpretation assumes Quot(V, k) finite and reduced and the
    vanishing of higher cohomology of the determinant line bundle, which
    hold for large d; the integrals themselves are unconditional.
    ``threads`` is accepted and unused.
    """
    if surface.family != "P2":
        raise UsageError("the expected-dimension-zero family is built on P2")
    if r < 3:
        raise UsageError("need rank r >= 3")
    if d < 1:
        raise UsageError("need degree d >= 1")
    if k_max < 1:
        raise UsageError("need k_max >= 1")
    rows: list[ConjectureRow] = []
    for k in range(1, k_max + 1):
        c2s = c2_for_expected_dim_zero(r, d, k)
        v = ChernData(r, (-d,), c2s)
        e = e_from_v(v, k)
        if chi_pair(surface, e, k) != 0:
            raise ComputationError(
                f"orthogonality broke at k={k}: chi_pair = {chi_pair(surface, e, k)}"
            )
        try:
            v_model = realize_split_model(surface, v.dual()).dual()
            e_model = realize_split_model(surface, e)
        except RealizationError as exc:
            rows.append(ConjectureRow(k, c2s, None, None, None, str(exc)))
            continue
        quot = quot_count(surface, v_model, k, seed=seed, cache=cache)
        chi = chi_theta(surface, e_model, k, seed=seed, cache=cache)
        rows.append(ConjectureRow(k, c2s, int(quot), chi, quot == chi))
    return rows

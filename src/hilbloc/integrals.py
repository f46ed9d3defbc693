"""Localization integrals over the Hilbert scheme X^[k].

Chern-class integrals of tautological bundles (integrate, quot_count) and
holomorphic Euler characteristics of determinant line bundles (chi_theta)
are sums over the torus-fixed points of X^[k]: tuples of partitions, one
per fixed point p of the surface.  Each integrand, over the tangent Euler
class, is a product of local factors f_p(lambda_p), so the sum is the q^k
coefficient of prod_p sum_lambda q^|lambda| f_p(lambda) (the
Ellingsrud-Goettsche-Lehn factorization).  ``q_product`` evaluates it by
walking the partitions of n <= k at each point, not the tuples.

Every sum keeps one contract: the integrand is a mixed-degree class, and
``top_degree`` returns the integrals of its parts of degree 2k = dim X^[k],
drops the parts above it, and checks that those below it integrate to zero.
Every sum is ``top_degree`` of one ``q_product`` coefficient: the Chern
sums take the last point's product at q^k alone, chi_theta all of q^0..q^K.

What a partition contributes apart from the bundle depends on the chart
only through one costly number: the inverse of its tangent product mod m.
The rest is chart-free: ``_hook_table`` keeps, once per n and process, each
partition's parent (the partition one cell smaller), last cell, cell row
and column sums, and its tangent weights in the basis of the chart weights,
kept flat, so the arm/leg formula runs once per partition and process.
``partition_table`` keeps only the inverses, one table per specialized
chart weights, n and m, so every bundle, k and side of a sum under the same
z shares it, and it takes one modular inverse for all the tangent products
of the table.  It alone finds a pole (a tangent product that specializes to
zero) and raises PoleError; ``dual_specialized`` retries under a fresh z.
Neither keeps a specialized weight: a cell shift is one
multiply away from the hook table, and the 2n tangent weights per
partition, chart, n and modulus would be most of what a sum keeps, so
``theta_level``, the one reader past the product, specializes them again.
Chern-class integrands are built cell by cell: ``chern_rows`` grows each
partition's row of Chern classes from its parent's by the lines of its
last cell, instead of from all of its cells.  Each point factor hands
``q_product`` one series per level n, the sum over the partitions of n of
their integrands over their tangent products (``level_sum``).

For the Chern sums that level series depends on the bundles only through
their line weights at the point, so ``chern_levels`` keeps it per chart,
modulus, local lines and later factors' tops, at the highest k and first
top built, and reads a smaller request off a prefix of each level.  A
line bundle in its canonical linearization has weight 0 at the first
point, so the rows of ``verify_conjecture`` (from k_max down) read that
point off the k_max build, and a ``quot_count`` after ``virtual_integral``
(P = 1) of the same V reads every point.

For chi_theta the level sum at a chart depends on e only through its
rank and det, the canonical weight of det e = O(c1(e)) there: each
partition of n adds its Todd series twisted by exp(-(n det + rank S) u),
S the sum of its cell shifts (``theta_level``), so chi_theta reads e as
its rank and c1.  The product over the points is one table per surface,
rank, c1, specialization and modulus: all of q^0..q^K at order 2K for the
highest K built, of which a call at k <= K reads the q^k row up to u^2k
and checks it with ``top_degree``.  ``verify_conjecture`` runs from k_max
down, so it builds each of them once per specialization.  Each
partition's Todd series there is ``symbolic.exp_todd_series``, which
reads its weights' even powers from cached rows packed into one int each,
so a partition's power sums are one integer sum, and exponentiates only
the linear and even terms of the Todd log.

Every sum is an integer over a known denominator D: Chern numbers of the
smooth X^[k], or a holomorphic Euler characteristic there, times the
coefficients of a Chern expression.  It is evaluated mod m, a product of
word primes, one pass per specialization, and the integer is rebuilt from
the residue (``symbolic.reconstruct``).  ``exact`` does that under two
independent integer specializations of (t1, t2), asserts the results equal
(so a bad specialization cannot leak into output) and divides by D; it
alone reads and writes the cache.
The module also holds the Chern-expression grammar and the count-matching
verification loop (verify_conjecture), whose quot side reads V* as the
virtual split model ``realize_split_model`` writes down from its Chern data.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import lcm, prod
from typing import Callable, Iterable, Iterator, Sequence

from .cache import ResultCache
from .errors import ComputationError, ParseError, PoleError, UsageError, check_int
from .hilb import check_k, check_work, partitions, tangent_forms
from .symbolic import (
    DEFAULT_SEED,
    dual_specialized,
    exp_todd_series,
    reconstruct,
    signed_chern_coefficients,
)
from .toric import (
    ChernData,
    EquivariantLineBundle,
    SplitBundle,
    ToricSurfaceModel,
    chern_data_on,
    chi_from_chern,
    chi_pair,
    e_from_v,
    line_bundle,
    make_surface,
    realize_split_model,
    split_on,
)
from .value import Frozen

__all__ = [
    "Term",
    "ChernExpr",
    "parse_chern_expr",
    "partition_table",
    "level_sum",
    "q_product",
    "top_degree",
    "chern_rows",
    "chern_levels",
    "localize_chern",
    "exact",
    "integrate",
    "quot_count",
    "theta_level",
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


class Term(Frozen):
    """coefficient * product of c_index(bundle_id) factors."""

    __slots__ = _fields = ("coefficient", "factors")

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


class ChernExpr(Frozen):
    """A formal sum of Chern monomials in declared bundle identifiers."""

    __slots__ = _fields = ("terms",)

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
        while pos < n and text[pos].isdecimal():
            pos += 1
        value = int(text[start:pos])
        if pos < n and text[pos] == "/":
            pos += 1
            dstart = pos
            while pos < n and text[pos].isdecimal():
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
        if ch.isdecimal():
            return parse_number()
        if ch == "c":
            pos += 1
            istart = pos
            while pos < n and text[pos].isdecimal():
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


@lru_cache(maxsize=64)
def _hook_table(n: int) -> tuple[tuple, ...]:
    """The chart-free data of every partition of n, in ``partitions`` order.

    Per partition: its parts, its parent's index among the partitions of
    n - 1 (in the order of ``_hook_table(n - 1)``), its last cell (i, j)
    (the last of its last row), the sums of the rows i and of the columns j
    of its cells, and its tangent weights as the forms a*v1 + b*v2 of
    ``hilb.tangent_forms``, kept flat: the tuple of the 2n a's, then that
    of the 2n b's.  At a chart (s1, s2) a shift is i*s1 + j*s2: ``chern_rows``
    takes the last cell's, ``theta_level`` the sums', and it and
    ``partition_table`` specialize the forms (``_tangents``).
    """
    parents = {} if n == 0 else {
        entry[0]: i for i, entry in enumerate(_hook_table(n - 1))
    }
    table = []
    for part in partitions(n):
        parts = part.parts
        parent, last = 0, (0, 0)  # the empty partition has neither
        if parts:
            last = i, j = len(parts) - 1, parts[-1] - 1
            parent = parents[parts[:-1] + ((j,) if j else ())]
        forms = list(tangent_forms(parts, part.conjugate))
        table.append((
            parts,
            parent,
            last,
            (
                sum(i * p for i, p in enumerate(parts)),
                sum(p * (p - 1) // 2 for p in parts),
            ),
            tuple(a for a, _ in forms),
            tuple(b for _, b in forms),
        ))
    return tuple(table)


def _tangents(s1: int, s2: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The tangent weights a_i*s1 + b_i*s2 of a partition at the chart (s1, s2),
    from its flat forms in ``_hook_table``."""
    return [x * s1 + y * s2 for x, y in zip(a, b)]


@lru_cache(maxsize=1024)
def partition_table(s1: int, s2: int, n: int, m: int) -> tuple[int, ...]:
    """1 / (the product of its tangent weights at the chart (s1, s2)) mod m
    for every partition of n, in ``_hook_table(n)`` order.

    It depends only on the chart's specialized weights and the modulus, so
    a process builds it once and every bundle, k and side of a sum under
    the same z reuses it.  The specialized tangent weights serve only to
    take their product, and are dropped once it is taken.
    If a tangent product of the level specializes to zero, it raises
    PoleError (``q_product`` adds the point and z) and keeps no table.
    Every product is then a product of nonzero integers far below each
    word prime, so it is invertible mod m, and the table takes one inverse
    for all of them (Montgomery's trick): that of their product, from
    which the prefix products peel off each one.
    """
    dens = [prod(_tangents(s1, s2, a, b)) % m for *_, a, b in _hook_table(n)]
    if 0 in dens:
        raise PoleError("tangent weight vanished")
    prefix = [1]  # prefix[i]: the product of the dens before i
    for den in dens:
        prefix.append(prefix[-1] * den % m)
    inverse = pow(prefix[-1], -1, m)  # 1 / prefix[i + 1] at step i below
    inverses = [0] * len(dens)
    for i in reversed(range(len(dens))):
        inverses[i] = inverse * prefix[i] % m
        inverse = inverse * dens[i] % m
    return tuple(inverses)


def level_sum(
    inverses: Sequence[int], series: Sequence[Sequence[int]], m: int
) -> list[int]:
    """sum over the partitions of one level of each one's series divided by
    its tangent product, mod m.

    ``inverses`` is the level's ``partition_table``, which has already
    refused a pole, and ``series`` holds a truncated series per partition,
    in the same order.
    """
    acc = [0] * len(series[0])
    for inv, values in zip(inverses, series):
        for i, c in enumerate(values):
            if c:
                acc[i] += c * inv
    return [x % m for x in acc]


def q_product(
    surface: ToricSurfaceModel,
    k: int,
    point_factor: Callable[[int, int, int], Iterable[Sequence[int]]],
    z: tuple[int, int],
    width: tuple[int, ...],
    m: int,
    low: int,
) -> list[list[int]]:
    """[q^low], ..., [q^k] of prod_p sum_n q^n point_factor(p, s1, s2)[n],
    mod m, a product of word primes: one pass per specialization z.

    ``point_factor(p, s1, s2)`` gets surface point p and its specialized
    chart weights, and yields for each n = 0..k the sum over the partitions
    lambda of n of the local integrand at lambda over the tangent Euler
    class e_p(lambda) (``level_sum``).  Each is a truncated series: a flat
    row-major list over one formal variable per entry of ``width``, each
    kept below its entry.  The q^n coefficient is the sum over X^[n] of the
    product of the local integrands.  The last point's product is taken
    only at q^low..q^k, so low = k costs one coefficient there.  A pole
    (``partition_table``'s PoleError) is raised again naming the point and z.
    """
    fitting = _fitting(width)

    def point_series(p: int) -> list[list]:
        v1, v2 = surface.points[p]
        try:
            return list(point_factor(p, v1.spec_int(*z), v2.spec_int(*z)))
        except PoleError:
            raise PoleError(
                f"tangent weight vanished at point {p} under z={z}"
            ) from None

    *head, last = [point_series(p) for p in range(len(surface.points))]
    total = [[1] + [0] * (len(fitting) - 1)] + [[0] * len(fitting)] * k
    for local in head:
        total = [
            _q_coefficient(total, local, n, fitting, m) for n in range(k + 1)
        ]
    return [
        _q_coefficient(total, last, n, fitting, m) for n in range(low, k + 1)
    ]


def top_degree(
    series: Sequence[int], width: tuple[int, ...], k: int
) -> dict[tuple[int, ...], int]:
    """The integrals over X^[k] of a class summed over its fixed points.

    ``series`` is a flat row-major series over ``width`` (``q_product``'s
    q^k coefficient), whose part at an exponent tuple has the tuple's total
    degree.  It is returned keyed by exponent tuple, for the tuples of
    total degree 2k = dim X^[k]; the parts above it are dropped, and a part
    of lower degree must integrate to zero, else ComputationError.
    """
    exps = _exponents(width)
    low = {e: c for e, c in zip(exps, series) if c and sum(e) < 2 * k}
    if low:
        raise ComputationError(
            f"classes below degree {2 * k} do not cancel over X^[{k}]: {low}"
        )
    return {e: c for e, c in zip(exps, series) if sum(e) == 2 * k}


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
    s1: int, s2: int, k: int, plus: Sequence[int], minus: Sequence[int], top: int, m: int
) -> Iterator[list[list[int]]]:
    """Per level n = 0..k at the chart (s1, s2), the rows c_0..c_top of the
    signed Chern class of the plus lines less the minus lines, each shifted
    by every cell of the partition, mod m, in ``_hook_table(n)`` order.

    A partition's row is its parent's row times the lines shifted by its
    last cell, so each row costs one cell, and only the rows of two
    consecutive sizes are kept.
    """
    rows = [[1] + [0] * top]
    yield rows
    for n in range(1, k + 1):
        grown = []
        for entry in _hook_table(n):
            i, j = entry[2]
            shift = i * s1 + j * s2
            grown.append(signed_chern_coefficients(
                [w + shift for w in plus], [w + shift for w in minus],
                rows[entry[1]], m,
            ))
        rows = grown
        yield rows


@lru_cache(maxsize=1024)
def _chern_table(s1: int, s2: int, m: int, lines: tuple, later_tops: tuple) -> list:
    """``chern_levels``' (k, first top, level series) at the highest k and
    first top built so far; empty until the first build."""
    return []


def chern_levels(
    s1: int, s2: int, m: int, lines: tuple, tops: tuple[int, ...], k: int
) -> list[list[int]]:
    """Per level n = 0..k at the chart (s1, s2), the sum over the partitions
    of n of the product of the Chern rows c_0..c_top_j of the factors,
    over the tangent products, mod m (``level_sum``).

    ``lines`` holds a pair (plus, minus) of sorted specialized line weights
    at the point per factor, one or more, and ``tops`` its top Chern
    index; a level's series is flat row-major over the widths top_j + 1,
    the first factor's row first.  By the Ellingsrud-Goettsche-Lehn
    factorization this is all a point contributes, so one table per (s1,
    s2, m, lines, tops[1:]) serves every bundle, k and sum with these
    local lines.  A Chern row
    depends only on its lower entries, a level only on the levels below
    it, and the first factor's exponent is the outermost index, so the
    table keeps the highest k and first top built so far and serves a
    smaller request from a prefix of each level.  A pole
    (``partition_table``'s PoleError) leaves the table unwritten.
    """
    built = _chern_table(s1, s2, m, lines, tops[1:])
    have_k, have_first, levels = built or (-1, -1, [])
    if have_k < k or tops[0] > have_first:
        have_k, have_first = max(k, have_k), max(tops[0], have_first)
        grown = [
            chern_rows(s1, s2, have_k, plus, minus, top, m)
            for (plus, minus), top in zip(lines, (have_first, *tops[1:]))
        ]
        levels = []
        for n in range(have_k + 1):
            flats, *rest = [next(rows) for rows in grown]
            for rows in rest:
                flats = [
                    [x * y % m for x in flat for y in row]
                    for flat, row in zip(flats, rows)
                ]
            levels.append(level_sum(partition_table(s1, s2, n, m), flats, m))
        built[:] = have_k, have_first, levels
    width = prod(top + 1 for top in tops)
    return [series[:width] for series in levels[: k + 1]]


def localize_chern(
    surface: ToricSurfaceModel,
    k: int,
    factors: Sequence[tuple[SplitBundle, int]],
    z: tuple[int, int],
    m: int,
) -> dict[tuple[int, ...], int]:
    """Integrals of products of Chern classes of tautological bundles.

    ``factors`` lists one or more pairs (B_j, top_j).  The result maps each
    (d_1, ..., d_r) with d_j <= top_j and sum d_j = 2k to the integral over
    X^[k] of prod_j c_{d_j}(B_j^[k]), mod m.  The local factor is the
    product of the signed Chern polynomials of the cell-shifted line
    weights of each B_j, grown partition by partition from the parent's by
    ``chern_rows``.  It depends on the bundles only through their sorted
    line weights at the point, so each point reads its level series from
    ``chern_levels``, one table per chart, modulus and local lines.
    """
    lines = [_spec_lines(bundle, z) for bundle, _ in factors]
    tops = tuple(top for _, top in factors)

    def factor(p, s1, s2):
        local = tuple(
            (tuple(sorted(plus)), tuple(sorted(minus)))
            for plus, minus in (spec[p] for spec in lines)
        )
        return chern_levels(s1, s2, m, local, tops, k)

    width = tuple(top + 1 for top in tops)
    (series,) = q_product(surface, k, factor, z, width, m, k)
    return top_degree(series, width, k)


def exact(
    residue_at: Callable[[tuple[int, int], int], int],
    seed: int = DEFAULT_SEED,
    cache: ResultCache | None = None,
    request: dict | None = None,
    denominator: int = 1,
) -> Fraction:
    """The value n / ``denominator`` of a sum whose integer n has these residues.

    ``residue_at(z, m)`` is n under the specialization z, mod m, a product
    of word primes.  Each specialization is rebuilt by ``reconstruct`` and
    two of them are cross-checked by ``dual_specialized``.  This is the one
    place that reads and writes ``cache``, under ``request``.
    """

    def compute() -> Fraction:
        n = dual_specialized(lambda z: reconstruct(partial(residue_at, z)), seed)
        return Fraction(n, denominator)

    return compute() if cache is None else cache.fetch(request, compute)


def _chern_plan_sum(
    surface: ToricSurfaceModel, k: int, plans: Sequence[tuple[list, list]],
    seed: int, cache: ResultCache | None, request: dict,
) -> Fraction:
    """Sum over plans (factors, [(exponents, weight), ...]) of each weight
    times that entry of ``localize_chern(surface, k, factors, z, m)``.  The
    entries are Chern numbers of X^[k], integers, so each pass sums the
    weights times D, the lcm of their denominators, and ``exact`` divides
    by D."""
    den = lcm(*(w.denominator for _, top in plans for _, w in top))
    scaled = [(f, [(e, int(w * den)) for e, w in top]) for f, top in plans]

    def residue_at(z: tuple[int, int], m: int) -> int:
        total = 0
        for factors, top in scaled:
            series = localize_chern(surface, k, factors, z, m)
            total += sum(w * series[exps] for exps, w in top)
        return total % m

    return exact(residue_at, seed, cache, request, den)


def integrate(
    surface: ToricSurfaceModel,
    k: int,
    bundles: dict[str, SplitBundle | EquivariantLineBundle],
    expr: ChernExpr,
    seed: int = DEFAULT_SEED,
    cache: ResultCache | None = None,
) -> Fraction:
    """Atiyah-Bott evaluation of a Chern-class integral over X^[k].

    ``expr`` is homogeneous of degree 2k in the ids ``bundles`` declares.
    Each term c_{i1}(B1)...c_{im}(Bm) is the t1^i1...tm^im coefficient of
    the product of total Chern classes c_{t1}(B1^[k])...c_{tm}(Bm^[k]),
    which is multiplicative over the surface points.  X^[0] is a point, so
    at k = 0 the value is the expression's constant.
    """
    check_work(k)
    bundles = {bid: split_on(surface, b, f"bundle {bid!r}") for bid, b in bundles.items()}
    missing = expr.bundle_ids() - set(bundles)
    if missing:
        raise UsageError(f"undeclared bundle ids in expression: {sorted(missing)}")
    degs = expr.degrees()
    if degs != {2 * k} and expr.terms:
        raise UsageError(
            f"expression degrees {sorted(degs)} != 2k = {2 * k}; "
            "integrals over X^[k] need homogeneous degree 2k"
        )
    if k == 0:
        return sum((term.coefficient for term in expr.terms), Fraction(0))
    plans = [
        (
            [(bundles[bid], idx) for bid, idx in term.factors],
            [(tuple(idx for _, idx in term.factors), term.coefficient)],
        )
        for term in expr.terms
    ]
    request = {
        "op": "integrate",
        "surface": surface.name,
        "k": k,
        "bundles": {bid: b.weight_key() for bid, b in sorted(bundles.items())},
        "expr": str(expr),
    }
    return _chern_plan_sum(surface, k, plans, seed, cache, request)


def quot_count(
    surface: ToricSurfaceModel,
    v: SplitBundle | EquivariantLineBundle,
    k: int,
    seed: int = DEFAULT_SEED,
    cache: ResultCache | None = None,
) -> Fraction:
    """The quotient count: integral of c_{2k} of the taut bundle of V*.

    The argument is V itself; the dual is taken here.  The count, a Chern
    number of X^[k], is asserted to be an integer, as a cached one may not be.
    """
    v = split_on(surface, v, "V")
    check_k(k)
    if v.rank < 1:
        raise UsageError("quot_count needs rank V >= 1")
    value = integrate(
        surface, k, {"Vdual_k": v.dual()}, ChernExpr.chern(2 * k, "Vdual_k"),
        seed=seed, cache=cache,
    )
    if value.denominator != 1:
        raise ComputationError(f"quot count came out non-integral: {value}")
    return value


def theta_level(
    s1: int, s2: int, n: int, m: int, rank: int, det: int, order: int
) -> list[int]:
    """sum over the partitions lambda of n of exp(-(n det + rank S_lambda) u)
    todd_lambda(u) / e_lambda, mod m, truncated at u^order (order >= 1).

    S_lambda is the sum of lambda's cell shifts and todd_lambda the product
    of the Todd series of its tangent weights at the chart (s1, s2): the
    level-n series of the theta bundle of an e of this rank whose
    determinant has weight det there.  det enters the log linearly, so
    det = 0 gives the det-free sum, which at rank 0 is chi of O on
    Hilb^n C^2 in Todd form.  ``partition_table`` raises a pole before any
    Todd series is taken.  Each partition's
    S_lambda and tangent weights are specialized here from its row and
    column sums and its forms in ``_hook_table(n)``, one at a time.
    """
    return level_sum(partition_table(s1, s2, n, m), [
        exp_todd_series(
            n * det + rank * (rows * s1 + cols * s2),
            _tangents(s1, s2, a, b), order, m,
        )
        for _, _, _, (rows, cols), a, b in _hook_table(n)
    ], m)


@lru_cache(maxsize=256)
def _chi_product(
    surface: ToricSurfaceModel, rank: int, c1: tuple[int, ...], z: tuple[int, int], m: int
) -> list[list[int]]:
    """``chi_theta``'s q-product [q^0..q^K] at order 2K, for the highest K
    built so far; empty until the first build."""
    return []


def chi_theta(
    surface: ToricSurfaceModel,
    e: ChernData | SplitBundle | EquivariantLineBundle,
    k: int,
    seed: int = DEFAULT_SEED,
    cache: ResultCache | None = None,
) -> int:
    """chi of the determinant line bundle induced by e on X^[k].

    e is read as Chern data: a ``ChernData``, or a bundle reduced to its
    ``chern_data()``.  The line bundle is fixed by rank e and det e =
    O(c1(e)); c2(e) enters only chi_pair, and the cache keys a value by the
    rank and c1.

    Localization sum of exp(-theta u) * prod todd(v u) / (u^2k * prod v);
    ``top_degree`` checks that the strictly negative u-powers cancel across
    fixed points, and the u^0 coefficient is the (integer) answer.  The
    level-n series at a point is ``theta_level`` of the rank of e and det,
    the canonical weight of O(c1(e)) there.  Their ``q_product`` over the
    points is kept per (surface, rank, c1, z, m) with all of q^0..q^K at
    order 2K, for the highest K built (``_chi_product``); a call at k <= K
    reads its q^k row up to u^2k, and a pole leaves the table empty.  A
    non-orthogonal e
    (chi_pair nonzero) only warns: the line bundle exists, it is just not
    the canonical pairing class.
    """
    e = chern_data_on(surface, e, "e")
    check_work(k)
    det = line_bundle(surface, e.c1).weights
    if chi_pair(surface, e, k) != 0:
        warnings.warn(
            f"chi_pair(e, k={k}) != 0: theta class is not orthogonal",
            stacklevel=2,
        )
    if k == 0:
        return 1

    def residue_at(z: tuple[int, int], m: int) -> int:
        built = _chi_product(surface, e.rank, tuple(e.c1), z, m)
        if len(built) <= k:
            def factor(p, s1, s2):
                weight = det[p].spec_int(*z)
                for n in range(k + 1):
                    yield theta_level(s1, s2, n, m, e.rank, weight, 2 * k)

            built[:] = q_product(surface, k, factor, z, (2 * k + 1,), m, 0)
        return top_degree(built[k][: 2 * k + 1], (2 * k + 1,), k)[(2 * k,)]

    request = {
        "op": "chi_theta",
        "surface": surface.name,
        "k": k,
        "rank": e.rank,
        "c1": list(e.c1),
    }
    value = exact(residue_at, seed, cache, request)
    if value.denominator != 1:
        raise ComputationError(f"chi_theta came out non-integral: {value}")
    return int(value)


# ---------------------------------------------------------------------------
# expected dimensions and the count-matching loop


def expected_dim_pairs(
    surface: ToricSurfaceModel,
    v: ChernData | SplitBundle | EquivariantLineBundle,
    k: int,
) -> int:
    """chi(V*) - 1 - (rank V - 2) k, the expected dimension of the pair space."""
    check_k(k)
    v = chern_data_on(surface, v, "V")
    if v.rank < 1:
        raise UsageError("expected_dim_pairs needs rank V >= 1")
    return chi_from_chern(surface, v.dual()) - 1 - (v.rank - 2) * k


def c2_for_expected_dim_zero(r: int, d: int, k: int) -> int:
    """c2(V*) forcing expected dimension zero for degree-(-d) rank-r V on P2:
    the expected dimension at c2 = 0, since each unit of c2 lowers it by one."""
    check_int(r, "r")
    check_int(d, "d")
    check_int(k, "k")
    if r < 2:
        raise UsageError("need rank r >= 2")
    if d < 1:
        raise UsageError("need degree d >= 1")
    if k < 1:
        raise UsageError("need k >= 1")
    return expected_dim_pairs(make_surface("P2"), ChernData(r, (-d,), 0), k)


class ConstructionReport(Frozen):
    __slots__ = _fields = ("ok", "r", "d", "w", "lower", "upper", "violations")


def validate_construction(r: int, d: int, w: int) -> ConstructionReport:
    """Check the (r, d, w) bounds under which good split constructions exist.

    Requires r >= 2, d >= 1 and C(d+1,2) <= w <= C(d+2,2) - 3 + eps with
    eps = 1 for d in {1, 2} and 0 otherwise.  C is the binomial polynomial,
    so every d gets a report.
    """
    check_int(r, "r")
    check_int(d, "d")
    check_int(w, "w")
    eps = 1 if d in (1, 2) else 0
    lower = (d + 1) * d // 2  # C(d+1,2), also for d < -1
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


class ConjectureRow(Frozen):
    """One k of ``verify_conjecture``: c2(V*), both sides and whether they
    agree.  ``error`` stays in the report format; the sweep leaves it None."""

    __slots__ = _fields = ("k", "c2_vstar", "quot", "chi", "equal", "error")

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
    take e = e_from_v(V, k), assert the orthogonality chi_pair(e, k) = 0,
    and compare the two sides.  ``chi_theta`` reads e as Chern data, and by
    Ellingsrud-Goettsche-Lehn universality a quot count depends on V* only
    through its Chern data too, so ``quot_count`` gets the dual of
    ``realize_split_model``'s V* = O(d) + O^(r-2) + O(c2) + O(1) - O(c2 + 1).
    Every row gets both values.

    The count interpretation assumes Quot(V, k) finite and reduced and the
    vanishing of higher cohomology of the determinant line bundle, which
    hold for large d; the integrals themselves are unconditional.
    ``threads`` is accepted and unused.
    """
    if surface.family != "P2":
        raise UsageError("the expected-dimension-zero family is built on P2")
    check_int(r, "r")
    check_int(d, "d")
    check_int(k_max, "k")
    if r < 3:
        raise UsageError("need rank r >= 3")
    if d < 1:
        raise UsageError("need degree d >= 1")
    if k_max < 1:
        raise UsageError("need k_max >= 1")
    check_work(k_max)
    rows: list[ConjectureRow] = []
    # from k_max down: the first chi_theta call builds the q-product at
    # k_max, and every smaller k reads its row of it
    for k in range(k_max, 0, -1):
        c2s = c2_for_expected_dim_zero(r, d, k)
        e = e_from_v(ChernData(r, (-d,), c2s), k)
        if chi_pair(surface, e, k) != 0:
            raise ComputationError(
                f"orthogonality broke at k={k}: chi_pair = {chi_pair(surface, e, k)}"
            )
        v = realize_split_model(surface, ChernData(r, (d,), c2s)).dual()
        quot = quot_count(surface, v, k, seed=seed, cache=cache)
        chi = chi_theta(surface, e, k, seed=seed, cache=cache)
        rows.append(ConjectureRow(k, c2s, int(quot), chi, quot == chi, error=None))
    return rows[::-1]

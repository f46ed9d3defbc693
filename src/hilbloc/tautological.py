"""Virtual integrals over the ambient space P x X^[k].

The pair moduli space embeds in P x X^[k] (P the projective space of
cosections of V, of dimension Dp = chi(V*) - 1) and its virtual class is the
Euler class of the twisted tautological bundle V*^[k] (x) O(1).  Integrals
against the virtual class therefore live on P x X^[k].

On P the only class is the hyperplane h, so it is integrated out in closed
form.  With R the rank of V*^[k], c(V*^[k] (x) O(1)) is the sum over b of
c_b(V*^[k]) (1 + h)^(R - b), and likewise the transform's Chern classes
expand in c_beta(Lambda^[k]) times powers of (1 + h).  Reading off h^Dp
turns a term c_i1(IT)...c_im(IT) into a binomial-weighted sum of
tautological integrals of c_b(V*^[k]) prod_j c_beta_j(Lambda^[k]) over
X^[k], all of which one ``localize_chern`` call returns; its
``top_degree`` checks that those of degree below dim X^[k] vanish, and
those above it do not contribute.  Minus lines in V or Lambda keep the
same expansion with generalized binomials.

The module also extracts universal polynomials: the value of a fixed
integral shape as a polynomial in intersection numbers of (X, V, Lambda),
interpolated exactly from sampled configurations by fraction-free
Gauss-Jordan elimination on integers.  Ranks and the expected
dimension are fixed per extraction: the ambient dimension Dp enters the
integral structurally (as the extracted h-power), so polynomiality in the
intersection numbers holds on each fixed-expected-dimension family, and the
held-out verification hard-fails if a sampled family ever falls outside
that regime.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial, gcd, lcm, prod

from .cache import ResultCache
from .errors import ComputationError, UsageError
from .hilb import check_int, check_k, check_work
from .integrals import ChernExpr, _chern_plan_sum, expected_dim_pairs
from .symbolic import DEFAULT_SEED
from .toric import (
    ChernData,
    EquivariantLineBundle,
    SplitBundle,
    ToricSurfaceModel,
    chi_surface,
    make_surface,
    realize_split_model,
    split_on,
)
from .value import Frozen, Value, set_field

__all__ = [
    "virtual_integral",
    "UniversalPolynomial",
    "universal_poly",
    "SYMBOL_NAMES",
]


# ---------------------------------------------------------------------------
# bigraded truncated polynomials in (h, u): the per-fixed-point form of the
# ambient class, which ``virtual_integral`` no longer needs; the tests keep it
# as the reference sum.


def _gen_binomial(m: int, t: int) -> Fraction:
    """Generalized binomial C(m, t) for any integer m; zero when t < 0."""
    if t < 0:
        return Fraction(0)
    num = 1
    for s in range(t):
        num *= m - s
    return Fraction(num, factorial(t))


class AmbientClass(Value):
    """Polynomial in h (degree <= hmax) and u (degree <= umax), truncated."""

    __slots__ = _fields = ("hmax", "umax", "coeffs")

    def __init__(
        self, hmax: int, umax: int, coeffs: dict[tuple[int, int], Fraction]
    ) -> None:
        self.hmax = hmax
        self.umax = umax
        self.coeffs = coeffs

    @classmethod
    def one(cls, hmax: int, umax: int) -> "AmbientClass":
        return cls(hmax, umax, {(0, 0): Fraction(1)})

    @classmethod
    def zero(cls, hmax: int, umax: int) -> "AmbientClass":
        return cls(hmax, umax, {})

    def _like(self, coeffs) -> "AmbientClass":
        return AmbientClass(self.hmax, self.umax, coeffs)

    def __add__(self, other: "AmbientClass") -> "AmbientClass":
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out[key] = out.get(key, 0) + val
        return self._like(out)

    def scale(self, q) -> "AmbientClass":
        if q == 0:
            return self._like({})
        return self._like({k: v * q for k, v in self.coeffs.items()})

    def __mul__(self, other: "AmbientClass") -> "AmbientClass":
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), v1 in self.coeffs.items():
            for (i2, j2), v2 in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i <= self.hmax and j <= self.umax:
                    out[(i, j)] = out.get((i, j), 0) + v1 * v2
        return self._like(out)

    def mul_trinomial(self, w) -> "AmbientClass":
        """Multiply by (1 + h + u*w)."""
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), v in self.coeffs.items():
            out[(i, j)] = out.get((i, j), 0) + v
            if i + 1 <= self.hmax:
                out[(i + 1, j)] = out.get((i + 1, j), 0) + v
            if w != 0 and j + 1 <= self.umax:
                out[(i, j + 1)] = out.get((i, j + 1), 0) + v * w
        return self._like(out)

    def div_trinomial(self, w) -> "AmbientClass":
        """Divide by (1 + h + u*w); well-defined by the unit constant term."""
        out: dict[tuple[int, int], Fraction] = {}
        for i in range(self.hmax + 1):
            for j in range(self.umax + 1):
                val = self.coeffs.get((i, j), Fraction(0))
                if i > 0:
                    val -= out.get((i - 1, j), 0)
                if j > 0 and w != 0:
                    val -= w * out.get((i, j - 1), 0)
                if val != 0:
                    out[(i, j)] = val
        return self._like(out)

    def mul_h_binomial(self, m: int) -> "AmbientClass":
        """Multiply by (1 + h)^m for any integer m."""
        if m == 0:
            return self
        out: dict[tuple[int, int], Fraction] = {}
        row = [_gen_binomial(m, t) for t in range(self.hmax + 1)]
        for (i, j), v in self.coeffs.items():
            for t in range(self.hmax - i + 1):
                if row[t] != 0:
                    out[(i + t, j)] = out.get((i + t, j), 0) + v * row[t]
        return self._like(out)

    def component(self, degree: int) -> "AmbientClass":
        """The part of total (h, u) degree equal to the given value."""
        return self._like(
            {k: v for k, v in self.coeffs.items() if k[0] + k[1] == degree}
        )

    def h_slice(self, i: int) -> list[Fraction]:
        return [self.coeffs.get((i, j), Fraction(0)) for j in range(self.umax + 1)]


# ---------------------------------------------------------------------------
# the ambient localization integral


def _require_ambient(surface: ToricSurfaceModel, v: SplitBundle) -> None:
    if not v.is_honest():
        raise UsageError("ambient space needs an honest (minus-free) V")
    for line in v.plus:
        if not surface.is_nef(tuple(-d for d in line.degrees)):
            raise UsageError(
                "ambient space needs nef dual summands so that "
                "dim P = chi(V*) - 1 is an honest section count"
            )


def virtual_integral(
    surface: ToricSurfaceModel,
    v: SplitBundle | EquivariantLineBundle,
    lam: SplitBundle | EquivariantLineBundle | None,
    k: int,
    p_expr: ChernExpr | None = None,
    seed: int = DEFAULT_SEED,
    cache: ResultCache | None = None,
) -> Fraction:
    """Integral of P (in Chern classes of the transform) against the
    virtual class of the pair space, evaluated on P x X^[k].

    P defaults to 1, which integrates the pushed-forward virtual class
    itself (the count shape).  The expression may mix degrees.  Minus lines
    in V or Lambda are accepted, with a warning that the ambient dimension
    is then read off Chern data rather than certified by section counts.
    The virtual dimension is ``expected_dim_pairs``, so a V of rank < 1,
    which has no pair space, is a UsageError.
    """
    v = split_on(surface, v, "V")
    lam = SplitBundle(surface) if lam is None else split_on(surface, lam, "Lambda")
    if p_expr is None:
        p_expr = ChernExpr.constant(1)
    bad_ids = p_expr.bundle_ids() - {"IT"}
    if bad_ids:
        raise UsageError(f"expression may only reference c_j(IT): {sorted(bad_ids)}")
    check_k(k)
    check_work(k)
    try:
        _require_ambient(surface, v)
    except UsageError as exc:
        warnings.warn(f"{exc}; continuing with Dp = chi(V*) - 1 formally",
                      stacklevel=2)
    vdual = v.dual()
    chi_vdual = chi_surface(surface, vdual)
    dp = chi_vdual - 1
    if dp < 0:
        raise UsageError(f"ambient projective space is empty: chi(V*) = {chi_vdual}")
    chi_lam = chi_surface(surface, lam)
    vdim = expected_dim_pairs(surface, v, k)
    degs = p_expr.degrees()
    if vdim not in degs:
        warnings.warn(
            f"virtual dimension {vdim} not among expression degrees "
            f"{sorted(degs)}; the integral vanishes by degree",
            stacklevel=2,
        )

    # Per term: the Chern factors (V*, top b) and (Lambda, top beta_j), and
    # the binomial weights of the entries of u-degree b + sum(beta) = 2k.
    # Classes above 2k never reach that entry, and above the rank of an
    # honest bundle they vanish, so the tops stop there.
    rank_v, rank_lam = vdual.rank * k, lam.rank * k
    m_lam = rank_lam - chi_lam
    b_top = min(2 * k, rank_v) if vdual.is_honest() else 2 * k
    lam_top = min(2 * k, rank_lam) if lam.is_honest() else 2 * k
    plans = []
    reached = False
    for term in p_expr.terms:
        idxs = [idx for _, idx in term.factors]
        tops = [min(i, lam_top) for i in idxs]
        factors = [(vdual, b_top)] + [(lam, t) for t in tops]
        top = []
        ranges = [range(b_top + 1)] + [range(t + 1) for t in tops]
        for b, *betas in product(*ranges):
            udeg = b + sum(betas)
            if udeg > 2 * k:
                continue
            weight = term.coefficient * _gen_binomial(
                rank_v - b, dp - sum(idxs) + sum(betas)
            )
            for i, beta in zip(idxs, betas):
                if not weight:  # C(m, t) takes t steps, and t grows with i
                    break
                weight *= _gen_binomial(m_lam - beta, i - beta)
            reached = reached or weight != 0
            if udeg == 2 * k and weight:
                top.append(((b, *betas), weight))
        plans.append((factors, top))

    request = {
        "op": "virtual_integral",
        "surface": surface.name,
        "k": k,
        "V": v.weight_key(),
        "Lambda": lam.weight_key(),
        "expr": str(p_expr),
        "hmax": dp,
    }
    value = _chern_plan_sum(surface, k, plans, seed, cache, request)
    if not reached:
        warnings.warn(
            f"h^{dp} is never reached by the integrand; "
            "the ambient dimension exceeds the class degree",
            stacklevel=2,
        )
    return value


# ---------------------------------------------------------------------------
# universal polynomials in intersection numbers

SYMBOL_NAMES = (
    "c2(V)",
    "c2(L)",
    "c1(V)^2",
    "c1(L)^2",
    "c1(V).c1(L)",
    "c1(X).c1(V)",
    "c1(X).c1(L)",
    "c1(X)^2",
)
# c2(X) is omitted: on the supported (rational toric) surfaces Noether's
# formula ties it to c1(X)^2 through chi(O) = 1, so including it only adds a
# permanently undetermined direction to every fit.


def _symbol_values(
    surface: ToricSurfaceModel, v: ChernData, lam: ChernData
) -> dict[str, int]:
    mk = tuple(-c for c in surface.canonical_degrees)  # c1(X) = -K
    inter = surface.intersect
    return {
        "c2(V)": v.c2,
        "c2(L)": lam.c2,
        "c1(V)^2": inter(v.c1, v.c1),
        "c1(L)^2": inter(lam.c1, lam.c1),
        "c1(V).c1(L)": inter(v.c1, lam.c1),
        "c1(X).c1(V)": inter(mk, v.c1),
        "c1(X).c1(L)": inter(mk, lam.c1),
        "c1(X)^2": inter(mk, mk),
    }


def _monomials(max_degree: int) -> list[tuple[str, ...]]:
    """Multisets of symbols of size <= max_degree, higher degree first."""
    return [
        mono
        for deg in range(max_degree, -1, -1)
        for mono in combinations_with_replacement(SYMBOL_NAMES, deg)
    ]


def _monomial_values(
    monomials: tuple[tuple[str, ...], ...], symbols: dict[str, int]
) -> list[int]:
    """Each monomial's value at the given symbol values: an integer row of
    the fraction-free Gauss-Jordan solve."""
    return [prod(symbols[name] for name in mono) for mono in monomials]


class UniversalPolynomial(Frozen):
    __slots__ = _fields = (
        "shape_id", "k", "rank_v", "rank_lam", "monomials", "coefficients",
        "undetermined",
    )

    def __init__(
        self,
        shape_id: str,
        k: int,
        rank_v: int,
        rank_lam: int,
        monomials: tuple[tuple[str, ...], ...],
        coefficients: tuple[Fraction, ...],
        undetermined: tuple[str, ...],
    ) -> None:
        set_field(self, "shape_id", shape_id)
        set_field(self, "k", k)
        set_field(self, "rank_v", rank_v)
        set_field(self, "rank_lam", rank_lam)
        set_field(self, "monomials", monomials)
        set_field(self, "coefficients", coefficients)
        set_field(self, "undetermined", undetermined)

    def evaluate(self, symbols: dict[str, int]) -> Fraction:
        den = lcm(*(c.denominator for c in self.coefficients))
        values = _monomial_values(self.monomials, symbols)
        return Fraction(sum(c.numerator * den // c.denominator * x
                            for c, x in zip(self.coefficients, values)), den)

    def nonzero_terms(self) -> list[tuple[str, Fraction]]:
        return [
            ("*".join(m) if m else "1", c)
            for m, c in zip(self.monomials, self.coefficients)
            if c != 0
        ]

    def to_json(self) -> dict:
        return {
            "shape_id": self.shape_id,
            "k": self.k,
            "ranks": {"V": self.rank_v, "Lambda": self.rank_lam},
            "monomials": ["*".join(m) if m else "1" for m in self.monomials],
            "coefficients": [str(c) for c in self.coefficients],
            "undetermined": list(self.undetermined),
        }


def _config_menu(
    surface: ToricSurfaceModel, rank_v: int, rank_lam: int, k: int,
    expected_dim: int,
) -> list[tuple[ChernData, ChernData]]:
    """Chern-data pairs (V, Lambda) on the fixed-expected-dimension family."""
    if surface.divisor_rank == 1:
        c1v_menu = [(t,) for t in (0, -1, 1, -2, 2, 3)]
        c1l_menu = [(t,) for t in (0, 1, -1, 2)]
    else:
        c1v_menu = [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 1), (2, 1)]
        c1l_menu = [(0, 0), (1, 0), (0, 1), (1, 1)]
    c2l_menu = (0, 1, 2)
    out = []
    for idx, c1v in enumerate(c1v_menu):
        # the expected dimension falls by one for each unit of c2(V)
        c2v = expected_dim_pairs(surface, ChernData(rank_v, c1v, 0), k) - expected_dim
        v = ChernData(rank_v, c1v, c2v)
        if rank_lam == 0:
            zero = (0,) * surface.divisor_rank
            out.append((v, ChernData(0, zero, 0)))
            continue
        c1l = c1l_menu[idx % len(c1l_menu)]
        c2l = c2l_menu[idx % len(c2l_menu)]
        out.append((v, ChernData(rank_lam, c1l, c2l)))
        alt = c1l_menu[(idx + 1) % len(c1l_menu)]
        out.append((v, ChernData(rank_lam, alt, c2l_menu[(idx + 1) % 3])))
    return out


def _solve_exact(
    rows: list[list[int]], rhs: list[Fraction]
) -> tuple[list[Fraction], list[int]]:
    """Fraction-free Gauss-Jordan solve; free columns get 0 and are reported.

    The right-hand side is scaled once to integers, and each updated row
    pv * row_i - f * row_r is divided by the gcd of its entries.  Scaling a
    row keeps its zero entries, so the pivots are those over the rationals.
    Raises ComputationError if the system is inconsistent.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    den = lcm(*(b.denominator for b in rhs))
    aug = [row + [b.numerator * den // b.denominator] for row, b in zip(rows, rhs)]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        sel = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        pivot_row, pv = aug[r], aug[r][col]
        for i in range(m):
            f = aug[i][col]
            if i != r and f != 0:
                row = [pv * x - f * y for x, y in zip(aug[i], pivot_row)]
                g = gcd(*row) or 1
                aug[i] = [x // g for x in row]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            raise ComputationError(
                "sampled integrals are inconsistent with the monomial basis; "
                "the universality degree bound is insufficient here"
            )
    solution = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        solution[col] = Fraction(aug[i][n], aug[i][col] * den)
    free = [c for c in range(n) if c not in pivots]
    return solution, free


def universal_poly(
    shape: str | ChernExpr = "count",
    k: int = 1,
    rank_v: int = 2,
    rank_lam: int = 0,
    expected_dim: int = 0,
    seed: int = DEFAULT_SEED,
    cache: ResultCache | None = None,
) -> UniversalPolynomial:
    """Interpolate the integral shape as a polynomial in intersection numbers.

    Ranks of V and Lambda and the expected dimension are fixed integers;
    sampled configurations run over P2, P1xP1 and Hirzebruch(1) with varying
    Chern data on the fixed-expected-dimension family, each integrated on
    the split model ``realize_split_model`` writes down for it (the integral
    reads a bundle only through its Chern data).  The exact linear system
    over monomials of degree <= k in the intersection symbols is solved by
    fraction-free Gauss-Jordan elimination on integers; directions the
    family cannot distinguish get coefficient zero and are reported, and at
    least five held-out configurations (always including a Hirzebruch one)
    are checked against the direct integral, failing hard on mismatch.
    """
    check_int(rank_v, "rank_v")
    check_int(rank_lam, "rank_lam")
    check_int(expected_dim, "expected_dim")
    if k < 0:
        raise UsageError("negative k")
    if k > 3:
        raise UsageError("universal_poly is budgeted for k <= 3")
    if rank_v < 1:
        raise UsageError("rank V >= 1 required")
    if rank_lam < 0:
        raise UsageError("rank Lambda >= 0 required")
    if isinstance(shape, str):
        if shape != "count":
            raise UsageError(f"unknown shape {shape!r}; use 'count' or a ChernExpr")
        p_expr = ChernExpr.constant(1)
        shape_id = "count"
    else:
        p_expr = shape
        shape_id = str(shape)

    surfaces = [make_surface("P2"), make_surface("P1xP1"), make_surface("Hirzebruch", 1)]
    configs: list[tuple[ToricSurfaceModel, ChernData, ChernData]] = []
    for surf in surfaces:
        for v, lam in _config_menu(surf, rank_v, rank_lam, k, expected_dim):
            configs.append((surf, v, lam))

    monomials = tuple(_monomials(k))
    n_heldout = max(5, len(configs) // 4)
    if len(configs) < n_heldout + 6:
        raise ComputationError("config menu too small to train and hold out")

    def data_point(surf, v, lam) -> tuple[dict[str, int], Fraction]:
        v_model = realize_split_model(surf, v)
        lam_model = (
            SplitBundle(surf) if lam.rank == 0 else realize_split_model(surf, lam)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            value = virtual_integral(
                surf, v_model, lam_model, k, p_expr,
                seed=seed, cache=cache,
            )
        return _symbol_values(surf, v, lam), value

    # hold out every fourth configuration; the tail guarantees a Hirzebruch one
    heldout_idx = set(range(3, len(configs), 4))
    while len(heldout_idx) < n_heldout:
        heldout_idx.add(len(configs) - 1 - len(heldout_idx))
    if not any(configs[i][0].family == "Hirzebruch" for i in heldout_idx):
        heldout_idx.add(len(configs) - 1)

    training = [
        data_point(*config)
        for i, config in enumerate(configs)
        if i not in heldout_idx
    ]
    solution, free = _solve_exact(
        [_monomial_values(monomials, syms) for syms, _ in training],
        [value for _, value in training],
    )
    undetermined = tuple(
        "*".join(monomials[c]) if monomials[c] else "1" for c in free
    )
    poly = UniversalPolynomial(
        shape_id, k, rank_v, rank_lam, monomials, tuple(solution), undetermined
    )

    # zero residual on training data (exact arithmetic, so exact equality)
    for syms, value in training:
        if poly.evaluate(syms) != value:
            raise ComputationError("training residual nonzero; solver bug")

    for i in sorted(heldout_idx):
        surf, v, lam = configs[i]
        syms, value = data_point(surf, v, lam)
        got = poly.evaluate(syms)
        if got != value:
            raise ComputationError(
                f"held-out mismatch on {surf.name}, V={v}, Lambda={lam}: "
                f"polynomial gives {got}, direct integral gives {value}"
            )
    return poly

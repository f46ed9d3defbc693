"""Independent oracles shared across test modules.

Everything here is deliberately naive and self-contained: series
convolution instead of partition enumeration, direct surface localization
instead of Hilbert-scheme machinery or closed-form Riemann-Roch, and a sum
over whole fixed-point tuples (reading only ``hilb``'s per-fixed-point
weights) instead of the factorized localization core.  The ambient oracle
keeps the (h, u) bigraded class of P x X^[k] at each fixed point instead of
integrating h out in closed form.  The split-model oracle walks every
non-decreasing degree tuple with the right sum, with no Whitney pruning.
The universal fit's oracle is Gauss-Jordan elimination over ``Fraction``s,
not over integers.  The oracle of theta_level at rank 0 is the plethystic
product formula for Hilb C^2, with no partitions at all.  Lehn's series
for the top Segre class of H^[k] is Fraction series arithmetic and a series
reversion over the surface's intersection form.  The rank-3 closed forms
of the paper's family are Lagrange inversions in Fractions of products
of powers of 1 + ct and (1 + sqrt(1 + 4t))/2, read off intersection
numbers alone.  The tests
compare the engine against these implementations, so they must not import
from the modules they check beyond plain data access.
"""

from fractions import Fraction
from itertools import product as iproduct
from math import comb, factorial, prod

from hilbloc.errors import ComputationError

from hilbloc.hilb import (
    enumerate_fixed_points,
    tangent_weights,
    taut_weights,
    theta_weight,
)
from hilbloc.tautological import AmbientClass

# Two primes large enough that no weight of a k <= 4 fixed point (integer
# coefficients far below 101) can specialize to zero.
BRUTE_POINT = (101, 103)


def euler_product_coefficients(chi_top: int, k_max: int) -> list[int]:
    """Coefficients of prod_{m >= 1} (1 - q^m)^(-chi_top), by convolution.

    Each factor contributes the negative-binomial series
    sum_j C(chi_top - 1 + j, j) q^(m j).
    """
    coeffs = [1] + [0] * k_max
    for m in range(1, k_max + 1):
        factor = [comb(chi_top - 1 + j, j) for j in range(k_max // m + 1)]
        out = [0] * (k_max + 1)
        for n, c in enumerate(coeffs):
            if c == 0:
                continue
            for j, f in enumerate(factor):
                if n + m * j > k_max:
                    break
                out[n + m * j] += c * f
        coeffs = out
    return coeffs


def elementary_symmetric(values, j: int):
    """e_j of a multiset, exact, by the triangular recurrence."""
    row = [1] + [0] * j
    for v in values:
        for n in range(j, 0, -1):
            row[n] = row[n] + row[n - 1] * v
    return row[j]


def c2_by_surface_localization(surface, bundle) -> int:
    """Integrate c2 of an honest split bundle over the surface directly.

    The second elementary symmetric function of the fixed-point weights,
    divided by the tangent weights, summed over the surface's fixed points;
    no Hilbert scheme involved.  Evaluated at two numeric points as a
    consistency check.
    """
    assert bundle.is_honest()
    results = []
    for z in ((7, 3), (5, 11)):
        total = Fraction(0)
        for p, (v1, v2) in enumerate(surface.points):
            ws = [l.weights[p].spec_int(*z) for l in bundle.plus]
            e2 = sum(
                ws[i] * ws[j]
                for i in range(len(ws))
                for j in range(i + 1, len(ws))
            )
            total += Fraction(e2, v1.spec_int(*z) * v2.spec_int(*z))
        assert total.denominator == 1
        results.append(int(total))
    assert results[0] == results[1]
    return results[0]


def _truncated_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] += x * y
    return out


def _chern_classes(plus, minus, order):
    """c_0..c_order of prod (1 + w t) over plus times prod 1/(1 + w t) over minus."""
    total = [Fraction(1)] + [Fraction(0)] * order
    for w in plus:
        total = _truncated_mul(total, [Fraction(1), Fraction(w)], order)
    for w in minus:
        inverse = [Fraction(-w) ** n for n in range(order + 1)]
        total = _truncated_mul(total, inverse, order)
    return total


def brute_chern_integral(surface, k, bundles, expr, z=BRUTE_POINT):
    """A Chern expression integrated over X^[k], one fixed-point tuple at a time.

    ``bundles`` maps ids to split bundles; ``expr`` is read only through its
    ``terms`` (coefficient and (id, index) factors).
    """
    total = Fraction(0)
    for fp in enumerate_fixed_points(surface, k):
        euler = prod(w.spec_int(*z) for w in tangent_weights(surface, fp))
        chern = {}
        for bid, bundle in bundles.items():
            plus, minus = taut_weights(surface, fp, bundle)
            chern[bid] = _chern_classes(
                [w.spec_int(*z) for w in plus], [w.spec_int(*z) for w in minus], 2 * k
            )
        for term in expr.terms:
            value = term.coefficient
            for bid, idx in term.factors:
                value *= chern[bid][idx]
            total += value / euler
    return total


def _todd_coefficients(order):
    """x / (1 - exp(-x)) by inverting sum_n (-x)^n / (n+1)!."""
    denom = [Fraction((-1) ** n, factorial(n + 1)) for n in range(order + 1)]
    inv = [Fraction(1)]
    for n in range(1, order + 1):
        inv.append(-sum(denom[j] * inv[n - j] for j in range(1, n + 1)))
    return inv


def todd_series(a, order):
    """(a*u) / (1 - exp(-a*u)) truncated at u^order."""
    return [t * Fraction(a) ** n for n, t in enumerate(_todd_coefficients(order))]


def brute_chi_surface(surface, bundle, z=BRUTE_POINT):
    """chi of a split bundle over the surface by localized Riemann-Roch.

    Each line contributes exp(-w u) todd(v1 u) todd(v2 u) / (v1 v2 u^2) at
    each fixed point (tangent weights v1, v2), with sign -1 for minus lines;
    the u^-2 and u^-1 coefficients must cancel in the sum, and the u^0
    coefficient is chi.
    """
    todd = _todd_coefficients(2)
    total = [Fraction(0)] * 3
    for p, tangents in enumerate(surface.points):
        tangents = [v.spec_int(*z) for v in tangents]
        for lines, sign in ((bundle.plus, 1), (bundle.minus, -1)):
            for line in lines:
                w = line.weights[p].spec_int(*z)
                series = [Fraction(-w) ** n / factorial(n) for n in range(3)]
                for v in tangents:
                    factor = [t * v**n for n, t in enumerate(todd)]
                    series = _truncated_mul(series, factor, 2)
                total = [a + sign * b / prod(tangents) for a, b in zip(total, series)]
    assert not any(total[:2]), total[:2]
    assert total[2].denominator == 1, total[2]
    return int(total[2])


def brute_chi_theta(surface, e, k, z=BRUTE_POINT):
    """chi of the determinant line bundle of e on X^[k], one tuple at a time.

    Sums exp(-theta u) * prod todd(v u) / prod v over the fixed points,
    asserts that the u-powers below 2k cancel, and returns the u^2k
    coefficient.
    """
    order = 2 * k
    todd = _todd_coefficients(order)
    total = [Fraction(0)] * (order + 1)
    for fp in enumerate_fixed_points(surface, k):
        theta = theta_weight(surface, fp, e).spec_int(*z)
        series = [Fraction(-theta) ** n / factorial(n) for n in range(order + 1)]
        tangents = [w.spec_int(*z) for w in tangent_weights(surface, fp)]
        for v in tangents:
            factor = [t * v**n for n, t in enumerate(todd)]
            series = _truncated_mul(series, factor, order)
        euler = prod(tangents)
        total = [a + b / euler for a, b in zip(total, series)]
    assert not any(total[:order]), total[:order]
    return total[order]


def _trinomials(cls, plus, minus, z):
    """cls times prod (1 + h + u w) over plus, divided by the same over minus."""
    for w in plus:
        cls = cls.mul_trinomial(w.spec_int(*z))
    for w in minus:
        cls = cls.div_trinomial(w.spec_int(*z))
    return cls


def brute_virtual_integral(surface, v, lam, k, expr, z=BRUTE_POINT):
    """The ambient integral on P x X^[k], one fixed point at a time.

    At each fixed point the transform's total Chern class is
    (1 + h)^(-chi(Lambda)) prod (1 + h + u w) over the Lambda^[k] weights;
    a factor c_i(IT) of ``expr`` takes its piece of total (h, u) degree i.
    The product, times the same trinomials over the V*^[k] weights, gives
    its h^Dp slice over the tangent weights.  Asserts that the u-powers
    below 2k cancel in the sum.  Returns the u^2k coefficient and whether
    any h^Dp slice was nonzero.
    """
    vdual = v.dual()
    dp = brute_chi_surface(surface, vdual, z) - 1
    chi_lam = brute_chi_surface(surface, lam, z)
    umax = 2 * k
    total = [Fraction(0)] * (umax + 1)
    reached = False
    for fp in enumerate_fixed_points(surface, k):
        cit = AmbientClass.one(dp, umax).mul_h_binomial(-chi_lam)
        cit = _trinomials(cit, *taut_weights(surface, fp, lam), z)
        pclass = AmbientClass.zero(dp, umax)
        for term in expr.terms:
            part = AmbientClass.one(dp, umax).scale(term.coefficient)
            for _, idx in term.factors:
                part = part * cit.component(idx)
            pclass = pclass + part
        pclass = _trinomials(pclass, *taut_weights(surface, fp, vdual), z)
        ulist = pclass.h_slice(dp)
        reached = reached or any(ulist)
        euler = prod(w.spec_int(*z) for w in tangent_weights(surface, fp))
        total = [a + b / euler for a, b in zip(total, ulist)]
    assert not any(total[:umax]), total[:umax]
    return total[umax], reached


def _nondecreasing_tuples(atoms, length):
    """All non-decreasing sequences of the given atoms, lexicographic."""
    if length == 0:
        yield ()
        return
    for i in range(len(atoms)):
        for rest in _nondecreasing_tuples(atoms[i:], length - 1):
            yield (atoms[i],) + rest


def _sum_tuples(atoms, length, want, bound):
    """Non-decreasing atom tuples with a prescribed component-wise sum."""
    if length == 0:
        if not any(want):
            yield ()
        return
    for i, a in enumerate(atoms):
        rem = tuple(w - x for w, x in zip(want, a))
        if any(abs(r) > (length - 1) * bound for r in rem):
            continue
        for rest in _sum_tuples(atoms[i:], length - 1, rem, bound):
            yield (a,) + rest


class NoSplitModel(Exception):
    """The box of ``brute_realize_split_model`` holds no model."""


def brute_realize_split_model(surface, target, box, max_minus):
    """The (plus, minus) degree tuples of the first split model by plain search.

    Fewest minus lines first, then smallest box, then lexicographically
    first non-decreasing tuples.  Every plus tuple with the right degree sum
    is tested against the Whitney c2 written out here.  Raises
    ``NoSplitModel`` when the box holds no model.  The engine writes its
    model down instead (``realize_split_model``); the tests check that both
    models give the same integrals.
    """
    inter = surface.intersect

    def whitney_c2(plus, minus):
        def e2(degs):
            return sum(
                inter(degs[i], degs[j])
                for i in range(len(degs))
                for j in range(i + 1, len(degs))
            )

        e1p = [sum(col) for col in zip(*plus)] or [0] * len(target.c1)
        e1m = [sum(col) for col in zip(*minus)] or [0] * len(target.c1)
        return e2(plus) - inter(e1p, e1m) + inter(e1m, e1m) - e2(minus)

    for m in range(max_minus + 1):
        for bound in range(box + 1):
            atoms = sorted(iproduct(range(-bound, bound + 1), repeat=len(target.c1)))
            for minus in _nondecreasing_tuples(atoms, m):
                want = tuple(
                    c + sum(d[i] for d in minus) for i, c in enumerate(target.c1)
                )
                for plus in _sum_tuples(atoms, target.rank + m, want, bound):
                    hug = max((abs(x) for t in plus + minus for x in t), default=0)
                    if hug == bound and whitney_c2(plus, minus) == target.c2:
                        return plus, minus
    raise NoSplitModel(
        f"no split model for rank={target.rank}, c1={target.c1}, c2={target.c2} "
        f"on {surface.name} within box {box} and up to {max_minus} minus lines"
    )


def fraction_gauss_jordan(rows, rhs):
    """Gauss-Jordan solve over Fractions: each pivot row is divided by its
    pivot, the first nonzero entry in column order.  Free columns get 0.
    Returns (solution, free columns); an inconsistent system raises
    ComputationError."""
    m, n = len(rows), len(rows[0]) if rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(n):
        sel = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        pv = aug[r][col]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    if any(aug[i][n] != 0 for i in range(r, m)):
        raise ComputationError("inconsistent system")
    solution = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        solution[col] = aug[i][n]
    return solution, [c for c in range(n) if c not in pivots]


def rank_0_theta_series(s1, s2, n_max, order):
    """[q^0..q^n_max] of sum_n q^n H_n(u), each truncated at u^order.

    H_n is the sum over the partitions of n of the product of the Todd
    series of their tangent weights at the chart (s1, s2), over the product
    of those weights: chi of O on Hilb^n C^2 in Todd form.  The plethystic
    formula for the Hilbert scheme of the plane gives it with no partitions:

        sum_n q^n H_n(u) = exp(sum_j q^j u^(2j-2) td(j s1 u) td(j s2 u) / (j^3 s1 s2)).
    """
    zero = [Fraction(0)] * (order + 1)
    log = [zero]  # the exponent, one series in u per power of q
    for j in range(1, n_max + 1):
        shift, term = 2 * j - 2, list(zero)
        if shift <= order:
            rest = order - shift
            td = _truncated_mul(todd_series(j * s1, rest), todd_series(j * s2, rest), rest)
            for i, c in enumerate(td):
                term[i + shift] = c / (j**3 * s1 * s2)
        log.append(term)
    # E = exp(log) over q: n E_n = sum_j j log_j E_(n-j)
    out = [[Fraction(1)] + zero[1:]]
    for n in range(1, n_max + 1):
        acc = list(zero)
        for j in range(1, n + 1):
            term = _truncated_mul(log[j], out[n - j], order)
            acc = [a + j * t for a, t in zip(acc, term)]
        out.append([a / n for a in acc])
    return out


def _series_power(p, e, order):
    """p^e truncated at order, for a series p with p[0] = 1 and any integer
    (or rational) e, by the recurrence n f_n = sum_j ((e + 1) j - n) p_j f_(n-j)."""
    p = list(p[: order + 1]) + [0] * (order + 1 - len(p))
    f = [Fraction(1)]
    for n in range(1, order + 1):
        f.append(sum(((e + 1) * j - n) * p[j] * f[n - j] for j in range(1, n + 1)) / n)
    return f


def lehn_segre_series(surface, degrees, k_max):
    """[z^0..z^k_max] of sum_k z^k int_{X^[k]} s_2k(H^[k]), H = O(degrees).

    Lehn's formula (math/9803091, proved by Marian-Oprea-Pandharipande and
    by Voisin): the series is (1-w)^a (1-2w)^b / (1-6w+6w^2)^c with
    z = w(1-w)(1-2w)^4 / (1-6w+6w^2)^3, a = H.K - 2K^2, b = (H-K)^2 +
    3 chi(O), c = H.(H-K)/2 + chi(O), and chi(O) = 1 on a rational surface.
    It reads only the intersection form; w(z) comes from the reversion
    w = z (1-6w+6w^2)^3 / ((1-w)(1-2w)^4), one order per iteration.
    """
    canonical = surface.canonical_degrees
    h_less_k = [h - x for h, x in zip(degrees, canonical)]
    a = surface.intersect(degrees, canonical) - 2 * surface.intersect(canonical, canonical)
    b = surface.intersect(h_less_k, h_less_k) + 3
    c = Fraction(surface.intersect(degrees, h_less_k), 2) + 1

    def factors(w):
        """(1 - w, 1 - 2w, 1 - 6w + 6w^2) as series in z, for w(0) = 0."""
        square = _truncated_mul(w, w, k_max)
        return (
            [1] + [-x for x in w[1:]],
            [1] + [-2 * x for x in w[1:]],
            [1] + [6 * (y - x) for x, y in zip(w[1:], square[1:])],
        )

    def product_of_powers(series, exponents):
        out = [Fraction(1)] + [Fraction(0)] * k_max
        for s, e in zip(series, exponents):
            out = _truncated_mul(out, _series_power(s, e, k_max), k_max)
        return out

    w = [Fraction(0)] * (k_max + 1)
    for _ in range(k_max):
        w = [Fraction(0)] + product_of_powers(factors(w), (-1, -4, 3))[:k_max]
    return product_of_powers(factors(w), (a, b, -c))


# ---------------------------------------------------------------------------
# rank-3 closed forms: numbers in, rows out, no partitions and no hilbloc


def _lagrange_rows(lines, h_exponent, phi, k_max):
    """[q^0..q^k_max] of H(t(q)) for H = prod (1 + c t)^alpha * h^h_exponent.

    ``lines`` holds the pairs (c, alpha), h = (1 + sqrt(1 + 4t))/2, and
    t(q) inverts q = t (1 + c' t)^e for ``phi`` = (c', e).  By Lagrange
    inversion [q^n] H(t(q)) = (1/n) [t^(n-1)] H'(t) (1 + c' t)^(-n e).
    """
    root = _series_power([1, 4], Fraction(1, 2), k_max)
    h = [Fraction(1)] + [x / 2 for x in root[1:]]
    series = _series_power(h, Fraction(h_exponent), k_max)
    for c, alpha in lines:
        series = _truncated_mul(series, _series_power([1, c], Fraction(alpha), k_max), k_max)
    derivative = [j * x for j, x in enumerate(series)][1:]
    c, e = phi
    rows = [series[0]]
    for n in range(1, k_max + 1):
        psi = _series_power([1, c], -n * e, n - 1)
        rows.append(sum(d * p for d, p in zip(derivative, reversed(psi))) / n)
    return rows


def closed_quot_series(k2, c2_surface, c1_c1, c1_k, c2, k_max):
    """[q^0..q^k_max] of sum_k q^k int_{X^[k]} c_2k(V*^[k]) for V* of rank 3.

    The surface enters through K^2 and c2(X), V* through c1.c1, c1.K and
    c2 = c2(V*).  The series is (1+t)^a (1+2t)^b (1+4t)^c h^d with
    q = t(1+2t), h = (1 + sqrt(1+4t))/2 and
    a = 2K^2/3 - c2(X)/3 - c1^2 + 3 c2, b = (K^2 + c2(X))/4 + c1^2/2 -
    c1.K/2 - c2, c = 11K^2/24 - c2(X)/24, d = -3K^2 + c1.K.  It was found
    by fitting chart series of the Ellingsrud-Goettsche-Lehn factorization
    at n <= 16, and holds wherever the tests compare it.
    """
    a = Fraction(2 * k2 - c2_surface, 3) - c1_c1 + 3 * c2
    b = Fraction(k2 + c2_surface, 4) + Fraction(c1_c1 - c1_k, 2) - c2
    c = Fraction(11 * k2 - c2_surface, 24)
    return _lagrange_rows(((1, a), (2, b), (4, c)), c1_k - 3 * k2, (2, 1), k_max)


def closed_chi_series(chi_l, chi_o, k2, l_k, k_max):
    """[q^0..q^k_max] of sum_k q^k chi(X^[k], theta_e) for e of rank 2.

    The surface enters through chi(O) and K^2, e through chi(L) and L.K for
    L = det e.  The series is (1+t)^chi(L) ((1+t)^2 (1+4t)^(-1/2))^chi(O)
    ((1+t) (1+4t)^(1/2) h^(-3))^(K^2) ((1+t)^(-1) h)^(L.K) with
    q = t(1+t)^3 and h as in ``closed_quot_series``; its K-trivial part is
    Marian-Oprea-Pandharipande's rank-2 Verlinde series.
    """
    return _lagrange_rows(
        ((1, chi_l + 2 * chi_o + k2 - l_k), (4, Fraction(k2 - chi_o, 2))),
        l_k - 3 * k2, (1, 3), k_max,
    )

"""Brute-force reference paths for cross-checking the closed-form engine.

Everything here is deliberately naive: Cramer's rule on the full moment
matrix, combinatorial sums over index tuples, determinants by exact
elimination. Slow is fine; these exist so the fast path in
:mod:`diffgen.explicit_form` can be checked against something that is
obviously correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations

from . import scalars
from .explicit_form import ApproxParams, CoefficientVector
from .series import poly_power_int

__all__ = [
    "OpCount",
    "BudgetError",
    "vandermonde_solve",
    "numerators_direct",
    "consistency_moments",
    "symbol_series",
]

DEFAULT_BUDGET = 10**8


@dataclass
class OpCount:
    """Tally of executed scalar additions and multiplications."""

    additions: int = 0
    multiplications: int = 0


class BudgetError(ValueError):
    """Direct enumeration would exceed the configured operation budget."""


def esp_direct(xs, k: int):
    """Elementary symmetric polynomial S(xs, k) by direct enumeration."""
    xs = tuple(xs)
    scalars._integer("k", k, 0, len(xs))
    total = 0
    for combo in combinations(xs, k):
        prod = 1
        for v in combo:
            prod = prod * v
        total = total + prod
    return total if k > 0 else 1


def det_exact(matrix):
    """Determinant by Gaussian elimination; exact for exact scalar types."""
    m = [list(row) for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    sign = 1
    det = 1
    for col in range(n):
        pivot_row = None
        for row in range(col, n):
            if m[row][col] != 0:
                pivot_row = row
                break
        if pivot_row is None:
            return 0 * det
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        pivot = m[col][col]
        det = det * pivot
        for row in range(col + 1, n):
            factor = m[row][col] / pivot
            if factor == 0:
                continue
            for j in range(col, n):
                m[row][j] = m[row][j] - factor * m[col][j]
    return det * sign


def vandermonde_matrix(params: ApproxParams):
    """Rows of the moment system: row k holds (lam - j)^k for j = 0..N-1."""
    n = params.n_coeffs
    with params.field.context():
        nodes = [params.lam - j for j in range(n)]
        rows = [[params.field.one for _ in nodes]]
        for _ in range(1, n):
            rows.append([prev * node for prev, node in zip(rows[-1], nodes)])
    return rows


def vandermonde_solve(params: ApproxParams):
    """Solve the moment system by Cramer's rule with exact determinants."""
    n = params.n_coeffs
    with params.field.context():
        rows = vandermonde_matrix(params)
        rhs = [params.field.zero] * n
        rhs[params.d] = params.field.of(math.factorial(params.d))
        den = det_exact(rows)
        beta = []
        for j in range(n):
            modified = [list(row) for row in rows]
            for k in range(n):
                modified[k][j] = rhs[k]
            beta.append(det_exact(modified) / den)
    return tuple(beta)


def numerators_direct(params: ApproxParams, budget: int = DEFAULT_BUDGET):
    """Numerators by full combinatorial enumeration, with its cost.

    Each N_j is ``esp_direct`` of the nodes {lam - k : k != j} at degree p-1,
    converted into the field: M = C(N-1, p-1) products each, so M*N additions
    and M*(p-1)*N multiplications. Refuses (BudgetError) when the M*N
    additions exceed ``budget``. Returns (numerators, OpCount).
    """
    n, field = params.n_coeffs, params.field
    m_count = math.comb(n - 1, params.p - 1)
    if m_count * n > budget:
        raise BudgetError(
            f"direct enumeration needs {m_count * n} additions, over the budget of {budget}"
        )
    with field.context():
        nodes = [params.lam - k for k in range(n)]
        nums = tuple(field.of(esp_direct(nodes[:j] + nodes[j + 1 :], params.p - 1))
                     for j in range(n))
    return nums, OpCount(m_count * n, m_count * (params.p - 1) * n)


def consistency_moments(cv: CoefficientVector, k_max: int):
    """Moments b_k = (1/k!) sum_j (lam-j)^k beta_j for k = 0..k_max.

    b_k = delta_{d,k} holds for k < N; the first departures are the error
    coefficients (up to the alpha/d factor).
    """
    params = cv.params
    n = params.n_coeffs
    scalars._integer("k_max", k_max, n - 1)
    out = []
    with params.field.context():
        nodes = [params.lam - j for j in range(n)]
        powers = [params.field.one] * n
        for k in range(k_max + 1):
            if k > 0:
                powers = [pw * node for pw, node in zip(powers, nodes)]
            moment = params.field.zero
            for pw, b in zip(powers, cv.beta):
                moment += pw * b
            out.append(moment / math.factorial(k))
    return tuple(out)


def symbol_series(cv: CoefficientVector, count: int | None = None, digits: int = 40):
    """Power-series coefficients g_0..g_count of the scaled symbol of the
    formula: the composition (sum_k b_k z^{k-d})^{alpha/d} with b_k the
    consistency moments, evaluated by truncated formal series in decimal
    arithmetic.

    Order-p consistency shows up as g_0 = 1, g_1..g_{p-1} = 0 (to roundoff)
    and g_p equal to the leading error coefficient.
    """
    params = cv.params
    count = params.p if count is None else count
    scalars._integer("count", count, 0)
    fb = scalars.bigdecimal(digits)
    with fb.context():
        # consistency_moments reads only the params and the betas
        decimal_cv = CoefficientVector(replace(params, lam=fb.of(params.lam), field=fb),
                                       tuple(fb.of(b) for b in cv.beta))
        b = consistency_moments(decimal_cv, max(count + params.d, params.n_coeffs - 1))
        # negative-degree moments b_0..b_{d-1} vanish by consistency; the
        # residue is roundoff from the decimal conversion, safe to drop
        s0 = b[params.d]
        t_series = [fb.zero] + [bk / s0 for bk in b[params.d + 1 : count + params.d + 1]]
        gamma = fb.of(params.alpha) / params.d
        series = [fb.one] + [fb.zero] * count
        binom = fb.one
        for order in range(1, count + 1):
            binom *= (gamma - (order - 1)) / order
            # t^order to degree count needs t to degree count - order + 1 (t_0 = 0)
            t_power = poly_power_int(t_series[: count - order + 2], order)
            for i, v in enumerate(t_power[: count + 1]):
                series[i] += binom * v
        scale = fb.power(s0, gamma)
        return [scale * g for g in series]

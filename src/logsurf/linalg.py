"""Exact linear algebra helpers.

Determinants use fraction-free (Bareiss) elimination over the integers.
Linear solves clear denominators first, eliminate fraction-free, then
back-substitute over the rationals, so no floating point ever enters.
``factor_definite`` is the one factorization the model layer uses: a single
fraction-free pass over ``[M | I]`` whose pivots are the leading minors of
M (Bareiss 1968), so it tests positive definiteness and, when M passes,
yields the exact inverse as an integer adjugate over the determinant.
``solve_int`` and ``leading_minors`` stay as independent oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional


def bareiss_det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix, computed without fractions."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def leading_minors(m: list[list[int]]) -> list[int]:
    """Leading principal minors det(m[:k][:k]) for k = 1..n."""
    return [bareiss_det([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]


def solve_int(m: list[list[int]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve m x = rhs for an invertible integer matrix m, exactly.

    Raises ValueError when m is singular.
    """
    n = len(m)
    if n == 0:
        return []
    scale = lcm(*(f.denominator for f in rhs)) if rhs else 1
    a: list[list[int]] = [
        [*(int(x) for x in m[i]), int(rhs[i] * scale)] for i in range(n)
    ]
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            # row swaps permute equations only; the variable order is unchanged
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    break
            else:
                raise ValueError("singular matrix")
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    if a[n - 1][n - 1] == 0:
        raise ValueError("singular matrix")
    x: list[Fraction] = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = Fraction(a[i][n], 1)
        for j in range(i + 1, n):
            s -= a[i][j] * x[j]
        x[i] = s / a[i][i]
    return [xi / scale for xi in x]


def factor_definite(m: list[list[int]]) -> Optional[tuple[int, list[list[int]]]]:
    """(d, adj) with d = det(m) and m^-1 = adj / d for a positive definite
    symmetric integer matrix m; None when m is not positive definite.

    One Bareiss pass over [m | I] without row swaps: the k-th pivot is the
    k-th leading minor, so the pass stops at the first pivot <= 0.  The
    back-substitution works on d * x, an integer by Cramer's rule, so each
    division in it is exact.
    """
    n = len(m)
    a = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        p = a[k][k]
        if p <= 0:
            return None
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, 2 * n):
                row_i[j] = (row_i[j] * p - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = p
    d = prev
    x = [[0] * n for _ in range(n)]  # x[i][c] = d * (m^-1)[i][c]
    for i in range(n - 1, -1, -1):
        row = a[i]
        for c in range(n):
            s = d * row[n + c] - sum(row[j] * x[j][c] for j in range(i + 1, n))
            x[i][c] = s // row[i]
    return d, x

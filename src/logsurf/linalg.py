"""Exact linear algebra helpers.

Determinants use fraction-free (Bareiss) elimination over the integers.
The model layer factors a contracted component with one of two kernels,
and each tests positive definiteness on the way.  ``factor_tree`` serves a
component whose curves form a tree: leaf-first elimination has no fill-in
(Parter 1961), so factor and solve cost O(k) for k curves.
``factor_definite`` serves a component with a cycle, and is the tests'
reference: a single fraction-free LU pass over M, without row swaps, whose
pivots are the leading minors of M (Bareiss 1968), O(k^3).  ``solve_tree``
and ``solve_factored`` then solve one integer right-hand side b at a time
from their factor and return the same integer vector d * x, d = det(M):
d * x = adj(M) b, whatever the elimination order, so it is an integer by
Cramer's rule.  No inverse or adjugate is ever built, and no ``Fraction``
either.  The model layer solves in one place, ``graph._solve_int``; its
one rational right-hand side (a component's coefficients) is scaled to
integers first, and that answer is kept over d * scale.  ``solve_int``,
``leading_minors`` and ``bareiss_det`` stay as independent oracles;
``solve_int`` clears denominators, eliminates fraction-free and
back-substitutes over the rationals, so no floating point ever enters.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence


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
    """(d, lu) with d = det(m) for a positive definite symmetric integer
    matrix m; None when m is not positive definite.

    One Bareiss pass over m without row swaps: the k-th pivot is the k-th
    leading minor, so the pass stops at the first pivot <= 0.  ``lu`` holds
    the eliminated rows on and above the diagonal and, below it, the
    multiplier each step used (the entry it would have zeroed), which is
    all ``solve_factored`` needs to replay the pass on a right-hand side.
    """
    n = len(m)
    a = [row[:] for row in m]
    prev = 1
    for k in range(n):
        row_k = a[k]
        p = row_k[k]
        if p <= 0:
            return None
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * p - aik * row_k[j]) // prev
        prev = p
    return prev, a


def solve_factored(d: int, lu: list[list[int]], b: Sequence[int]) -> list[int]:
    """d * x with m x = b, for (d, lu) = factor_definite(m) and an integer b.

    The Bareiss steps are replayed on b; each division is exact, since every
    entry is then a minor of [m | b].  The back-substitution works on d * x,
    an integer vector by Cramer's rule, so each division in it is exact too.
    The answer is x = (d * x) / d; nothing here divides by d.
    """
    n = len(lu)
    b = list(b)
    prev = 1
    for k in range(n - 1):
        p, bk = lu[k][k], b[k]
        for i in range(k + 1, n):
            b[i] = (b[i] * p - lu[i][k] * bk) // prev
        prev = p
    x = [0] * n  # x[i] = d * (m^-1 b)[i]
    for i in range(n - 1, -1, -1):
        row = lu[i]
        s = d * b[i] - sum(row[j] * x[j] for j in range(i + 1, n))
        x[i] = s // row[i]
    return x


# the plan of a tree by position: the walk less its root, up, D, m R and m P
TreePlan = tuple[list[int], list[int], list[int], list[int], list[int]]


def factor_tree(walk: list[int], up: list[int], w: list[int],
                m: list[int]) -> Optional[tuple[int, TreePlan]]:
    """(d, plan) with d = det(M) for a positive definite M on a tree; None
    when M is not positive definite.  M has the diagonal ``w`` and -m[c]
    between c and its parent up[c]; ``walk`` lists the positions parents
    first, from the root.

    Leaf-first elimination has no fill-in (Parter 1961).  Children first,
    D(v) = det(M) on v's subtree and P(v) = the product of D over v's
    children: D(v) = w_v P(v) - sum_c m_c^2 P(c) P(v)/D(c), with no
    division, one child c at a time: D(v) <- D(v) D(c) - m_c^2 P(c) R(c),
    R(c) the product of D over the children of v taken before c.  In that
    order every leading minor is a product of such D, so M is definite iff
    each D(v) > 0; d = D(root).
    """
    rest = walk[1:]
    d, p = list(w), [1] * len(w)
    mr, mp = [0] * len(w), [0] * len(w)
    for c in reversed(rest):
        dc = d[c]
        if dc <= 0:
            return None
        v, mc = up[c], m[c]
        mr[c], mp[c] = mc * p[v], mc * p[c]
        d[v] = d[v] * dc - mr[c] * mp[c]
        p[v] *= dc
    if d[walk[0]] <= 0:
        return None
    return d[walk[0]], (rest, up, d, mr, mp)


def solve_tree(d: int, plan: TreePlan, b: Sequence[int]) -> list[int]:
    """d * x with M x = b, for (d, plan) = factor_tree(...) and an integer b
    by position: the integer vector ``solve_factored`` gives for M.

    Leaf-first, B(v) = b_v P(v) + sum_c m_c B(c) P(v)/D(c), accumulated as
    D(v) is; root-first, d x_root = B(root) and d x_c = (d B(c) + m_c P(c)
    d x_v) / D(c), each division exact, since d x_c is an integer by
    Cramer's rule.
    """
    rest, up, dv, mr, mp = plan
    x = list(b)
    for c in reversed(rest):
        v = up[c]
        x[v] = x[v] * dv[c] + mr[c] * x[c]
    for c in rest:
        x[c] = (d * x[c] + mp[c] * x[up[c]]) // dv[c]
    return x

import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from logsurf.linalg import (
    bareiss_det, factor_definite, factor_tree, leading_minors, solve_factored, solve_int, solve_tree,
)


def _over(x, den):
    """The integer vector x divided by den, as Fractions."""
    return [Fraction(v, den) for v in x]


def naive_det(m):
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * naive_det(minor)
    return total


def test_bareiss_matches_cofactor_expansion():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(0, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert bareiss_det(m) == naive_det(m)


def test_solve_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 6)
        while True:
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if bareiss_det(m) != 0:
                break
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        rhs = [sum(m[i][j] * x[j] for j in range(n)) for i in range(n)]
        assert solve_int(m, [Fraction(v) for v in rhs]) == x


def test_solve_singular_raises():
    with pytest.raises(ValueError):
        solve_int([[1, 1], [1, 1]], [Fraction(1), Fraction(0)])


def test_leading_minors():
    m = [[2, -1], [-1, 2]]
    assert leading_minors(m) == [2, 3]


def test_factor_definite_is_the_minors_test_and_the_inverse():
    # symmetric integer matrices, about a third of them positive definite;
    # the others have a zero or negative leading minor somewhere
    rng = random.Random(5)
    rhs_rng = random.Random(6)  # its own stream, so the matrices stay the same
    seen = {"definite": 0, "zero minor": 0, "negative minor": 0}
    for _ in range(600):
        n = rng.randint(0, 6)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        m = [[a[i][j] + a[j][i] + (rng.randint(0, 9) if i == j else 0) for j in range(n)]
             for i in range(n)]
        minors = leading_minors(m)
        f = factor_definite(m)
        assert (f is None) == any(x <= 0 for x in minors)
        if f is None:
            seen["zero minor" if 0 in minors else "negative minor"] += 1
            continue
        seen["definite"] += 1
        d, lu = f
        assert d == bareiss_det(m)
        # the pivots on the diagonal are the leading minors
        assert [lu[k][k] for k in range(n)] == minors
        for c in range(n):
            unit = [int(i == c) for i in range(n)]
            assert _over(solve_factored(d, lu, unit), d) == solve_int(m, [Fraction(u) for u in unit])
        rhs = [Fraction(rhs_rng.randint(-9, 9), rhs_rng.randint(1, 12)) for _ in range(n)]
        scale = lcm(*(c.denominator for c in rhs))
        b = [int(c * scale) for c in rhs]
        assert _over(solve_factored(d, lu, b), d * scale) == solve_int(m, rhs)
    assert min(seen.values()) >= 30, seen


def test_factor_definite_small_cases():
    assert factor_definite([]) == (1, [])
    assert solve_factored(1, [], []) == []
    d, lu = factor_definite([[2, -1], [-1, 2]])
    assert (d, lu) == (3, [[2, -1], [-1, 3]])  # the multiplier -1 stays below the pivot
    assert _over(solve_factored(d, lu, [1, 0]), d) == [Fraction(2, 3), Fraction(1, 3)]
    # [1/2, -1/3] scaled by 6
    assert _over(solve_factored(d, lu, [3, -2]), d * 6) == [Fraction(2, 9), Fraction(-1, 18)]
    assert factor_definite([[0, 1], [1, 2]]) is None  # zero first pivot, no row swap
    assert factor_definite([[1, 2], [2, 1]]) is None  # negative second minor


def _definite(rng, n):
    """A seeded positive definite symmetric integer matrix of size n: each
    diagonal entry exceeds the rest of its row in absolute value, by 1-3."""
    a = [[rng.randint(-3, 3) if i < j else 0 for j in range(n)] for i in range(n)]
    m = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
    for i in range(n):
        off = sum(abs(v) for v in m[i])
        m[i][i] = off + rng.randint(1, 3)
    return m


def test_solve_factored_over_d_is_solve_int():
    # integer right-hand sides, many of them with zero entries: a zero
    # leading entry, zeros in the middle, all zero but the last, all zero
    rng = random.Random(17)
    shapes = {"zero lead": 0, "zero inside": 0, "last only": 0, "zero": 0}
    for _ in range(300):
        n = rng.randint(1, 7)
        m = _definite(rng, n)
        d, lu = factor_definite(m)
        kind = rng.choice(("dense", "zero lead", "zero inside", "last only", "zero"))
        b = [rng.randint(-9, 9) or 1 for _ in range(n)]
        if kind == "zero lead":
            k = rng.randint(1, max(1, n - 1))
            b[:k] = [0] * k
        elif kind == "zero inside":
            b[rng.randrange(n)] = 0
        elif kind == "last only":
            b = [0] * (n - 1) + [rng.choice((-2, -1, 1, 3))]
        elif kind == "zero":
            b = [0] * n
        if kind in shapes:
            shapes[kind] += 1
        assert d == bareiss_det(m) > 0
        x = solve_factored(d, lu, b)
        assert all(type(v) is int for v in x)
        assert _over(x, d) == solve_int(m, [Fraction(v) for v in b])
        # d x is m^-1 b times d, so m (d x) = d b
        assert [sum(row[j] * x[j] for j in range(n)) for row in m] == [d * v for v in b]
    assert min(shapes.values()) >= 30, shapes


def test_solve_factored_leaves_b_alone_and_solves_the_empty_matrix():
    assert factor_definite([]) == (1, [])
    assert solve_factored(1, [], []) == []
    d, lu = factor_definite([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    b = [0, 0, 1]
    assert solve_factored(d, lu, b) == [1, 2, 3]  # d = 4: x = (1/4, 1/2, 3/4)
    assert b == [0, 0, 1]
    assert solve_factored(d, lu, (0, 1, 0)) == [2, 4, 2]


def _tree(rng, k, shape):
    """A seeded tree of k curves as (walk, up, w, m, -Q) by position: a
    chain, a star, a fork of three arms or a random tree, its curves put at
    random positions, so the walk (parents first, from the root) is not in
    position order.  Weights 1-6 and multiplicities 1-3, each within a range
    drawn per tree, so that many trees are not definite."""
    if shape == "chain":
        parent = [i - 1 for i in range(k)]
    elif shape == "star":
        parent = [-1] + [0] * (k - 1)
    elif shape == "fork":
        parent = [-1] + [max(0, i - 3) for i in range(1, k)]
    else:
        parent = [-1] + [rng.randrange(i) for i in range(1, k)]
    at = list(range(k))
    rng.shuffle(at)
    low, most = rng.randint(1, 5), rng.choice((1, 1, 2, 3))
    up, w, m = [-1] * k, [0] * k, [0] * k
    for i in range(k):
        w[at[i]] = rng.randint(low, 6)
        if i:
            up[at[i]], m[at[i]] = at[parent[i]], rng.randint(1, most)
    walk = [at[0]]
    for v in walk:
        walk.extend(c for c in range(k) if up[c] == v)
    neg_q = [[w[i] if i == j else -m[i] if up[i] == j else -m[j] if up[j] == i else 0
              for j in range(k)] for i in range(k)]
    return walk, up, w, m, neg_q


def test_the_tree_kernel_equals_the_dense_pass():
    rng = random.Random(23)
    seen = Counter()
    for i in range(500):
        shape = ("chain", "star", "fork", "random")[i % 4]
        k = rng.randint(1, 40)
        walk, up, w, m, neg_q = _tree(rng, k, shape)
        f, dense = factor_tree(walk, up, w, m), factor_definite(neg_q)
        assert (f is None) == (dense is None), (shape, w, up, m)
        if f is None:
            seen["not definite"] += 1
            continue
        seen["definite"] += 1
        seen["definite, 20 curves or more"] += k >= 20
        seen["definite, a double contact"] += max(m) >= 2
        d, plan = f
        assert d == dense[0] == bareiss_det(neg_q)
        hot = rng.randrange(k)
        for b in ([0] * k, [int(j == hot) for j in range(k)],
                  [rng.randint(-9, 9) for _ in range(k)]):
            assert solve_tree(d, plan, b) == solve_factored(*dense, b)
    assert min(seen.values()) >= 40, seen

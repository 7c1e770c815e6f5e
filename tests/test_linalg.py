import random
from fractions import Fraction

import pytest

from logsurf.linalg import bareiss_det, factor_definite, leading_minors, solve_factored, solve_int


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
            unit = [Fraction(int(i == c)) for i in range(n)]
            assert solve_factored(d, lu, unit) == solve_int(m, unit)
        rhs = [Fraction(rhs_rng.randint(-9, 9), rhs_rng.randint(1, 12)) for _ in range(n)]
        assert solve_factored(d, lu, rhs) == solve_int(m, rhs)
    assert min(seen.values()) >= 30, seen


def test_factor_definite_small_cases():
    assert factor_definite([]) == (1, [])
    assert solve_factored(1, [], []) == []
    d, lu = factor_definite([[2, -1], [-1, 2]])
    assert (d, lu) == (3, [[2, -1], [-1, 3]])  # the multiplier -1 stays below the pivot
    assert solve_factored(d, lu, [Fraction(1), Fraction(0)]) == [Fraction(2, 3), Fraction(1, 3)]
    assert solve_factored(d, lu, [Fraction(1, 2), Fraction(-1, 3)]) == [Fraction(2, 9), Fraction(-1, 18)]
    assert factor_definite([[0, 1], [1, 2]]) is None  # zero first pivot, no row swap
    assert factor_definite([[1, 2], [2, 1]]) is None  # negative second minor

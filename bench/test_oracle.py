"""The benchmark's oracle on values known by hand.

Run with ``python -m pytest bench/test_oracle.py``.
"""

from fractions import Fraction as F

import pytest

from oracle import Surface, det, is_positive_definite, solve, solve_positive_definite


def chain(*weights, **kw):
    ids = [f"v{i}" for i in range(len(weights))]
    mult = {frozenset((ids[i], ids[i + 1])): 1 for i in range(len(ids) - 1)}
    return Surface(dict(zip(ids, weights)), mult=mult, **kw)


def dynkin_tree(twigs):
    """A star of (-2)-curves: a centre with chains of the given lengths."""
    weight, mult = {"c": 2}, {}
    for t, length in enumerate(twigs):
        prev = "c"
        for j in range(length):
            vid = f"t{t}_{j}"
            weight[vid] = 2
            mult[frozenset((prev, vid))] = 1
            prev = vid
    return Surface(weight, mult=mult)


@pytest.mark.parametrize("n", range(1, 9))
def test_discriminant_a_n(n):
    s = chain(*[2] * n)
    assert s.discriminant(s.weight) == n + 1


def test_discriminant_d4_and_e8():
    d4 = dynkin_tree([1, 1, 1])
    e8 = dynkin_tree([1, 2, 4])
    assert d4.discriminant(d4.weight) == 4
    assert e8.discriminant(e8.weight) == 1
    assert e8.negative_definite(e8.weight)


def test_affine_d4_is_not_negative_definite():
    d4_tilde = dynkin_tree([1, 1, 1, 1])
    assert d4_tilde.discriminant(d4_tilde.weight) == 0
    assert not d4_tilde.negative_definite(d4_tilde.weight)


def test_readme_chain_3_2():
    s = chain(3, 2, contracted=frozenset({"v0", "v1"}))
    assert s.coefficients() == {"v0": F(2, 5), "v1": F(1, 5)}


def test_solve_det_and_definiteness():
    m = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    assert det(m) == 4
    (x,) = solve(m, [F(1), F(0), F(0)])
    assert x == [F(3, 4), F(1, 2), F(1, 4)]
    assert is_positive_definite(m)
    assert not is_positive_definite([[1, 2], [2, 1]])
    with pytest.raises(ValueError):
        solve([[1, 2], [2, 4]], [F(1), F(1)])


def test_minus_one_curve_between_boundary_curves():
    # a (-1)-curve C meeting two reduced (-2)-curves A, B of the boundary:
    # C.(K+D) = -1 + 2 = 1, while A.(K+D) = 0 + A^2 = -2
    s = Surface({"a": 2, "c": 1, "b": 2},
                boundary={"a": F(1), "b": F(1)},
                mult={frozenset("ac"): 1, frozenset("cb"): 1})
    assert s.verdicts(["c", "a"]) == {"c": (F(-1), F(1)), "a": (F(-2), F(-2))}
    assert s.log_exceptional("first") == ["a", "b"]
    # once A is contracted it leaves the boundary: cf(A) = K.A / 2 = 0,
    # C^2 = -1 + 1/2 and C.(K+D) = -1 + B.C = 0
    t = s.with_contracted({"a"})
    assert t.coefficients() == {"a": F(0)}
    assert t.verdicts(["c"]) == {"c": (F(-1, 2), F(0))}


def test_positive_definite_solve_matches_dense_solve():
    m = [[3, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, 0], [-1, 0, 0, 4]]
    cols = ([F(1), F(0), F(2), F(-1)], [F(1, 3), F(1), F(0), F(0)])
    assert solve_positive_definite(m, *cols) == solve(m, *cols)
    with pytest.raises(ValueError):
        solve_positive_definite([[2, -3], [-3, 2]], [F(1), F(0)])

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricva.linalg import (
    M,
    N,
    LinearSolution,
    Vec,
    diagonalize_int,
    dual_ambient,
    is_primitive,
    lattice_index,
    left_inverse,
    matrix_rank,
    nullspace_matrix,
    pair,
    perp_basis,
    pivot,
    primitivize,
    solve_exact,
    solve_matrix,
    vec,
)

ints = st.integers(min_value=-30, max_value=30)


def test_vec_normalizes_integral_fractions():
    v = vec([Fraction(4, 2), Fraction(1, 3)], N)
    assert v.coords == (2, Fraction(1, 3))
    assert isinstance(v.coords[0], int)
    assert not v.is_lattice
    assert vec([Fraction(4, 2), 1], N).is_lattice


def test_vec_ambient_guard():
    with pytest.raises(ValueError):
        vec([1, 2], "X")
    with pytest.raises(ValueError):
        vec([1, 2], N) + vec([1, 2], M)


def test_pair_examples():
    assert pair(vec([1, 2], M), vec([3, -1], N)) == 1
    assert pair(vec([1, 1, 1], M), vec([1, 1, 2], N)) == 4


def test_pair_rejects_same_ambient_and_rank_mismatch():
    with pytest.raises(ValueError):
        pair(vec([1, 0], N), vec([0, 1], N))
    with pytest.raises(ValueError):
        pair(vec([1, 0], N), vec([0, 1, 2], M))


def test_primitivize_examples():
    assert primitivize(vec([2, 4], N)).coords == (1, 2)
    assert primitivize(vec([0, -3], N)).coords == (0, -1)
    assert primitivize(vec([Fraction(1, 2), Fraction(1, 3)], M)).coords == (3, 2)
    with pytest.raises(ValueError):
        primitivize(vec([0, 0], N))


@given(st.lists(ints, min_size=1, max_size=5), st.integers(min_value=1, max_value=9))
def test_primitivize_idempotent_and_parallel(coords, scale):
    if all(c == 0 for c in coords):
        return
    v = vec(coords, N)
    p = primitivize(v)
    assert is_primitive(p)
    assert primitivize(p) == p
    assert primitivize(v.scale(Fraction(scale, 7))) == p


def test_solve_unique():
    res = solve_exact([vec([1, 0], N), vec([0, 1], N)], [3, -2])
    assert res.status == "unique"
    assert res.solution == vec([3, -2], M)


def test_solve_inconsistent_and_underdetermined():
    rows = [vec([1, 1], N), vec([2, 2], N)]
    assert solve_exact(rows, [1, 3]).status == "inconsistent"
    res = solve_exact(rows, [2, 4])
    assert res.status == "underdetermined"
    assert pair(res.solution, rows[0]) == 2


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(ints, min_size=n, max_size=n), min_size=1, max_size=5),
            st.lists(ints, min_size=n, max_size=n),
        )
    )
)
def test_solve_matrix_resubstitution(data):
    rows, x = data
    rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    res = solve_matrix(rows, rhs)
    assert res.status in ("unique", "underdetermined")
    got = res.solution
    for row, b in zip(rows, rhs):
        assert sum(a * g for a, g in zip(row, got)) == b


@given(st.lists(st.lists(ints, min_size=3, max_size=3), min_size=1, max_size=4))
def test_nullspace_annihilates(rows):
    for v in nullspace_matrix(rows):
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert matrix_rank(rows) + len(nullspace_matrix(rows)) == 3


def test_perp_basis_ambient_and_primitivity():
    basis = perp_basis([vec([1, 1, 2], N)])
    assert len(basis) == 2
    for w in basis:
        assert w.ambient == M
        assert is_primitive(w)
        assert pair(w, vec([1, 1, 2], N)) == 0


def test_lattice_index_examples():
    assert lattice_index([[1, 1], [0, -1]]) == 1
    assert lattice_index([[1, 1], [-1, 1]]) == 2
    assert lattice_index([[2, 0], [0, 3]]) == 6
    assert lattice_index([[1, 2], [2, 4]]) == 0


def _det_permutation(mat):
    import itertools

    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, ln = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                ln += 1
            if ln % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= mat[i][perm[i]]
        total += term
    return total


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_lattice_index_matches_permutation_expansion(mat):
    assert lattice_index(mat) == abs(_det_permutation(mat))


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_diagonalize_reconstructs(mat):
    p, d, q = diagonalize_int(mat)
    n = len(mat)
    assert abs(_det_permutation(p)) == 1
    assert abs(_det_permutation(q)) == 1
    for i in range(n):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
            got = sum(p[i][k] * d[k][l] * q[l][j] for k in range(n) for l in range(n))
            assert got == mat[i][j]


def test_lattice_index_of_fewer_columns():
    # (1, 1, 0) and (1, -1, 0) span an index-2 sublattice of Z^2 x 0
    assert lattice_index([[1, 1, 0], [1, -1, 0]]) == 2
    assert lattice_index([[1, 0, 0], [0, 3, 0]]) == 3
    assert lattice_index([[1, 2, 3], [2, 4, 6]]) == 0


def test_pivot_scales_and_clears():
    rows = [[Fraction(2), Fraction(4), Fraction(6)], [Fraction(1), Fraction(3), Fraction(5)]]
    pivot(rows, 0, 0)
    assert rows == [[1, 2, 3], [0, 1, 2]]


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda k: st.tuples(
            st.integers(min_value=k, max_value=4),
            st.lists(st.lists(ints, min_size=k, max_size=k), min_size=4, max_size=4),
        )
    )
)
def test_left_inverse_of_full_column_rank(data):
    m, rows = data
    rows = rows[:m]
    k = len(rows[0])
    if matrix_rank(rows) < k:
        with pytest.raises(ValueError):
            left_inverse(rows)
        return
    inv = left_inverse(rows)
    for i in range(k):
        for j in range(k):
            assert sum(inv[i][l] * rows[l][j] for l in range(m)) == int(i == j)

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    pivot,
    reference_integer_row,
    reference_norm_coord,
    reference_rref,
    solve_exact,
    solve_matrix,
)
from toricva.divisors import Divisor
from toricva.linalg import (
    M,
    N,
    Vec,
    _echelon,
    _integer_row,
    _ratio,
    dual_ambient,
    hermite_int,
    integer_left_inverse,
    is_primitive,
    lattice_index,
    matrix_rank,
    nullspace,
    pair,
    perp_basis,
    primitivize,
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
    for v in nullspace(rows, 3):
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert matrix_rank(rows) + len(nullspace(rows, 3)) == 3


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


@st.composite
def tall_matrices(draw):
    """n x k integer matrices, k <= n <= 4, whose last column is sometimes
    an integer combination of the others, so dependent columns occur."""
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=n))
    mat = draw(st.lists(st.lists(ints, min_size=k, max_size=k), min_size=n, max_size=n))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=k - 1, max_size=k - 1))
        for row in mat:
            row[-1] = sum(c * x for c, x in zip(coeffs, row))
    return mat


@settings(max_examples=100)
@given(tall_matrices())
def test_hermite_reconstructs(mat):
    n, k = len(mat), len(mat[0])
    p, t = hermite_int(mat)
    assert abs(_det_permutation(p)) == 1
    # [T; 0] = P^-1 W, one column at a time by the rational oracle solve
    cols = [solve_matrix(p, [row[j] for row in mat]).solution for j in range(k)]
    tz = [[cols[j][i] for j in range(k)] for i in range(n)]
    assert all(x.denominator == 1 for row in tz for x in row)
    for i in range(n):
        for j in range(k):
            if i > j:
                assert tz[i][j] == 0
            assert sum(p[i][l] * tz[l][j] for l in range(n)) == mat[i][j]
    assert t == [tz[i][i] for i in range(k)]
    assert (0 in t) == (matrix_rank(mat) < k)


@settings(max_examples=100)
@given(tall_matrices())
def test_lattice_index_is_the_gcd_of_maximal_minors(mat):
    # the index of W Z^k in the lattice points of its span is the gcd of
    # the k x k minors of W, and 0 for dependent columns
    k = len(mat[0])
    minors = [_det_permutation([mat[i] for i in rows]) for rows in combinations(range(len(mat)), k)]
    assert lattice_index([list(col) for col in zip(*mat)]) == gcd(*minors)


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
            integer_left_inverse(rows)
        return
    inv, den = integer_left_inverse(rows)
    for i in range(k):
        for j in range(k):
            assert sum(inv[i][l] * rows[l][j] for l in range(m)) == den * int(i == j)


def _random_matrix(rng, nrows, ncols, rational):
    def entry():
        if rng.random() < 0.3:
            return 0
        num = rng.randint(-6, 6)
        return Fraction(num, rng.randint(1, 6)) if rational else num

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    shape = rng.randrange(4)
    if shape == 1 and nrows > 1:
        # rank-deficient: the last row is a combination of earlier ones
        a = rng.randint(-3, 3)
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rational else rng.randint(-3, 3)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[rng.randrange(nrows - 1)])]
    elif shape == 2:
        rows[rng.randrange(nrows)] = [0] * ncols
    elif shape == 3 and nrows > 1:
        rows[rng.randrange(1, nrows)] = list(rows[0])
    return rows


def test_fraction_free_rref_matches_rational_gauss_jordan():
    # seeded: integer and mixed-denominator matrices, 1-6 rows x 1-7 columns,
    # with rank-deficient ones, zero rows and duplicate rows
    rng = random.Random("toricva:rref")
    for trial in range(600):
        rows = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 7), trial % 2 == 1)
        a, pivots = _echelon(rows)
        red = [[_ratio(x, row[c]) for x in row] for row, c in zip(a, pivots)] + a[len(pivots):]
        ref_red, ref_pivots = reference_rref(rows)
        assert (red, pivots) == (ref_red, ref_pivots), rows
        assert all(type(x) is int or x.denominator > 1 for row in red for x in row)
        assert matrix_rank(rows) == len(ref_pivots)
        # the nullspace basis read off the reference rows, one vector per
        # free column; nullspace scales each to the primitive integer vector
        ncols = len(rows[0])
        ref_basis = []
        for fc in (c for c in range(ncols) if c not in ref_pivots):
            v = [0] * ncols
            v[fc] = 1
            for r, pc in enumerate(ref_pivots):
                v[pc] = -ref_red[r][fc]
            ref_basis.append(tuple(v))
        primitive = [primitivize(vec(v, N)).coords for v in ref_basis]
        assert nullspace(rows, ncols) == primitive


def test_integer_left_inverse_matches_rational_gauss_jordan():
    # seeded square and tall integer matrices of full column rank, 1-5
    # columns: den * L and den against L read off rref([W | I]) = [I_k | L]
    rng = random.Random("toricva:left-inverse")
    checked = 0
    while checked < 400:
        k = rng.randint(1, 5)
        m = rng.randint(k, k + 2)
        rows = _random_matrix(rng, m, k, False)
        if matrix_rank(rows) < k:
            continue
        aug = [row + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]
        ref_red, _ = reference_rref(aug)
        ref_inv = [row[k:] for row in ref_red[:k]]
        inv, den = integer_left_inverse(rows)
        assert den == lcm(*(x.denominator for row in ref_inv for x in row)), rows
        assert inv == [[x * den for x in row] for row in ref_inv], rows
        assert all(type(x) is int for row in inv for x in row)
        checked += 1


def test_vec_normalization_is_unchanged_by_the_int_fast_path():
    v = Vec([1, 2], N)
    assert type(v.coords) is tuple and v.coords == (1, 2)
    w = vec([Fraction(4, 2), True, Fraction(1, 3)], M)
    assert w.coords == (2, 1, Fraction(1, 3))
    assert [type(c) for c in w.coords] == [int, int, Fraction]
    twin = Vec((Fraction(1), 2), N)
    assert twin.coords == (1, 2) and type(twin.coords[0]) is int
    assert Vec((1, 2), N) == twin and hash(Vec((1, 2), N)) == hash(twin)


def test_pair_returns_normalized_scalars():
    lattice = pair(vec([1, 2], M), vec([3, -1], N))
    assert lattice == 1 and type(lattice) is int
    whole = pair(vec([Fraction(1, 2), 1], M), vec([2, 3], N))
    assert whole == 4 and type(whole) is int
    half = pair(vec([Fraction(1, 2), 0], M), vec([1, 5], N))
    assert half == Fraction(1, 2) and type(half) is Fraction


# Ints, negative values, Fractions with denominator 1, proper Fractions, a
# string the fallback parses, and rows mixing them.
NUMBER_ROWS = [
    (0, 3, -7),
    (Fraction(4, 2), Fraction(-6, 3), 5),
    (Fraction(1, 3), Fraction(-5, 4)),
    (2, Fraction(-1, 6), Fraction(8, 4), -3),
    ("3/6", 1),
    ("-4/2", Fraction(3, 9)),
]


@pytest.mark.parametrize("row", NUMBER_ROWS, ids=str)
def test_number_normalisation_matches_the_fraction_reference(row):
    def typed(xs):
        return [(x, type(x)) for x in xs]

    ints, q = _integer_row(row)
    ref_ints, ref_q = reference_integer_row(row)
    assert (typed(ints), q, type(q)) == (typed(ref_ints), ref_q, type(ref_q))
    want = typed(reference_norm_coord(x) for x in row)
    assert typed(Vec(row, N).coords) == want
    assert typed(Divisor(row).coeffs) == want


def test_primitivize_refuses_every_zero_vector():
    for zero in (vec([0, 0], N), vec([Fraction(0), 0, 0], M), Vec((), N)):
        with pytest.raises(ValueError, match="^cannot primitivize the zero vector$"):
            primitivize(zero)

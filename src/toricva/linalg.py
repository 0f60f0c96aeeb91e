"""Exact rational linear algebra over tagged lattice vectors.

Everything in this package runs on arbitrary-precision rationals; floating
point never appears.  Vectors carry an ambient tag: "N" for the lattice
where fan rays live, "M" for its dual, where divisor polytopes live.
Pairing two vectors from the same ambient is a bug, so it fails loudly.

All elimination goes through two kernels:

- `pivot`, one rational Gauss-Jordan step.  `_rref` (and through it rank,
  solve, nullspace and `left_inverse`) is built on it, and so is the
  simplex tableau of the test suite's LP oracle.
- `diagonalize_int`, an integer factorization W = P @ D @ Q with P and Q
  unimodular.  `lattice_index` and the parallelepiped enumeration in
  `semigroups` are built on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

N = "N"
M = "M"
_AMBIENTS = (N, M)

Scalar = int | Fraction


def dual_ambient(ambient: str) -> str:
    return M if ambient == N else N


def _norm_coord(x) -> Scalar:
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


@dataclass(frozen=True)
class Vec:
    """Immutable vector with exact coordinates and an ambient tag."""

    coords: tuple[Scalar, ...]
    ambient: str

    def __post_init__(self):
        if self.ambient not in _AMBIENTS:
            raise ValueError(f"unknown ambient {self.ambient!r}")
        object.__setattr__(self, "coords", tuple(_norm_coord(c) for c in self.coords))

    @property
    def rank(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @property
    def is_lattice(self) -> bool:
        return all(isinstance(c, int) for c in self.coords)

    def __add__(self, other: "Vec") -> "Vec":
        self._check_compatible(other)
        return Vec(tuple(a + b for a, b in zip(self.coords, other.coords)), self.ambient)

    def __sub__(self, other: "Vec") -> "Vec":
        self._check_compatible(other)
        return Vec(tuple(a - b for a, b in zip(self.coords, other.coords)), self.ambient)

    def __neg__(self) -> "Vec":
        return Vec(tuple(-a for a in self.coords), self.ambient)

    def scale(self, k) -> "Vec":
        k = Fraction(k)
        return Vec(tuple(k * a for a in self.coords), self.ambient)

    def __rmul__(self, k) -> "Vec":
        return self.scale(k)

    def _check_compatible(self, other: "Vec"):
        if self.ambient != other.ambient:
            raise ValueError("cannot combine vectors from different ambients")
        if self.rank != other.rank:
            raise ValueError("cannot combine vectors of different ranks")

    def __repr__(self):
        return f"{self.ambient}({', '.join(str(c) for c in self.coords)})"


def vec(coords, ambient: str) -> Vec:
    return Vec(tuple(coords), ambient)


def pair(u: Vec, v: Vec) -> Scalar:
    """Exact dual pairing.  Requires one vector from each of N and M."""
    if u.ambient == v.ambient:
        raise ValueError("pairing requires one vector from each of N and M")
    if u.rank != v.rank:
        raise ValueError("pairing requires vectors of equal rank")
    return _norm_coord(sum(a * b for a, b in zip(u.coords, v.coords)))


def primitivize(v: Vec) -> Vec:
    """Scale a nonzero rational vector to the primitive integer vector on its ray.

    Sign-preserving: the result points in the same direction as the input.
    """
    if v.is_zero:
        raise ValueError("cannot primitivize the zero vector")
    fracs = [Fraction(c) for c in v.coords]
    scale = 1
    for f in fracs:
        scale = scale * f.denominator // gcd(scale, f.denominator)
    ints = [int(f * scale) for f in fracs]
    g = 0
    for c in ints:
        g = gcd(g, c)
    return Vec(tuple(c // g for c in ints), v.ambient)


def is_primitive(v: Vec) -> bool:
    if not v.is_lattice or v.is_zero:
        return False
    g = 0
    for c in v.coords:
        g = gcd(g, c)
    return g == 1


# ---------------------------------------------------------------------------
# Plain matrix routines.  Rows are sequences of ints/Fractions.
# ---------------------------------------------------------------------------


def pivot(rows: list[list[Fraction]], r: int, c: int) -> None:
    """One Gauss-Jordan step in place: scale row r so that rows[r][c] is 1,
    then clear column c from every other row."""
    pv = rows[r][c]
    rows[r] = [x / pv for x in rows[r]]
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form with the first nonzero entry as pivot.

    Returns (reduced rows, pivot column indices).
    """
    a = [[Fraction(x) for x in row] for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pivot(a, r, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def left_inverse(rows) -> list[list[Fraction]]:
    """L with L @ W = I for a square or tall matrix W of full column rank.

    The first k rows of rref([W | I]) are [I_k | L].
    """
    m = len(rows)
    k = len(rows[0])
    aug = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]
    red, pivots = _rref(aug)
    if pivots[:k] != list(range(k)):
        raise ValueError("matrix does not have full column rank")
    return [row[k:] for row in red[:k]]


def matrix_rank(rows) -> int:
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    return len(_rref(rows)[1])


@dataclass(frozen=True)
class LinearSolution:
    """Outcome of an exact linear solve.

    status is one of "unique", "inconsistent", "underdetermined".  For
    "unique" the solution is exact; for "underdetermined" a particular
    solution (free variables set to zero) is still supplied so that the
    caller can decide what to do with it.
    """

    status: str
    solution: tuple[Scalar, ...] | None


def solve_matrix(rows, rhs) -> LinearSolution:
    """Solve rows @ x = rhs exactly by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rhs = list(rhs)
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    if not rows:
        raise ValueError("empty system")
    ncols = len(rows[0])
    aug = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(rows, rhs)]
    red, pivots = _rref(aug)
    if ncols in pivots:
        return LinearSolution("inconsistent", None)
    sol = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        sol[c] = red[r][ncols]
    status = "unique" if len(pivots) == ncols else "underdetermined"
    return LinearSolution(status, tuple(_norm_coord(x) for x in sol))


def solve_exact(rows: list[Vec], rhs, ambient: str | None = None) -> LinearSolution:
    """Solve <x, row_i> = rhs_i for x in the dual of the rows' ambient."""
    if not rows:
        raise ValueError("empty system")
    amb = rows[0].ambient
    if any(v.ambient != amb for v in rows):
        raise ValueError("all rows must share one ambient")
    if any(v.rank != rows[0].rank for v in rows):
        raise ValueError("all rows must share one rank")
    res = solve_matrix([list(v.coords) for v in rows], rhs)
    if res.solution is None:
        return res
    target = ambient if ambient is not None else dual_ambient(amb)
    return LinearSolution(res.status, Vec(res.solution, target))


def nullspace_matrix(rows) -> list[tuple[Scalar, ...]]:
    """Basis of {x : rows @ x = 0}, deterministic, exact."""
    rows = [list(r) for r in rows]
    if not rows:
        raise ValueError("empty system")
    ncols = len(rows[0])
    red, pivots = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(_norm_coord(x) for x in v))
    return basis


def nullspace(rows: list[list], rank: int) -> list[tuple]:
    """Nullspace basis, treating an empty row list as the zero map."""
    if not rows:
        return [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    return nullspace_matrix(rows)


def perp_basis(vecs: list[Vec]) -> list[Vec]:
    """Primitive basis of the annihilator {w : <w, v> = 0 for all v}.

    Lives in the dual ambient of the inputs.
    """
    if not vecs:
        raise ValueError("empty system")
    amb = dual_ambient(vecs[0].ambient)
    out = []
    for coords in nullspace_matrix([list(v.coords) for v in vecs]):
        out.append(primitivize(Vec(coords, amb)))
    return out


def diagonalize_int(mat) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Factor an integer matrix as W = P @ D @ Q with P, Q unimodular, D diagonal.

    Plain integer diagonalization by gcd row/column steps; D's entries are
    not forced into a divisibility chain, which no caller here needs.
    """
    w = [[int(x) for x in row] for row in mat]
    m = len(w)
    n = len(w[0]) if w else 0
    p = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    q = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    # Row op on w is matched by the inverse op on p's columns, so that
    # p @ w @ q stays equal to the input throughout.
    def row_swap(i, j):
        w[i], w[j] = w[j], w[i]
        for r in p:
            r[i], r[j] = r[j], r[i]

    def row_add(dst, src, k):  # w[dst] += k*w[src]
        w[dst] = [a + k * b for a, b in zip(w[dst], w[src])]
        for r in p:
            r[src] -= k * r[dst]

    def col_swap(i, j):
        for r in w:
            r[i], r[j] = r[j], r[i]
        q[i], q[j] = q[j], q[i]

    def col_add(dst, src, k):  # col dst += k*col src
        for r in w:
            r[dst] += k * r[src]
        q[src] = [a - k * b for a, b in zip(q[src], q[dst])]

    def row_negate(i):
        w[i] = [-a for a in w[i]]
        for r in p:
            r[i] = -r[i]

    for k in range(min(m, n)):
        while True:
            # Move the smallest nonzero of the trailing block to (k, k).
            best = None
            for i in range(k, m):
                for j in range(k, n):
                    if w[i][j] != 0 and (best is None or abs(w[i][j]) < abs(w[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            bi, bj = best
            if bi != k:
                row_swap(k, bi)
            if bj != k:
                col_swap(k, bj)
            if w[k][k] < 0:
                row_negate(k)
            dirty = False
            for i in range(k + 1, m):
                if w[i][k] != 0:
                    qq = w[i][k] // w[k][k]
                    row_add(i, k, -qq)
                    if w[i][k] != 0:
                        dirty = True
            for j in range(k + 1, n):
                if w[k][j] != 0:
                    qq = w[k][j] // w[k][k]
                    col_add(j, k, -qq)
                    if w[k][j] != 0:
                        dirty = True
            if not dirty:
                break
    return p, w, q


def lattice_index(cols) -> int:
    """Index of the lattice spanned by k <= rank integer columns in the
    lattice points of their span: the product of |D_ii| from
    `diagonalize_int`.

    It is |det| for k = rank, so 1 exactly for a lattice basis, and 0 when
    the columns are dependent.
    """
    _, d, _ = diagonalize_int([list(row) for row in zip(*cols)])
    return prod(abs(d[i][i]) for i in range(len(cols)))

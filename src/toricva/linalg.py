"""Exact rational linear algebra over tagged lattice vectors.

Everything in this package runs on arbitrary-precision rationals; floating
point never appears.  Vectors carry an ambient tag: "N" for the lattice
where fan rays live, "M" for its dual, where divisor polytopes live.
Pairing two vectors from the same ambient is a bug, so it fails loudly.
Tags are checked in three places: at `Vec` construction (a known ambient),
in `pair` (opposite ambients, equal ranks) and on entry to
`cones.contains` (the cone's ambient and rank, once per point).  Rows
already validated are multiplied as plain tuples: `contains` pairs a
cone's own facet normals with the point it has checked.  `fans.build_fan`
reads each facet's rays off the cone's incidence and pairs, through
`pair`, only each wall's normal with the rays off the wall.  A coordinate
is an int, or a Fraction when it is not an integer; an int or a Fraction
is read off its numerator and denominator, and anything else goes
through `Fraction()`.

All elimination goes through two kernels:

- `_echelon`, fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968,
  gcd-reduced): rows scaled to integers, then integer row operations, each
  divided by its gcd.  Row scaling leaves the reduced row echelon form,
  which is unique, unchanged: dividing each row by its pivot gives it, so
  `matrix_rank`, `independent_rows` and `integer_left_inverse` read
  exactly the rational answer off the integer rows, and `nullspace` reads
  primitive integer vectors off them.  There is no general solve: every linear system the
  package meets has a full-column-rank matrix that depends only on a cone
  of the fan, so it is answered by that matrix's `integer_left_inverse`
  and a consistency check.  The inverse is built once per simplicial cone,
  by the elimination that builds the cone, and carried to its dual (see
  `cones`).  (The rational Gauss-Jordan of the test oracles is the
  reference for `_echelon` and for every solve.)
- `hermite_int`, a row-Hermite reduction W = P @ [T; 0] by Euclid row
  steps alone, P unimodular and T upper triangular (Schrijver, Theory of
  Linear and Integer Programming, 1986, 4.1).  `lattice_index` and the
  parallelepiped enumeration in `semigroups` are built on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

N = "N"
M = "M"
_AMBIENTS = (N, M)

Scalar = int | Fraction


def dual_ambient(ambient: str) -> str:
    return M if ambient == N else N


def _norm_coord(x) -> Scalar:
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class Vec:
    """Immutable vector with exact coordinates and an ambient tag."""

    coords: tuple[Scalar, ...]
    ambient: str

    def __post_init__(self):
        if self.ambient not in _AMBIENTS:
            raise ValueError(f"unknown ambient {self.ambient!r}")
        cs = self.coords
        if type(cs) is not tuple or not all(type(c) is int for c in cs):
            object.__setattr__(self, "coords", tuple(map(_norm_coord, cs)))

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
        if len(self.coords) != len(other.coords):
            raise ValueError("cannot combine vectors of different ranks")

    def __repr__(self):
        return f"{self.ambient}({', '.join(str(c) for c in self.coords)})"


def vec(coords, ambient: str) -> Vec:
    return Vec(tuple(coords), ambient)


def pair(u: Vec, v: Vec) -> Scalar:
    """Exact dual pairing.  Requires one vector from each of N and M."""
    if u.ambient == v.ambient:
        raise ValueError("pairing requires one vector from each of N and M")
    if len(u.coords) != len(v.coords):
        raise ValueError("pairing requires vectors of equal rank")
    s = sum(map(mul, u.coords, v.coords))
    return s if type(s) is int else _norm_coord(s)


def primitivize(v: Vec) -> Vec:
    """Scale a nonzero rational vector to the primitive integer vector on its ray.

    Sign-preserving: the result points in the same direction as the input.
    """
    ints, q = _integer_row(v.coords)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("cannot primitivize the zero vector")
    if q == 1 and g == 1:
        return v
    return Vec(tuple(c // g for c in ints), v.ambient)


def is_primitive(v: Vec) -> bool:
    """A lattice vector whose coordinates have gcd 1, so never the zero vector."""
    return v.is_lattice and gcd(*v.coords) == 1


# ---------------------------------------------------------------------------
# Plain matrix routines.  Rows are sequences of ints/Fractions.
# ---------------------------------------------------------------------------


def _integer_row(row) -> tuple[list[int], int]:
    """(q * row, q) for q the lcm of the row's denominators."""
    if all(type(x) is int for x in row):
        return list(row), 1
    fracs = [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in row]
    q = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (q // f.denominator) for f in fracs], q


def _echelon(rows) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination, the first nonzero entry as pivot.

    Returns (integer rows, pivot column indices): row r is nonzero at
    pivots[r] and zero in every other pivot column, and rows past the rank
    are zero.  Dividing each pivot row by its pivot gives the reduced row
    echelon form.  Every row operation replaces a row by an integer
    combination of itself and the pivot row, divided by its gcd.
    """
    a = [_integer_row(row)[0] for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        prow = a[r]
        p = prow[c]
        for i in range(nrows):
            f = a[i][c]
            if i != r and f:
                g = gcd(p, f)
                pg, fg = p // g, f // g
                row = [pg * x - fg * y for x, y in zip(a[i], prow)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def _ratio(x: int, p: int) -> Scalar:
    return x // p if x % p == 0 else Fraction(x, p)


def integer_left_inverse(rows) -> tuple[list[list[int]], int]:
    """(den * L, den) for L with L @ W = I, W a square or tall matrix of
    full column rank, and den the least common denominator of L's entries.

    The first k rows of rref([W | I]) are [I_k | L], so `_echelon`'s row r
    is p_r times [e_r | L_r] with p_r its pivot.  Each of its rows has gcd
    1, so L_r = b_r / p_r is in lowest terms: den is the lcm of the |p_r|
    and den * L_r is b_r * (den // p_r).
    """
    m = len(rows)
    k = len(rows[0])
    aug = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]
    a, pivots = _echelon(aug)
    if pivots[:k] != list(range(k)):
        raise ValueError("matrix does not have full column rank")
    den = lcm(*(a[r][r] for r in range(k)))
    return [[x * (den // a[r][r]) for x in a[r][k:]] for r in range(k)], den


def matrix_rank(rows) -> int:
    return len(_echelon(rows)[1])


def independent_rows(rows) -> list[int]:
    """Indices of the first maximal independent set of rows, in order: the
    pivot columns of the transposed matrix."""
    return _echelon(list(zip(*rows)))[1]


def nullspace(rows: list[list], rank: int) -> list[tuple[int, ...]]:
    """Basis of {x : rows @ x = 0} in `rank` coordinates, deterministic and
    exact: one primitive integer vector per free column of the reduced
    rows, positive there and 0 in the other free columns, read off the
    integer rows of `_echelon`.  An empty row list is the zero map."""
    if not rows:
        return [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    a, pivots = _echelon(rows)
    basis = []
    for fc in range(rank):
        if fc in pivots:
            continue
        scale = lcm(*(a[r][pc] for r, pc in enumerate(pivots) if a[r][fc]))
        v = [0] * rank
        v[fc] = scale
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc] * scale // a[r][pc]
        g = gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis


def perp_basis(vecs: list[Vec]) -> list[Vec]:
    """Primitive basis of the annihilator {w : <w, v> = 0 for all v}.

    Lives in the dual ambient of the inputs.
    """
    if not vecs:
        raise ValueError("empty system")
    amb = dual_ambient(vecs[0].ambient)
    return [Vec(coords, amb) for coords in nullspace([v.coords for v in vecs], vecs[0].rank)]


def hermite_int(mat) -> tuple[list[list[int]], list[int]]:
    """Row-Hermite reduction W = P @ [T; 0] of an n x k integer matrix, k <= n,
    as (P, t): P is unimodular and T upper triangular with diagonal t, which
    holds a 0 exactly when the columns are dependent.

    Euclid row steps clear each column below the diagonal, each mirrored on
    P's columns so that P @ [T; 0] stays the input.  With no column steps,
    T Z^k x 0 is P^-1 W Z^k, so P maps it onto W Z^k and, when no t_i is 0,
    Z^k x 0 onto the lattice points of span(W).
    """
    w = [list(map(int, row)) for row in mat]
    n = len(w)
    k = len(w[0]) if w else 0
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for c in range(k):
        for i in range(c + 1, n):
            while w[i][c]:
                # (row c, row i) <- (row i, row c - q row i)
                q = w[c][c] // w[i][c]
                w[c], w[i] = w[i], [a - q * b for a, b in zip(w[c], w[i])]
                for r in p:
                    r[c], r[i] = q * r[c] + r[i], r[c]
    return p, [w[c][c] for c in range(k)]


def lattice_index(cols) -> int:
    """Index of the lattice spanned by k <= rank integer columns in the
    lattice points of their span: |t_1 ... t_k| for t the diagonal of
    `hermite_int`.

    It is |det| for k = rank, so 1 exactly for a lattice basis, and 0 when
    the columns are dependent.
    """
    return abs(prod(hermite_int(list(zip(*cols)))[1]))

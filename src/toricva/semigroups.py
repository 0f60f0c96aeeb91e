"""Lattice point and semigroup computations, exact throughout.

The centrepiece is the Hilbert basis of a pointed cone: the unique minimal
generating set of the semigroup of lattice points.  It is computed by
triangulating the cone, enumerating lattice points of the half-open
fundamental parallelepiped of every simplicial piece, and pruning the
reducible candidates.  The parallelepiped points come from the two linalg
kernels: `diagonalize_int` lists one lattice point per class modulo the
piece's generators, and `left_inverse` (rational Gauss-Jordan) reduces
each into the parallelepiped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil, floor, prod

from .cones import Cone, contains, triangulate
from .divisors import Polytope, is_bounded, poly_contains
from .linalg import Vec, diagonalize_int, left_inverse, vec


def lattice_points(p: Polytope) -> tuple[Vec, ...]:
    """All lattice points of a bounded polytope, sorted by coordinates."""
    if not is_bounded(p):
        raise ValueError("unbounded region")
    if not p.vertices:
        return ()
    rank = p.vertices[0].rank
    amb = p.vertices[0].ambient
    los = [min(ceil(v.coords[i]) for v in p.vertices) for i in range(rank)]
    his = [max(floor(v.coords[i]) for v in p.vertices) for i in range(rank)]
    out = []
    for coords in product(*[range(lo, hi + 1) for lo, hi in zip(los, his)]):
        x = vec(coords, amb)
        if poly_contains(p, x):
            out.append(x)
    return tuple(out)


def _parallelepiped_points(gens: tuple[Vec, ...]) -> list[Vec]:
    """Lattice points of {sum a_i g_i : 0 <= a_i < 1} for independent g_i.

    With W = P @ D @ Q (the g_i as columns), the lattice points of the span
    are P @ (Z^k, 0) and the g_i span P @ (D Z^k, 0), so the points
    P @ (kappa, 0) with 0 <= kappa_i < |D_ii| meet every class once.  Taking
    the fractional parts of each one's coordinates in the g_i moves it into
    the parallelepiped.  Full- and lower-dimensional pieces go the same way.
    """
    n = gens[0].rank
    k = len(gens)
    amb = gens[0].ambient
    w = [[g.coords[i] for g in gens] for i in range(n)]
    p_mat, d_mat, _ = diagonalize_int(w)
    dets = [abs(d_mat[i][i]) for i in range(k)]
    vol = prod(dets)
    if vol == 0:
        raise ValueError("generators are linearly dependent")
    w_inv = left_inverse(w)
    out = []
    for kappa in product(*[range(d) for d in dets]):
        z = [sum(p_mat[i][j] * kappa[j] for j in range(k)) for i in range(n)]
        a = [sum(w_inv[i][j] * z[j] for j in range(n)) for i in range(k)]
        frac = [ai - floor(ai) for ai in a]
        x = [sum(f * g.coords[i] for f, g in zip(frac, gens)) for i in range(n)]
        if any(xi.denominator != 1 for xi in map(Fraction, x)):
            raise RuntimeError("internal: reduced representative is not a lattice point")
        out.append(vec([int(xi) for xi in x], amb))
    if len(set(out)) != vol:
        raise RuntimeError("internal: parallelepiped point count is off")
    return out


def hilbert_basis(c: Cone) -> tuple[Vec, ...]:
    """Minimal generating set of the lattice points of a pointed cone."""
    cands = set(c.rays)
    for simplex in triangulate(c):
        for x in _parallelepiped_points(simplex):
            if not x.is_zero:
                cands.add(x)
    basis = []
    for h in sorted(cands, key=lambda v: v.coords):
        reducible = any(s != h and contains(c, h - s) for s in cands)
        if not reducible:
            basis.append(h)
    return tuple(basis)


@dataclass(frozen=True)
class GenerationResult:
    """Whether a point set generates the cone's lattice semigroup.

    When it does not, `witness` is the first missing irreducible element
    in coordinate order.
    """

    generates: bool
    witness: Vec | None


def generates(points, c: Cone) -> GenerationResult:
    pts = list(points)
    for x in pts:
        if not x.is_lattice:
            raise ValueError("generators must be lattice points")
        if not contains(c, x):
            raise ValueError("point outside cone")
    have = set(pts)
    for h in hilbert_basis(c):
        if h not in have:
            return GenerationResult(False, h)
    return GenerationResult(True, None)


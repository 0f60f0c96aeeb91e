"""Hilbert bases of pointed cones, exact throughout.

The Hilbert basis of a pointed cone is the unique minimal generating set
of the semigroup of its lattice points.  It is computed by
triangulating the cone, enumerating lattice points of the half-open
fundamental parallelepiped of every simplicial piece, and pruning the
reducible candidates.  The parallelepiped points come from the two linalg
kernels: `diagonalize_int` lists one lattice point per class modulo the
piece's generators, and `integer_left_inverse` (den times the left
inverse, read off the fraction-free `_echelon`) reduces each into the
parallelepiped in integer arithmetic.  A piece has as many parallelepiped
points as its lattice index, so `hilbert_basis` sums those indices first
and refuses a cone that needs more than `MAX_PARALLELEPIPED_POINTS`.
"""

from __future__ import annotations

from itertools import product
from math import prod
from operator import le, mul

from .cones import Cone, triangulate
from .linalg import Vec, diagonalize_int, integer_left_inverse, lattice_index, pair


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
    # With den * L an integer matrix for L the left inverse of W, den times
    # the fractional parts of the coordinates is den * L @ z modulo den.
    w_inv, den = integer_left_inverse(w)
    out = []
    for kappa in product(*[range(d) for d in dets]):
        z = [sum(map(mul, row[:k], kappa)) for row in p_mat]
        frac = [sum(map(mul, row, z)) % den for row in w_inv]
        x = [sum(map(mul, frac, row)) for row in w]
        if any(xi % den for xi in x):
            raise RuntimeError("internal: reduced representative is not a lattice point")
        out.append(Vec(tuple(xi // den for xi in x), amb))
    if len(set(out)) != vol:
        raise RuntimeError("internal: parallelepiped point count is off")
    return out


# The most parallelepiped points hilbert_basis enumerates, summed over the
# cone's simplicial pieces: a cone that needs 1,000 or more is refused
# before any work starts, since the reducibility scan is quadratic in them.
MAX_PARALLELEPIPED_POINTS = 999


def hilbert_basis(c: Cone) -> tuple[Vec, ...]:
    """Minimal generating set of the lattice points of a pointed cone."""
    pieces = triangulate(c)
    count = sum(lattice_index([g.coords for g in simplex]) for simplex in pieces)
    if count > MAX_PARALLELEPIPED_POINTS:
        raise ValueError(
            f"the Hilbert basis needs {count} parallelepiped points, "
            f"more than {MAX_PARALLELEPIPED_POINTS}"
        )
    cands = set(c.rays)
    for simplex in pieces:
        for x in _parallelepiped_points(simplex):
            if not x.is_zero:
                cands.add(x)
    # h - s lies in c exactly when s is at most h on every facet normal,
    # since both lie in c's span.
    levels = {h: [pair(f, h) for f in c.facet_normals] for h in cands}
    basis = []
    for h in sorted(cands, key=lambda v: v.coords):
        top = levels[h]
        reducible = any(s != h and all(map(le, levels[s], top)) for s in cands)
        if not reducible:
            basis.append(h)
    return tuple(basis)

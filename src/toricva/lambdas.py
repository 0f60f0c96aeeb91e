"""Coefficient sums on pointed cones, in closed form.

For a full-dimensional pointed cone with primitive extreme rays g_1..g_s,
lambda_max(x) and lambda_min(x) are the largest and smallest sum a_i over
the expressions x = sum a_i g_i with a >= 0.  By LP duality (Schrijver,
Theory of Linear and Integer Programming, 1986, ch. 7) lambda_max(x) is
min{<y, x> : <y, g_i> >= 1}.  The constraints' recession cone is the dual
cone, pointed and nonnegative on x, so the minimum sits at a vertex y, and
the generators tight at y span the space and lie on <y, .> = 1: that is a
facet <phi, g> >= beta of conv(g_1..g_s) with beta > 0 and y = phi / beta.
The same argument on max{<y, x> : <y, g_i> <= 1} takes the facets with
beta < 0, so

    lambda_max(x) = min <phi, x> / beta over the facets with beta > 0,
    lambda_min(x) = max <phi, x> / beta over the facets with beta < 0.

When every generator lies on one hyperplane <w, g> = 1 (a simplicial cone,
for one), sum a_i = <w, x> for every expression and both sums are <w, x>.
The generators as rows have full column rank, so such a w can only be L 1
for L their left inverse: `integer_left_inverse` gives den * L, its row
sums give den * w, and the cone is one cell exactly when every generator
pairs with it to den.

By complementary slackness an optimal expression uses only generators on
an optimal facet, so x lies in the cone over them, that facet's cell.  Each
cell is split once into simplicial pieces, each stored with den times its
inverse, an integer matrix.  A point is written once as x = z / q with z
integer, and from then on everything is an integer: the pairings <phi, z>,
the piece coefficients of z (den * q times x's) and the checks that they
are nonnegative, reproduce den * z and sum to den * <phi, z> / beta.  A
feasible expression whose sum meets a feasible dual value certifies both
optimal; only the returned value and witness are divided by den * q.
`CoefficientSums(c)` builds a cone's cells once and is the only entry
point; `Fan.coefficient_sums` keeps one per maximal cone's dual.  One
integer certificate, `_certify`, runs these checks for `minimum` and
`maximum`, which package a `LambdaValue`, and for `max_value`, which takes
an integer tuple as it is (q = 1) and returns only lambda_max's value.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .cones import Cone, cone_from_generators, triangulate
from .hulls import convex_hull
from .linalg import Scalar, Vec, _integer_row, _ratio, integer_left_inverse


@dataclass(frozen=True)
class LambdaValue:
    """An optimal coefficient sum with one optimal expression, aligned to c.rays."""

    value: Scalar
    witness: tuple[Scalar, ...]


def _dot(a, b) -> Scalar:
    return sum(map(mul, a, b))


@dataclass(frozen=True)
class _Cell:
    """The cone over the generators on <phi, g> = beta > 0, where the sum is
    <phi, x> / beta.  Each piece is (positions of its generators in the
    parent's rays, their coordinates, den * the inverse of the matrix with
    them as columns, den), the scaled inverse being an integer matrix."""

    phi: tuple[int, ...]
    beta: int
    pieces: tuple[tuple, ...]


def _cell(rays, cell_cone: Cone, phi: tuple[int, ...], beta: int) -> _Cell:
    """The cell on <phi, g> = beta and its pieces."""
    pieces = []
    for simplex in triangulate(cell_cone):
        gens = tuple(g.coords for g in simplex)
        scaled, den = integer_left_inverse([list(row) for row in zip(*gens)])
        positions = tuple(rays.index(g) for g in simplex)
        pieces.append((positions, gens, tuple(map(tuple, scaled)), den))
    return _Cell(phi, beta, tuple(pieces))


class CoefficientSums:
    """lambda_min and lambda_max on one full-dimensional pointed cone: the
    facet tables are read once, then each point costs pairings only."""

    def __init__(self, c: Cone):
        if not c.is_full_dim:
            raise ValueError("coefficient sums need a full-dimensional cone")
        self.cone = c
        rays = c.rays
        inverse, den = integer_left_inverse([g.coords for g in rays])
        w = tuple(map(sum, inverse))
        if all(_dot(w, g.coords) == den for g in rays):
            self._max_cells = self._min_cells = (_cell(rays, c, w, den),)
        else:
            min_cells, max_cells = [], []
            for phi, beta in convex_hull(list(rays))[0]:
                if beta != 0:
                    side = 1 if beta > 0 else -1
                    tight = [g for g in rays if _dot(phi.coords, g.coords) == beta]
                    coords = tuple(side * v for v in phi.coords)
                    (max_cells if beta > 0 else min_cells).append(
                        _cell(rays, cone_from_generators(tight), coords, side * beta)
                    )
            self._min_cells, self._max_cells = tuple(min_cells), tuple(max_cells)
        # An extreme ray's only expression is 1 * g, so both sums are 1 on it.
        for g in rays:
            if not self.minimum(g).value == 1 == self.maximum(g).value:
                raise RuntimeError("internal: a generator's coefficient sums are not 1")

    def minimum(self, x: Vec) -> LambdaValue:
        return self._evaluate(self._min_cells, x, 1)

    def maximum(self, x: Vec) -> LambdaValue:
        return self._evaluate(self._max_cells, x, -1)

    def max_value(self, z) -> Scalar:
        """lambda_max at the integer point z, a tuple of the cone's rank: the
        value of `maximum`, certified the same way, without its witness."""
        if len(z) != self.cone.rank:
            raise ValueError("point does not live in the cone's ambient lattice")
        cell, top, _, _, _ = self._certify(self._max_cells, z, -1)
        return _ratio(top, cell.beta)

    def _evaluate(self, cells, x: Vec, sign: int) -> LambdaValue:
        """The certified value at x = z / q and its witness, both divided by q."""
        c = self.cone
        if x.ambient != c.ambient:
            raise ValueError("point and cone live in different spaces")
        if x.rank != c.rank:
            raise ValueError("point does not live in the cone's ambient lattice")
        z, q = _integer_row(x.coords)
        cell, top, positions, a, den = self._certify(cells, z, sign)
        dq = den * q
        witness = [0] * len(c.rays)
        for i, ai in zip(positions, a):
            witness[i] = _ratio(ai, dq)
        return LambdaValue(_ratio(top, cell.beta * q), tuple(witness))

    def _certify(self, cells, z, sign: int):
        """<phi, z> / beta on the cell where sign times it is largest, for an
        integer z, as (cell, <phi, z>, piece positions, piece coefficients a,
        den): a >= 0 reproduces den * z and sums to den * <phi, z> / beta, so
        a / den is an expression of z certifying the value."""
        # c is full-dimensional, so its facet normals alone decide membership.
        if any(_dot(f.coords, z) < 0 for f in self.cone.facet_normals):
            raise ValueError("point outside cone")
        # Every beta is positive, so cells compare by cross-multiplying; the
        # first optimal cell wins a tie.
        cell, top = None, 0
        for k in cells:
            t = _dot(k.phi, z)
            if cell is None or sign * t * cell.beta > sign * top * k.beta:
                cell, top = k, t
        for positions, gens, inverse, den in cell.pieces:
            a = [_dot(row, z) for row in inverse]
            if min(a) >= 0:
                break
        else:
            raise RuntimeError("internal: no piece of the optimal cell holds the point")
        recon = [_dot(a, col) for col in zip(*gens)]
        if recon != [den * v for v in z] or sum(a) * cell.beta != top * den:
            raise RuntimeError("internal: witness does not certify the coefficient sum")
        return cell, top, positions, a, den


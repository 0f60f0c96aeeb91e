"""Coefficient-sum functionals on pointed cones.

For a pointed cone with primitive generators u_1..u_s, every point x of the
cone is a nonnegative combination x = sum a_i u_i.  The minimum and maximum
of sum a_i over all such expressions are exact piecewise-linear functions of
x; the pieces come from the regular subdivision induced by the heights 1 on
the generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cones import Cone, cone_from_generators
from .hulls import convex_hull
from .linalg import Scalar, Vec, dual_ambient, pair, solve_matrix, vec
from .lp import lp_solve


@dataclass(frozen=True)
class LambdaValue:
    """An optimal coefficient sum with one optimal expression, aligned to c.rays."""

    value: Fraction
    witness: tuple[Fraction, ...]


def _coefficient_sum(c: Cone, x: Vec, maximize: bool) -> LambdaValue:
    if x.ambient != c.ambient:
        raise ValueError("point and cone live in different spaces")
    if x.rank != c.rank:
        raise ValueError("point and cone have different ranks")
    cols = [r.coords for r in c.rays]
    rows = [[col[i] for col in cols] for i in range(c.rank)]
    res = lp_solve(rows, list(x.coords), [1] * len(cols), maximize=maximize)
    if res.status == "infeasible":
        raise ValueError("point outside cone")
    if res.status != "optimal":
        raise RuntimeError("internal: coefficient sum unbounded on a pointed cone")
    recon = [sum(a * col[i] for a, col in zip(res.x, cols)) for i in range(c.rank)]
    if tuple(recon) != tuple(Fraction(v) for v in x.coords):
        raise RuntimeError("internal: optimizer witness does not reproduce the point")
    return LambdaValue(res.value, res.x)


def lambda_min(c: Cone, x: Vec) -> LambdaValue:
    return _coefficient_sum(c, x, maximize=False)


def lambda_max(c: Cone, x: Vec) -> LambdaValue:
    return _coefficient_sum(c, x, maximize=True)


@dataclass(frozen=True)
class Subdivision:
    """Cells on which the maximum coefficient sum is linear.

    cell_generators[i] lists every parent generator lying on cell i, and
    functionals[i] = (phi, beta) gives the linear formula <phi, x> / beta
    for the maximum coefficient sum on that cell.  A single cell with all
    generators on one affine hyperplane means both sums agree everywhere.
    """

    parent: Cone
    cells: tuple[Cone, ...]
    cell_generators: tuple[tuple[Vec, ...], ...]
    functionals: tuple[tuple[Vec, Scalar], ...]

    @property
    def is_single_cell(self) -> bool:
        return len(self.cells) == 1


def _verify_cell_formula(cell_gens, phi: Vec, beta, parent: Cone):
    for g in cell_gens:
        if Fraction(pair(phi, g)) / beta != lambda_max(parent, g).value:
            raise RuntimeError("internal: cell formula fails on a generator")
    for i, g in enumerate(cell_gens):
        for h in cell_gens[i + 1 :]:
            mid = Fraction(1, 2) * (g + h)
            if Fraction(pair(phi, mid)) / beta != lambda_max(parent, mid).value:
                raise RuntimeError("internal: cell formula fails on a midpoint")


def regular_subdivision(c: Cone) -> Subdivision:
    """Subdivide a full-dimensional pointed cone into linearity cells.

    The cells are the cones over the faces of conv(generators) visible from
    the origin.  Each cell's functional is checked against the optimizer on
    generators and pairwise midpoints before the subdivision is returned.
    """
    if not c.is_full_dim:
        raise ValueError("subdivision requires a full-dimensional cone")
    gens = c.rays
    heights = solve_matrix([g.coords for g in gens], [1] * len(gens))
    if heights.status != "inconsistent":
        if heights.status != "unique":
            raise RuntimeError("internal: full-dimensional cone gave an underdetermined solve")
        w = vec(heights.solution, dual_ambient(c.ambient))
        _verify_cell_formula(gens, w, 1, c)
        return Subdivision(c, (c,), (gens,), ((w, 1),))

    cells, cell_gens, functionals = [], [], []
    facets, _ = convex_hull(list(gens))
    for phi, beta in facets:
        if beta <= 0:
            continue
        tight = tuple(g for g in gens if pair(phi, g) == beta)
        _verify_cell_formula(tight, phi, beta, c)
        cells.append(cone_from_generators(list(tight)))
        cell_gens.append(tight)
        functionals.append((phi, beta))
    if not cells:
        raise RuntimeError("internal: no cell of the subdivision faces the origin")
    covered = {g for gs in cell_gens for g in gs}
    if covered != set(gens):
        raise RuntimeError("internal: subdivision does not reach every generator")
    return Subdivision(c, tuple(cells), tuple(cell_gens), tuple(functionals))

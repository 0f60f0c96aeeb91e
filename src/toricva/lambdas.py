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
for L their left inverse: the cone's `inverse` gives den * L (for the dual
of a simplicial maximal cone, carried over from the cone with no
elimination), its row sums give den * w, and the cone is one cell exactly
when every generator pairs with it to den.

By complementary slackness an optimal expression uses only generators on
an optimal facet, so x lies in the cone over them, that facet's cell.  Each
cell is split once into simplicial pieces, each stored with den times its
inverse, an integer matrix: the transpose of the cell's own inverse when
the cell is one simplicial cone.  Three conditions are checked once per
cone, at construction.  Two are identities, linear in the point, so they
hold at every point: each piece's generators times its scaled inverse are den * I,
so piece coefficients a = (den * inverse) z reproduce den * z; and beta
times the inverse's column sums is den * phi, so a sums to
den * <phi, z> / beta.  The third is dual feasibility: every generator
pairs with each maximal cell's phi to at least beta (at most, for a minimal
cell), so <phi, x> / beta bounds lambda_max(x) from above (lambda_min(x)
from below) by weak duality.  A one-cell cone's cell is both maximal and
minimal, with every generator on it, and is checked once; `one_cell` says
so, and then lambda_min and lambda_max are one value at every point.
After that a point needs only its cell and a piece holding it: a feasible
expression whose sum meets a feasible dual value certifies both optimal.
A point is written once as x = z / q with z integer, the facet normals
decide on z whether the cone holds it, and `_certify` runs the test in
integers; only the returned value and witness are divided by den * q.
`minimum` and `maximum` each return one sum with its witness, packaged as
a `LambdaValue`.  `extremes` returns both values at once, or None for a
point outside the cone: one membership test, one certificate on a one-cell
cone and two on any other, and no witness, which is what the statements
read (`harness.Instance.dprime_sums`).  `CoefficientSums(c)` builds a
cone's cells once; `Fan.coefficient_sums` keeps one per maximal cone's
dual.

`max_below_on_line` settles a whole line of lattice points at once.  With
all coordinates but the last fixed, a piece's coefficients and each cell's
pairing are affine in the last one, t, so the t a piece holds and the t a
cell puts below a given value are intervals, read off by floor division.
Once the pieces of the maximal cells cover the line, every point on it has
lambda_max = min <phi, x> / beta over the maximal cells, and the points
below the value are the union of the cells' intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .cones import Cone, cone_from_generators, piece_inverse, triangulate
from .hulls import convex_hull
from .linalg import Scalar, Vec, _integer_row, _ratio


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
        positions = tuple(rays.index(g) for g in simplex)
        gens = tuple(g.coords for g in simplex)
        pieces.append((positions, gens, *piece_inverse(cell_cone, simplex)))
    return _Cell(phi, beta, tuple(pieces))


class CoefficientSums:
    """lambda_min and lambda_max on one full-dimensional pointed cone: the
    facet tables are read once, then each point costs pairings only.
    `one_cell` is True when one cell serves both sums, which then agree."""

    def __init__(self, c: Cone):
        if not c.is_full_dim:
            raise ValueError("coefficient sums need a full-dimensional cone")
        self.cone = c
        rays = c.rays
        inverse, den = c.inverse
        w = tuple(map(sum, inverse))
        self.one_cell = all(_dot(w, g.coords) == den for g in rays)
        if self.one_cell:
            self._max_cells = self._min_cells = (_cell(rays, c, w, den),)
            sides = ((self._max_cells, -1),)
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
            sides = ((self._max_cells, -1), (self._min_cells, 1))
        for cells, sign in sides:
            for cell in cells:
                _check_cell(cell, rays, sign)
        # An extreme ray's only expression is 1 * g, so both sums are 1 on it.
        evaluations = (self.maximum,) if self.one_cell else (self.maximum, self.minimum)
        for g in rays:
            if any(evaluate(g).value != 1 for evaluate in evaluations):
                raise RuntimeError("internal: a generator's coefficient sums are not 1")

    def minimum(self, x: Vec) -> LambdaValue:
        return self._evaluate(self._min_cells, x, 1)

    def maximum(self, x: Vec) -> LambdaValue:
        return self._evaluate(self._max_cells, x, -1)

    def extremes(self, x: Vec) -> tuple[Scalar, Scalar] | None:
        """(lambda_min(x), lambda_max(x)), or None when x lies outside the
        cone: the values `minimum` and `maximum` return, certified the same
        way, with one membership test and no witness."""
        point = self._held(x)
        if point is None:
            return None
        z, q = point
        low = self._value(self._min_cells, z, q, 1)
        return low, low if self.one_cell else self._value(self._max_cells, z, q, -1)

    @cached_property
    def _max_lines(self):
        """The maximal cells as (phi's head, phi's last entry, beta) and the
        rows of each piece's scaled inverse as (head, last entry)."""
        cells = tuple((k.phi[:-1], k.phi[-1], k.beta) for k in self._max_cells)
        pieces = tuple(
            tuple((row[:-1], row[-1]) for row in inverse)
            for k in self._max_cells
            for _, _, inverse, _ in k.pieces
        )
        return cells, pieces

    def max_below_on_line(self, head, lo: int, hi: int, value: Scalar) -> list[int]:
        """The t in [lo, hi], ascending, where lambda_max of the integer point
        (*head, t) is below `value`.  Every point of the line must lie in the
        cone: the t each piece holds are read off its coefficients
        s + c * t >= 0, and a t that no piece of a maximal cell holds raises."""
        cells, pieces = self._max_lines
        spans = []
        for rows in pieces:
            a, b = lo, hi
            for rh, rn in rows:
                s = _dot(rh, head)
                if rn > 0:
                    s = -(s // rn)
                    if s > a:
                        a = s
                elif rn < 0:
                    s //= -rn
                    if s < b:
                        b = s
                elif s < 0:
                    break
            else:
                if a <= b:
                    spans.append((a, b))
        if len(spans) > 1:
            spans.sort()
        reach = lo
        for a, b in spans:
            if a > reach:
                break
            if b >= reach:
                reach = b + 1
        if reach <= hi:
            raise RuntimeError(
                f"internal: no piece of a maximal cell holds the lattice point {(*head, reach)}"
            )
        # A cell puts t below value when den * <phi, x> < num * beta, that is
        # c * t < r; the union of these half-lines is t <= below or t >= above.
        num, den = value.numerator, value.denominator
        below, above = lo - 1, hi + 1
        for ph, pn, beta in cells:
            r, c = num * beta - den * _dot(ph, head), den * pn
            if c > 0:
                r = (r - 1) // c
                if r > below:
                    below = r
            elif c < 0:
                r = r // c + 1
                if r < above:
                    above = r
            elif r > 0:
                return list(range(lo, hi + 1))
        if above <= below + 1:
            return list(range(lo, hi + 1))
        return [*range(lo, min(below, hi) + 1), *range(max(above, lo), hi + 1)]

    def _held(self, x: Vec) -> tuple[list[int], int] | None:
        """(z, q) with x = z / q and z integer when the cone holds x, else
        None; the cone is full-dimensional, so its facet normals alone
        decide membership."""
        c = self.cone
        if x.ambient != c.ambient:
            raise ValueError("point and cone live in different spaces")
        if len(x.coords) != c.rank:
            raise ValueError("point does not live in the cone's ambient lattice")
        z, q = _integer_row(x.coords)
        if any(_dot(f.coords, z) < 0 for f in c.facet_normals):
            return None
        return z, q

    def _value(self, cells, z, q: int, sign: int) -> Scalar:
        """The certified value at the point z / q of the cone."""
        cell, top, _, _, _ = self._certify(cells, z, sign)
        return _ratio(top, cell.beta * q)

    def _evaluate(self, cells, x: Vec, sign: int) -> LambdaValue:
        """The certified value at x = z / q and its witness, both divided by q."""
        point = self._held(x)
        if point is None:
            raise ValueError("point outside cone")
        z, q = point
        cell, top, positions, a, den = self._certify(cells, z, sign)
        dq = den * q
        witness = [0] * len(self.cone.rays)
        for i, ai in zip(positions, a):
            witness[i] = _ratio(ai, dq)
        return LambdaValue(_ratio(top, cell.beta * q), tuple(witness))

    def _certify(self, cells, z, sign: int):
        """<phi, z> / beta on the cell where sign times it is largest, for an
        integer z in the cone, as (cell, <phi, z>, piece positions, piece
        coefficients a, den): a >= 0, so by the identities `_check_cell`
        verified a / den is an expression of z certifying the value."""
        # Every beta is positive, so cells compare by cross-multiplying; the
        # first optimal cell wins a tie.
        cell, top = None, 0
        for k in cells:
            t = _dot(k.phi, z)
            if cell is None or sign * t * cell.beta > sign * top * k.beta:
                cell, top = k, t
        for positions, _, inverse, den in cell.pieces:
            a = [_dot(row, z) for row in inverse]
            if min(a) >= 0:
                return cell, top, positions, a, den
        raise RuntimeError("internal: no piece of the optimal cell holds the point")


def _check_cell(cell: _Cell, rays, sign: int) -> None:
    """The identities that make a nonnegative piece coefficient vector a
    certificate at every point: each piece's generators times its scaled
    inverse are den * I and beta times the inverse's column sums is
    den * phi; and <phi, g> / beta is dual feasible, at least 1 on every
    generator for a maximal cell (sign -1), at most 1 for a minimal one."""
    phi, beta = cell.phi, cell.beta
    for _, gens, inverse, den in cell.pieces:
        columns = list(zip(*inverse))
        for i, g_row in enumerate(zip(*gens)):
            for j, col in enumerate(columns):
                if _dot(g_row, col) != (den if i == j else 0):
                    raise RuntimeError("internal: a piece's inverse does not reproduce the point")
        if [beta * sum(col) for col in columns] != [den * v for v in phi]:
            raise RuntimeError("internal: a piece's coefficients do not sum to the cell's value")
    if any(sign * _dot(phi, g.coords) > sign * beta for g in rays):
        raise RuntimeError("internal: a cell's functional is not dual feasible")

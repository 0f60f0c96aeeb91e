"""Pointed rational polyhedral cones with exact V- and H-descriptions.

A Cone eagerly stores both its primitive extreme rays and its primitive
inner facet normals.  Cones of lower dimension than the ambient lattice
additionally carry span equations, so membership tests stay a matter of
evaluating pairings.  `cone_from_generators` does work in proportion to
the cone: rank many generators cost one `integer_left_inverse`, which also
decides whether they are independent.  If they are, its columns are the
facet normals, and the cone keeps it as `Cone.inverse`; its dual derives
its own from it with no elimination, and so the fan's local data, the
coefficient sums and the Hilbert bases on the dual need none.  Any other
cone reads its facet normals off the one subset scan, `extreme_rays` (the
dual's rays, which also decide pointedness without an LP), and its
extreme rays off the normals tight on each generator (the tight-set
rule).  A full-dimensional cone's dual needs no scan: `dual_cone` swaps
the two descriptions, and an inverse derived without elimination is
checked where it is made.  The scan suits desk scale only: it solves
C(m, rank - 1) systems for m inequalities, and refuses more than
`MAX_SCAN_SUBSETS` before it starts.
`triangulate` splits a cone into simplicial cones on its own rays, for
Hilbert bases and for the witnesses of coefficient sums; `piece_inverse`
gives each piece's inverse, the cone's own when the piece is the cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb, gcd, lcm
from operator import mul

from .linalg import (
    Vec,
    dual_ambient,
    integer_left_inverse,
    lattice_index,
    matrix_rank,
    nullspace,
    pair,
    perp_basis,
    primitivize,
)


@dataclass(frozen=True)
class Cone:
    ambient: str
    rank: int
    rays: tuple[Vec, ...]
    facet_normals: tuple[Vec, ...]
    span_equations: tuple[Vec, ...]

    @property
    def dim(self) -> int:
        return self.rank - len(self.span_equations)

    @property
    def is_full_dim(self) -> bool:
        return not self.span_equations

    # Not a field, so equality and hashing ignore it.
    @cached_property
    def inverse(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(den * L, den) with L @ R = I for R the matrix with the rays as
        rows: an integer matrix and its least common denominator.  Defined
        for full-dimensional cones.  `cone_from_generators` and `dual_cone`
        fill it in for a simplicial cone from the elimination that built it;
        any other cone runs one `integer_left_inverse` on first use."""
        scaled, den = integer_left_inverse([r.coords for r in self.rays])
        return tuple(map(tuple, scaled)), den

    def __repr__(self):
        rays = ", ".join(repr(r) for r in self.rays)
        return f"Cone[{rays}]"


@dataclass(frozen=True)
class ConeClass:
    simplicial: bool
    regular: bool


def _sorted_vecs(vecs) -> tuple[Vec, ...]:
    return tuple(sorted(set(vecs), key=lambda v: v.coords))


# The most inequality subsets extreme_rays scans; a larger scan is refused
# before it starts.  The cube [-1, 1]^5's face fan needs 1,820 per cone, its
# rank-6 analogue 201,376.
MAX_SCAN_SUBSETS = 20_000


def extreme_rays(ineqs, eqs, ambient: str) -> tuple[Vec, ...]:
    """Sorted primitive extreme rays of the cone
    {x : f.x >= 0 for f in ineqs, e.x = 0 for e in eqs}, x in `ambient`.

    Rows are vectors of one rank, paired with x by their coordinates.  An
    extreme ray is the one-dimensional nullspace of eqs and of
    rank - 1 - rank(eqs) inequalities tight on it, so scanning those subsets
    finds every ray; the kernel hands it over as a primitive integer vector.
    A cone containing a line has no extreme ray; the scan then returns
    nothing or one vector of that line.  A scan of more than
    MAX_SCAN_SUBSETS subsets raises ValueError.
    """
    ineq_rows = [list(f.coords) for f in ineqs]
    eq_rows = [list(e.coords) for e in eqs]
    rank = len((ineq_rows or eq_rows)[0])
    k = rank - 1 - matrix_rank(eq_rows)
    if k < 0:
        return ()
    subsets = comb(len(ineq_rows), k)
    if subsets > MAX_SCAN_SUBSETS:
        raise ValueError(f"the facet scan needs {subsets} subsets, more than {MAX_SCAN_SUBSETS}")
    found = set()
    for subset in combinations(ineq_rows, k):
        ns = nullspace(list(subset) + eq_rows, rank)
        if len(ns) != 1:
            continue
        w = ns[0]
        values = [sum(map(mul, f, w)) for f in ineq_rows]
        if all(v >= 0 for v in values):
            found.add(Vec(w, ambient))
        elif all(v <= 0 for v in values):
            found.add(Vec(tuple(-a for a in w), ambient))
    return _sorted_vecs(found)


class NotPointed(ValueError):
    """Raised when generators span a cone that contains a line."""


def cone_from_generators(gens: list[Vec]) -> Cone:
    """Build a pointed cone, discarding redundant generators.

    Raises ValueError on an empty list or a zero generator, and NotPointed
    on a non-pointed generating set.

    Rank many distinct primitive generators are inverted first, and the
    inversion fails exactly when they are dependent.  Otherwise they are a
    basis: each is extreme, the cone is pointed, and column j of the
    inverse of the matrix with rows g_i pairs to 0 with every g_i but g_j
    and positively with g_j, so the primitive columns are the facet normals.
    The cone keeps the inverse.

    Any other cone scans for its facet normals and reads extremality off
    tight sets, tight(x) being the indices of the normals vanishing at x.
    The normals in tight(g) cut out the smallest face through g, within the
    span for a lower-dimensional cone (Ziegler, Lectures on Polytopes,
    1995, section 2.2), and that face is generated by the generators it
    holds: the h with tight(h) containing tight(g).  So it is the ray
    through g exactly when no other generator h has tight(h) containing
    tight(g).
    """
    gens = list(gens)
    if not gens:
        raise ValueError("cone needs at least one generator")
    amb = gens[0].ambient
    rank = len(gens[0].coords)
    if any(g.ambient != amb or len(g.coords) != rank for g in gens):
        raise ValueError("generators must share ambient and rank")
    if any(g.is_zero for g in gens):
        raise ValueError("zero generator")
    prim = sorted({primitivize(g) for g in gens}, key=lambda v: v.coords)
    if len(prim) == rank:
        try:
            scaled, den = integer_left_inverse([g.coords for g in prim])
        except ValueError:
            pass  # dependent generators: their span equations decide below
        else:
            # Independent columns give distinct primitive normals.
            normals = []
            for col in zip(*scaled):
                g = gcd(*col)
                normals.append(Vec(tuple(x // g for x in col), dual_ambient(amb)))
            normals.sort(key=lambda v: v.coords)
            c = Cone(amb, rank, tuple(prim), tuple(normals), ())
            c.__dict__["inverse"] = (tuple(map(tuple, scaled)), den)
            return c

    eqs = perp_basis(prim)
    # The facet normals are the rays of the dual, taken orthogonal to the
    # span equations; the cone is pointed iff they span that complement.
    normals = extreme_rays(prim, eqs, dual_ambient(amb))
    if matrix_rank([list(f.coords) for f in normals]) != rank - len(eqs):
        raise NotPointed("not pointed")
    tight = [{i for i, f in enumerate(normals) if pair(f, g) == 0} for g in prim]
    # g's own tight set is the only one containing it
    extreme = [g for g, t in zip(prim, tight) if sum(t <= u for u in tight) == 1]
    return Cone(amb, rank, tuple(extreme), normals, _sorted_vecs(eqs))


def contains(c: Cone, x: Vec) -> bool:
    """Cone membership, boundary included.  The ambient and rank of x are
    checked here once; the cone's normals and equations are its own rows."""
    if x.ambient != c.ambient or len(x.coords) != c.rank:
        raise ValueError("point does not live in the cone's ambient lattice")
    xs = x.coords
    return all(sum(map(mul, f.coords, xs)) >= 0 for f in c.facet_normals) and all(
        sum(map(mul, e.coords, xs)) == 0 for e in c.span_equations
    )


def check_inverse(inverse, den: int, rays, name: str) -> None:
    """Raise RuntimeError naming `name` unless inverse @ R = den * I, for R
    the matrix with the rays as rows."""
    columns = list(zip(*(r.coords for r in rays)))
    for i, row in enumerate(inverse):
        for j, col in enumerate(columns):
            if sum(map(mul, row, col)) != (den if i == j else 0):
                raise RuntimeError(f"internal: {name}: the inverse does not invert the rays")


def dual_cone(c: Cone) -> Cone:
    """Dual of a full-dimensional pointed cone, read off c: its rays are c's
    facet normals and its facet normals c's rays.

    A simplicial c hands its inverse on.  With (den * L, den) = c.inverse,
    column j of den * L is g_j n_j, for n_j the dual ray it spans and
    g_j = gcd of the column, and it pairs to den with r_j and to 0 with every
    other ray of c.  So g_j r_j / den pairs to 1 with n_j and to 0 with every
    other dual ray: these are the columns of the dual's inverse, in the
    dual's ray order, brought to their least common denominator."""
    if not c.is_full_dim:
        raise ValueError("dual_cone requires a full-dimensional cone")
    d = Cone(dual_ambient(c.ambient), c.rank, c.facet_normals, c.rays, ())
    if len(c.rays) == c.rank:
        scaled, den = c.inverse
        columns = []
        for r, col in zip(c.rays, zip(*scaled)):
            g = gcd(*col)
            columns.append((tuple(x // g for x in col), g, r.coords))
        columns.sort(key=lambda entry: entry[0])
        d_den = lcm(*(den // gcd(den, g) for _, g, _ in columns))
        inverse = tuple(zip(*([x * (g * d_den // den) for x in r] for _, g, r in columns)))
        check_inverse(inverse, d_den, d.rays, f"the dual of {c!r}")
        d.__dict__["inverse"] = (inverse, d_den)
    return d


def triangulate(c: Cone) -> list[tuple[Vec, ...]]:
    """Split a pointed cone into simplicial cones on the same ray set."""
    if len(c.rays) == c.dim:
        return [c.rays]
    pivot = c.rays[0]
    out = []
    for f in c.facet_normals:
        if pair(f, pivot) == 0:
            continue
        tight = [r for r in c.rays if pair(f, r) == 0]
        for simplex in triangulate(cone_from_generators(tight)):
            out.append(simplex + (pivot,))
    return out


def piece_inverse(c: Cone, piece: tuple[Vec, ...]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(den * L, den) with L @ W = I, for W the matrix with the piece's
    generators as columns: c's inverse transposed when the piece is all of
    the full-dimensional cone c, else one `integer_left_inverse`."""
    if piece == c.rays and c.is_full_dim:
        scaled, den = c.inverse
        return tuple(zip(*scaled)), den
    scaled, den = integer_left_inverse(list(zip(*(g.coords for g in piece))))
    return tuple(map(tuple, scaled)), den


def classify(c: Cone) -> ConeClass:
    if not c.is_full_dim:
        raise ValueError("classify requires a full-dimensional cone")
    simplicial = len(c.rays) == c.rank
    regular = False
    if simplicial:
        regular = lattice_index([r.coords for r in c.rays]) == 1
    return ConeClass(simplicial, regular)

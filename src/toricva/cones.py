"""Pointed rational polyhedral cones with exact V- and H-descriptions.

A Cone eagerly stores both its primitive extreme rays and its primitive
inner facet normals.  Cones of lower dimension than the ambient lattice
additionally carry span equations, so membership tests stay a matter of
evaluating pairings.  One subset scan, `extreme_rays`, turns inequalities
into generators; its one caller here, `cone_from_generators`, reads the facet
normals off it (the dual's rays, which also decide pointedness without an
LP).  A full-dimensional cone's dual needs no scan: `dual_cone`
swaps the two descriptions.  The scan suits desk scale only: it solves
C(m, rank - 1) systems for m inequalities, and refuses more than
`MAX_SCAN_SUBSETS` before it starts.
`triangulate` splits a cone into simplicial cones on its own rays, for
Hilbert bases and for the witnesses of coefficient sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import mul

from .linalg import (
    Vec,
    dual_ambient,
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
    """
    gens = list(gens)
    if not gens:
        raise ValueError("cone needs at least one generator")
    amb = gens[0].ambient
    rank = gens[0].rank
    if any(g.ambient != amb or g.rank != rank for g in gens):
        raise ValueError("generators must share ambient and rank")
    if any(g.is_zero for g in gens):
        raise ValueError("zero generator")
    prim = sorted({primitivize(g) for g in gens}, key=lambda v: v.coords)

    # The facet normals are the rays of the dual, taken orthogonal to the
    # span equations; the cone is pointed iff they span that complement.
    eqs = perp_basis(prim)
    normals = extreme_rays(prim, eqs, dual_ambient(amb))
    if matrix_rank([list(f.coords) for f in normals]) != rank - len(eqs):
        raise NotPointed("not pointed")

    eq_rows = [list(e.coords) for e in eqs]
    extreme = []
    for g in prim:
        tight = [list(f.coords) for f in normals if pair(f, g) == 0]
        if len(nullspace(tight + eq_rows, rank)) == 1:
            extreme.append(g)
    return Cone(amb, rank, _sorted_vecs(extreme), normals, _sorted_vecs(eqs))


def contains(c: Cone, x: Vec) -> bool:
    """Cone membership, boundary included."""
    if x.ambient != c.ambient or x.rank != c.rank:
        raise ValueError("point does not live in the cone's ambient lattice")
    return all(pair(f, x) >= 0 for f in c.facet_normals) and all(
        pair(e, x) == 0 for e in c.span_equations
    )


def dual_cone(c: Cone) -> Cone:
    """Dual of a full-dimensional pointed cone, read off c: its rays are c's
    facet normals and its facet normals c's rays."""
    if not c.is_full_dim:
        raise ValueError("dual_cone requires a full-dimensional cone")
    return Cone(dual_ambient(c.ambient), c.rank, c.facet_normals, c.rays, ())


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


def classify(c: Cone) -> ConeClass:
    if not c.is_full_dim:
        raise ValueError("classify requires a full-dimensional cone")
    simplicial = len(c.rays) == c.rank
    regular = False
    if simplicial:
        regular = lattice_index([r.coords for r in c.rays]) == 1
    return ConeClass(simplicial, regular)

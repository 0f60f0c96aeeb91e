"""Pointed rational polyhedral cones with exact V- and H-descriptions.

A Cone eagerly stores both its primitive extreme rays and its primitive
inner facet normals.  Cones of lower dimension than the ambient lattice
additionally carry span equations, so membership tests stay a matter of
evaluating pairings.  All enumeration is subset-based: fine at desk scale
(rank <= 6, a couple dozen rays), which is the regime everything here
operates in.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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
from .lp import lp_feasible


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


def zero_cone(rank: int, ambient: str) -> Cone:
    eqs = tuple(
        Vec(tuple(1 if j == i else 0 for j in range(rank)), dual_ambient(ambient))
        for i in range(rank)
    )
    return Cone(ambient, rank, (), (), eqs)


def _sorted_vecs(vecs) -> tuple[Vec, ...]:
    return tuple(sorted(set(vecs), key=lambda v: v.coords))


def _facet_normals(rays: list[Vec], eqs: list[Vec], rank: int, dim: int) -> tuple[Vec, ...]:
    """All facet-supporting normals of cone(rays), within its span.

    A facet of a dim-dimensional cone contains dim-1 independent
    generators, so scanning (dim-1)-subsets finds every facet.  The span
    equations pin the normal's component transverse to the span, making
    the choice deterministic.
    """
    amb = dual_ambient(rays[0].ambient)
    eq_rows = [list(e.coords) for e in eqs]
    found = set()
    for subset in combinations(rays, dim - 1):
        rows = [list(r.coords) for r in subset] + eq_rows
        ns = nullspace(rows, rank)
        if len(ns) != 1:
            continue
        w = primitivize(Vec(ns[0], amb))
        values = [pair(w, r) for r in rays]
        if all(v >= 0 for v in values):
            found.add(w)
        elif all(v <= 0 for v in values):
            found.add(-w)
    return _sorted_vecs(found)


def cone_from_generators(gens: list[Vec]) -> Cone:
    """Build a pointed cone, discarding redundant generators.

    Raises ValueError on an empty list, a zero generator, or a non-pointed
    generating set.
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

    # Pointed iff 0 is not a convex combination of the generators.
    aug_rows = [[g.coords[i] for g in prim] for i in range(rank)] + [[1] * len(prim)]
    if lp_feasible(aug_rows, [0] * rank + [1]) is not None:
        raise ValueError("not pointed")

    eqs = perp_basis(prim)
    dim = rank - len(eqs)
    normals = _facet_normals(prim, eqs, rank, dim)

    eq_rows = [list(e.coords) for e in eqs]
    extreme = []
    for g in prim:
        tight = [list(f.coords) for f in normals if pair(f, g) == 0]
        if len(nullspace(tight + eq_rows, rank)) == 1:
            extreme.append(g)
    return Cone(amb, rank, _sorted_vecs(extreme), normals, _sorted_vecs(eqs))


def contains(c: Cone, x: Vec, strict: bool = False) -> bool:
    """Cone membership; strict means topological interior (full-dim only)."""
    if x.ambient != c.ambient or x.rank != c.rank:
        raise ValueError("point does not live in the cone's ambient lattice")
    if strict:
        if not c.is_full_dim:
            raise ValueError("strict containment needs a full-dimensional cone")
        return all(pair(f, x) > 0 for f in c.facet_normals)
    return all(pair(f, x) >= 0 for f in c.facet_normals) and all(
        pair(e, x) == 0 for e in c.span_equations
    )


def dual_cone(c: Cone) -> Cone:
    """Dual of a full-dimensional pointed cone; its rays are c's facet normals."""
    if not c.is_full_dim:
        raise ValueError("dual_cone requires a full-dimensional cone")
    d = cone_from_generators(list(c.facet_normals))
    if set(d.facet_normals) != set(c.rays):
        raise RuntimeError("internal: biduality check failed")
    return d


def classify(c: Cone) -> ConeClass:
    if not c.is_full_dim:
        raise ValueError("classify requires a full-dimensional cone")
    simplicial = len(c.rays) == c.rank
    regular = False
    if simplicial:
        regular = lattice_index([r.coords for r in c.rays]) == 1
    return ConeClass(simplicial, regular)


def intersect_cones(a: Cone, b: Cone) -> Cone:
    """Intersection of two pointed cones sharing an ambient lattice."""
    if a.ambient != b.ambient or a.rank != b.rank:
        raise ValueError("cones live in different ambients")
    rank = a.rank
    ineqs = list(dict.fromkeys(list(a.facet_normals) + list(b.facet_normals)))
    eq_rows = [list(e.coords) for e in a.span_equations] + [
        list(e.coords) for e in b.span_equations
    ]

    def ok(v: Vec) -> bool:
        return all(pair(f, v) >= 0 for f in ineqs) and all(
            sum(e[i] * v.coords[i] for i in range(rank)) == 0 for e in eq_rows
        )

    found = set()
    max_k = rank - 1 - matrix_rank(eq_rows) if eq_rows else rank - 1
    for k in range(0, max(max_k, 0) + 1):
        for subset in combinations(ineqs, k):
            rows = [list(f.coords) for f in subset] + eq_rows
            ns = nullspace(rows, rank)
            if len(ns) != 1:
                continue
            w = primitivize(Vec(ns[0], a.ambient))
            if ok(w):
                found.add(w)
            if ok(-w):
                found.add(-w)
    if not found:
        return zero_cone(rank, a.ambient)
    return cone_from_generators(sorted(found, key=lambda v: v.coords))


def is_face(face_rays, c: Cone) -> bool:
    """Is cone(face_rays) a face of c?  face_rays must be a set of Vecs."""
    face_rays = set(face_rays)
    tight = [f for f in c.facet_normals if all(pair(f, r) == 0 for r in face_rays)]
    generated = {r for r in c.rays if all(pair(f, r) == 0 for f in tight)}
    return generated == face_rays

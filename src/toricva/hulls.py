"""Convex hulls of small lattice point sets, exact throughout.

The hull of points p_1..p_k is read off the cone over the lifted points
(1, p_i), built by the cone kernel: its rays are (1, v) for the vertices v,
and each facet normal (-level, phi) is a facet <phi, x> >= level.  Unless
the points are exactly the vertices of a simplex, that cone is not
simplicial, so its facets come from the double description and its
vertices from the tight-set rule (`cones.cone_from_generators`).  The
cone's incidence names the facets through each vertex, so no facet is
paired with a vertex here.  Points that do not span the ambient space give
a lower-dimensional cone and are refused with `FlatPoints`.
"""

from __future__ import annotations

from .cones import cone_from_generators
from .linalg import Scalar, Vec


class FlatPoints(ValueError):
    """Raised when hull points do not span the ambient space."""


def convex_hull(
    points: list[Vec],
) -> tuple[list[tuple[Vec, Scalar]], list[Vec], list[tuple[int, ...]]]:
    """Facets, vertices and each vertex's facets of a full-dimensional
    lattice polytope given by its points.

    Facets are inner-oriented pairs (phi, level), sorted: <phi, p> >= level
    holds for every input point, with equality exactly on the facet, and
    phi is a primitive vector in the dual ambient.  Vertices are sorted by
    coordinates, and the third list gives, for each vertex, the indices of
    the facets through it, ascending.
    """
    if not all(p.is_lattice for p in points):
        raise ValueError("hull points must be lattice points")
    amb = points[0].ambient
    lifted = cone_from_generators([Vec((1, *p.coords), amb) for p in points])
    if not lifted.is_full_dim:
        raise FlatPoints("points do not span the ambient space")
    facets = [(Vec(w.coords[1:], w.ambient), -w.coords[0]) for w in lifted.facet_normals]
    order = sorted(range(len(facets)), key=lambda k: (facets[k][0].coords, facets[k][1]))
    through = [[] for _ in lifted.rays]
    for i, k in enumerate(order):
        for r in lifted.incidence[k]:
            through[r].append(i)
    vertices = [Vec(r.coords[1:], amb) for r in lifted.rays]
    return [facets[k] for k in order], vertices, [tuple(fs) for fs in through]

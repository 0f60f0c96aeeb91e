"""Convex hulls of small lattice point sets, exact throughout.

The hull of points p_1..p_k is read off the cone over the lifted points
(1, p_i), built by the cone kernel: its rays are (1, v) for the vertices v,
and each facet normal (-level, phi) is a facet <phi, x> >= level.  Unless
the points are exactly the vertices of a simplex, that cone is not
simplicial, so its facets come from the double description and its
vertices from the tight-set rule (`cones.cone_from_generators`).
"""

from __future__ import annotations

from .cones import cone_from_generators
from .linalg import Scalar, Vec, matrix_rank


def affine_rank(points: list[Vec]) -> int:
    """Dimension of the affine hull of the given points."""
    if not points:
        raise ValueError("no points")
    base = points[0]
    return matrix_rank([(p - base).coords for p in points[1:]])


def convex_hull(points: list[Vec]) -> tuple[list[tuple[Vec, Scalar]], list[Vec]]:
    """Facets and vertices of a full-dimensional lattice polytope given by its points.

    Facets are inner-oriented pairs (phi, level), sorted: <phi, p> >= level
    holds for every input point, with equality exactly on the facet, and
    phi is a primitive vector in the dual ambient.  Vertices are sorted by
    coordinates.
    """
    if not all(p.is_lattice for p in points):
        raise ValueError("hull points must be lattice points")
    amb = points[0].ambient
    lifted = cone_from_generators([Vec((1, *p.coords), amb) for p in points])
    if not lifted.is_full_dim:
        raise ValueError("points do not span the ambient space")
    facets = sorted(
        ((Vec(w.coords[1:], w.ambient), -w.coords[0]) for w in lifted.facet_normals),
        key=lambda f: (f[0].coords, f[1]),
    )
    return facets, [Vec(r.coords[1:], amb) for r in lifted.rays]

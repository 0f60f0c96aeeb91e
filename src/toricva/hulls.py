"""Convex hull helpers for small point sets, exact throughout."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .linalg import Vec, dual_ambient, matrix_rank, nullspace, pair, primitivize
from .lp import lp_feasible


def affine_rank(points: list[Vec]) -> int:
    """Dimension of the affine hull of the given points."""
    if not points:
        raise ValueError("no points")
    base = points[0]
    diffs = [list((p - base).coords) for p in points[1:]]
    if not diffs:
        return 0
    return matrix_rank(diffs)


def hull_facets(points: list[Vec]) -> list[tuple[Vec, Fraction]]:
    """Facets of a full-dimensional polytope given by its points.

    Returns inner-oriented pairs (phi, level): <phi, p> >= level holds for
    every input point, with equality exactly on the facet.  phi is a
    primitive vector in the dual ambient.
    """
    n = points[0].rank
    if affine_rank(points) != n:
        raise ValueError("points do not span the ambient space")
    amb = dual_ambient(points[0].ambient)
    found = {}
    for subset in combinations(points, n):
        base = subset[0]
        rows = [list((p - base).coords) for p in subset[1:]]
        ns = nullspace(rows, n)
        if len(ns) != 1:
            continue
        phi = primitivize(Vec(ns[0], amb))
        level = pair(phi, base)
        values = [pair(phi, q) for q in points]
        if all(v >= level for v in values):
            found[(phi.coords, level)] = (phi, level)
        elif all(v <= level for v in values):
            found[((-phi).coords, -level)] = (-phi, -level)
    return [found[k] for k in sorted(found)]


def hull_vertices(points: list[Vec]) -> list[Vec]:
    """Vertices of conv(points): the points not in the hull of the others."""
    pts = sorted(set(points), key=lambda p: p.coords)
    out = []
    for i, p in enumerate(pts):
        others = [q for j, q in enumerate(pts) if j != i]
        if not others:
            out.append(p)
            continue
        rows = [[Fraction(q.coords[k]) for q in others] for k in range(p.rank)]
        rows.append([Fraction(1)] * len(others))
        rhs = [Fraction(c) for c in p.coords] + [Fraction(1)]
        if lp_feasible(rows, rhs) is None:
            out.append(p)
    return out

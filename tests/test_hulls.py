import random
from fractions import Fraction

import pytest

from oracles import affine_rank, lp_hull_vertices, subset_hull_facets
from toricva.hulls import convex_hull
from toricva.linalg import M, N, pair, vec


def mvecs(*coords):
    return [vec(c, M) for c in coords]


def test_square_with_interior_and_edge_points():
    facets, vertices, through = convex_hull(mvecs((0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0)))
    assert [(phi.coords, level) for phi, level in facets] == [
        ((-1, 0), -2), ((0, -1), -2), ((0, 1), 0), ((1, 0), 0)
    ]
    assert all(phi.ambient == N for phi, _ in facets)
    assert [v.coords for v in vertices] == [(0, 0), (0, 2), (2, 0), (2, 2)]
    assert through == [(2, 3), (1, 3), (0, 2), (0, 1)]


def test_flat_point_set_rejected():
    with pytest.raises(ValueError, match="do not span"):
        convex_hull(mvecs((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)))


def test_rational_points_rejected():
    with pytest.raises(ValueError, match="lattice points"):
        convex_hull([vec((0, 0), M), vec((1, 0), M), vec((Fraction(1, 2), 1), M)])


def spanning_point_sets(seed, count):
    rng = random.Random(seed)
    sets = []
    while len(sets) < count:
        n = rng.randint(2, 3)
        k = rng.randint(n + 1, 8)
        pts = mvecs(*{tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)})
        if affine_rank(pts) == n:
            sets.append(pts)
    return sets


def test_convex_hull_matches_subset_and_lp_oracles():
    sets = spanning_point_sets(0, 150)
    assert {pts[0].rank for pts in sets} == {2, 3}
    for pts in sets:
        facets, vertices, through = convex_hull(pts)
        assert facets == subset_hull_facets(pts), pts
        assert vertices == lp_hull_vertices(pts), pts
        # the facets through each vertex, read off the lifted cone's incidence
        assert through == [
            tuple(i for i, (phi, level) in enumerate(facets) if pair(phi, v) == level)
            for v in vertices
        ], pts

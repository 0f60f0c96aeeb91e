"""Shared hand-built fans and strategies for the test suite."""

import itertools

from hypothesis import assume
from hypothesis import strategies as st

from toricva.cones import Cone, cone_from_generators
from toricva.fans import build_fan
from toricva.linalg import M, N, matrix_rank, primitivize, vec

small = st.integers(min_value=-4, max_value=4)

# Five rays whose consecutive cones wind twice around the origin: every ray
# lies in exactly two cones, on opposite sides, yet the cones cover the
# plane twice.
DOUBLE_WOUND_RAYS = ((1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3))
DOUBLE_WOUND_CONES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))
# Its suspension: every facet matched, covering degree 2.
SUSPENDED_RAYS = tuple((x, y, 0) for x, y in DOUBLE_WOUND_RAYS) + ((0, 0, 1), (0, 0, -1))
SUSPENDED_CONES = tuple((i, (i + 1) % 5, pole) for pole in (5, 6) for i in range(5))

# Arguments for one instance of every builtin family.
BUILTIN_ARGS = {
    "projective_space": [(2,), (3,)],
    "weighted_112": [()],
    "hirzebruch": [(0, 1, 1, 1, 1), (3, 1, 0, 1, 0)],
    "product_p1": [(1, 2)],
    "intro_simplex_2d": [(2,)],
    "intro_simplex_3d": [(2,)],
    "ew_simplex": [(3,)],
}

# Smooth lattice polygons, and the pairs whose products have normal fans of
# rank 4 with 16 to 36 maximal cones.
POLYGONS = {
    "triangle": ((0, 0), (1, 0), (0, 1)),
    "square": ((0, 0), (1, 0), (0, 1), (1, 1)),
    "hexagon": ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)),
}
PRODUCTS = (("hexagon", "hexagon"), ("square", "square"), ("hexagon", "triangle"))


def product_vertices(a: str, b: str):
    """The vertices of the product of the polygons named a and b."""
    return [vec(p + q, M) for p in POLYGONS[a] for q in POLYGONS[b]]


@st.composite
def pointed_cones(draw, rank=None):
    r = rank if rank is not None else draw(st.integers(min_value=2, max_value=3))
    gens = draw(
        st.lists(
            st.lists(small, min_size=r, max_size=r).map(tuple),
            min_size=r,
            max_size=r + 2,
        )
    )
    assume(all(any(x != 0 for x in g) for g in gens))
    assume(matrix_rank(list(gens)) == r)
    try:
        c = cone_from_generators([vec(g, N) for g in gens])
    except ValueError:
        assume(False)
    assume(c.is_full_dim)
    return c


def nvecs(*coords):
    return [vec(c, N) for c in coords]


def cone_outcome(build, gens):
    """build(gens), or the type and message of the ValueError it raises, so
    that a cone kernel and its reference compare in one equality."""
    try:
        return build(list(gens))
    except ValueError as exc:
        return type(exc), str(exc)


def cone_path(gens, outcome) -> str:
    """The refusal's type name, or which path of `cone_from_generators`
    built the cone: "simplicial" for rank many distinct primitive
    generators with no span equation, "scanned" for any other
    full-dimensional cone, whose facets the double description finds, and
    "lower" otherwise."""
    if not isinstance(outcome, Cone):
        return outcome[0].__name__
    if not outcome.is_full_dim:
        return "lower"
    return "simplicial" if len({primitivize(g) for g in gens}) == outcome.rank else "scanned"


def p2_fan():
    return build_fan(nvecs((-1, -1), (1, 0), (0, 1)), [(1, 2), (0, 2), (0, 1)], 2)


def p112_fan():
    # Weighted plane with weights (1, 1, 2); the cone at index 0 has multiplicity 2.
    return build_fan(nvecs((1, 1), (-1, 1), (0, -1)), [(0, 1), (1, 2), (2, 0)], 2)


def p1xp1_fan():
    return build_fan(
        nvecs((1, 0), (0, 1), (-1, 0), (0, -1)),
        [(0, 1), (1, 2), (2, 3), (3, 0)],
        2,
    )


def p3_fan():
    rays = nvecs((-1, -1, -1), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    cones = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    return build_fan(rays, cones, 3)


def quadric3_fan():
    # Cone over a square, completed by four simplicial cones underneath.
    rays = nvecs((1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1), (-1, -1, -1))
    cones = [(0, 1, 2, 3), (0, 1, 4), (0, 2, 4), (1, 3, 4), (2, 3, 4)]
    return build_fan(rays, cones, 3)


def cube_face_fan(n: int):
    """The face fan of [-1, 1]^n: its vertices as rays, a cone per facet,
    each over an (n - 1)-cube with 2^(n - 1) rays."""
    rays = list(itertools.product((-1, 1), repeat=n))
    cones = [[j for j, v in enumerate(rays) if v[i] == s] for i in range(n) for s in (-1, 1)]
    return build_fan(nvecs(*rays), cones, n)

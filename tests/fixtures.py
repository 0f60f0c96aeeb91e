"""Shared hand-built fans and strategies for the test suite."""

from hypothesis import assume
from hypothesis import strategies as st

from toricva.cones import cone_from_generators
from toricva.fans import build_fan
from toricva.linalg import N, matrix_rank, vec

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

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fixtures import cone_outcome, cone_path
from oracles import (
    in_nonneg_span,
    intersect_cones,
    is_face,
    lp_pointed,
    pairing_incidence,
    reference_cone_from_generators,
    strictly_inside,
)
from toricva import cones
from toricva.cones import Cone, NotPointed, classify, cone_from_generators, contains, dual_cone
from toricva.linalg import M, N, matrix_rank, pair, primitivize, vec


def nvecs(*coords):
    return [vec(c, N) for c in coords]


def cone(*coords):
    return cone_from_generators(nvecs(*coords))


def test_redundant_generator_dropped():
    c = cone((1, 0), (1, 1), (1, 2))
    assert [r.coords for r in c.rays] == [(1, 0), (1, 2)]


def test_generators_are_primitivized_and_deduped():
    c = cone((2, 0), (1, 0), (3, 6))
    assert [r.coords for r in c.rays] == [(1, 0), (1, 2)]


def test_zero_generator_rejected():
    with pytest.raises(ValueError, match="zero generator"):
        cone((0, 0), (1, 0))


def test_pair_test_cap_admits_the_rank_6_cube_and_refuses_a_moment_curve_cone():
    # the cone over a facet of [-1, 1]^6 (32 rays) needs 98 pair tests; the
    # cone over 20 points of the moment curve in rank 7, over a cyclic
    # polytope with 800 facets, needs 175,643 and is refused at the first
    # step past the cap
    six = [vec(v, N) for v in itertools.product((-1, 1), repeat=6) if v[0] == 1]
    assert len(cone_from_generators(six).facet_normals) == 10
    moment = [vec([t**i for i in range(7)], N) for t in range(1, 21)]
    with pytest.raises(
        ValueError, match="^the facet search needs at least 116843 pair tests, more than 100000$"
    ):
        cone_from_generators(moment)


def test_not_pointed_rejected():
    with pytest.raises(ValueError, match="not pointed"):
        cone((1, 0), (-1, 0))
    with pytest.raises(ValueError, match="not pointed"):
        cone((1, 0), (0, 1), (-1, -1))


def test_dual_octant_is_self_dual():
    c = cone((1, 0, 0), (0, 1, 0), (0, 0, 1))
    d = dual_cone(c)
    assert d.ambient == M
    assert [r.coords for r in d.rays] == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_dual_example():
    d = dual_cone(cone((1, 0), (1, 2)))
    assert sorted(r.coords for r in d.rays) == [(0, 1), (2, -1)]


def test_dual_requires_full_dim():
    c = cone((1, 1, 0))
    with pytest.raises(ValueError):
        dual_cone(c)


def test_low_dim_cone_membership():
    c = cone((1, 1, 0))
    assert c.dim == 1
    assert contains(c, vec((2, 2, 0), N))
    assert not contains(c, vec((2, 2, 1), N))
    assert not contains(c, vec((-1, -1, 0), N))
    with pytest.raises(ValueError):
        strictly_inside(c, vec((1, 1, 0), N))


def test_contains_strict_and_boundary():
    c = cone((1, 0), (0, 1))
    assert strictly_inside(c, vec((1, 1), N))
    assert contains(c, vec((1, 0), N))
    assert not strictly_inside(c, vec((1, 0), N))
    assert not contains(c, vec((-1, 2), N))
    assert strictly_inside(c, vec((Fraction(1, 2), Fraction(1, 3)), N))


def test_classify_examples():
    cc = classify(cone((1, 1), (0, -1)))
    assert cc.simplicial and cc.regular
    cc = classify(cone((1, 1), (-1, 1)))
    assert cc.simplicial and not cc.regular
    cc = classify(cone((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)))
    assert not cc.simplicial and not cc.regular


def test_intersection_common_face():
    a = cone((1, 0), (0, 1))
    b = cone((0, 1), (-1, 0))
    f = intersect_cones(a, b)
    assert [r.coords for r in f.rays] == [(0, 1)]
    assert is_face(set(f.rays), a)
    assert is_face(set(f.rays), b)


def test_intersection_opposite_cones_is_zero():
    a = cone((1, 0), (0, 1))
    b = cone((-1, 0), (0, -1))
    f = intersect_cones(a, b)
    assert f.rays == ()
    assert is_face(set(), a)


def test_overlapping_cones_not_a_face():
    a = cone((1, 0), (0, 1))
    b = cone((1, 1), (-1, 1))
    f = intersect_cones(a, b)
    assert [r.coords for r in f.rays] == [(0, 1), (1, 1)]
    assert not is_face(set(f.rays), a)
    assert not is_face(set(f.rays), b)


from fixtures import pointed_cones, small


@settings(max_examples=60, deadline=None)
@given(pointed_cones())
def test_bidual_roundtrip(c):
    assert dual_cone(dual_cone(c)) == c


@settings(max_examples=60, deadline=None)
@given(pointed_cones())
def test_dual_pairings_nonnegative(c):
    d = dual_cone(c)
    for u in d.rays:
        for v in c.rays:
            assert pair(u, v) >= 0


@settings(max_examples=80, deadline=None)
@given(pointed_cones(), st.data())
def test_membership_agrees_with_lp(c, data):
    x = vec(data.draw(st.lists(small, min_size=c.rank, max_size=c.rank)), N)
    via_normals = contains(c, x)
    via_lp = in_nonneg_span([r.coords for r in c.rays], x.coords)
    assert via_normals == via_lp


@settings(max_examples=40, deadline=None)
@given(pointed_cones())
def test_facets_match_rays_of_dual(c):
    # Every facet normal supports the cone and vanishes on dim-1 worth of rays.
    for f in c.facet_normals:
        assert all(pair(f, r) >= 0 for r in c.rays)
        tight = [r for r in c.rays if pair(f, r) == 0]
        assert matrix_rank([list(r.coords) for r in tight]) == c.rank - 1


def random_generators(rng, rank, span=None):
    """1..rank+2 nonzero integer vectors drawn from a random span of
    dimension `span` (random when not given), so that full-dimensional,
    lower-dimensional and non-pointed sets all occur."""
    span = span or rng.randint(1, rank)
    basis = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(span)]
    while not any(map(any, basis)):  # every combination would be zero
        basis = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(span)]
    count = rng.randint(1, rank + 2)
    gens = []
    while len(gens) < count:
        coeffs = [rng.randint(-2, 2) for _ in basis]
        g = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(rank)]
        if any(g):
            gens.append(vec(g, N))
    return gens


def test_random_generators_returns_on_a_zero_basis():
    # seed 4 draws the zero basis in rank 1 first, and is redrawn
    gens = random_generators(random.Random(4), 1)
    assert gens and not any(g.is_zero for g in gens)


def sample_points(rng, rank, gens, count=8):
    """Random points plus small combinations of gens with one coefficient
    possibly negative, so points inside and just outside the span occur."""
    pts = [vec([rng.randint(-3, 3) for _ in range(rank)], N) for _ in range(2)]
    while len(pts) < count:
        coeffs = [rng.randint(0, 2) for _ in gens]
        coeffs[rng.randrange(len(gens))] -= rng.randint(0, 1)
        x = [sum(c * g.coords[i] for c, g in zip(coeffs, gens)) for i in range(rank)]
        pts.append(vec(x, N))
    return pts


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_cone_from_generators_matches_lp_oracles(rank):
    rng = random.Random(f"cone_from_generators:{rank}")
    kinds = Counter()
    for _ in range(60):
        gens = random_generators(rng, rank)
        if not lp_pointed(gens):
            with pytest.raises(NotPointed):
                cone_from_generators(gens)
            kinds["not pointed"] += 1
            continue
        c = cone_from_generators(gens)
        kinds["full" if c.is_full_dim else "lower"] += 1
        prim = {primitivize(g) for g in gens}
        extreme = {
            g for g in prim if not in_nonneg_span([h.coords for h in prim if h != g], g.coords)
        }
        assert set(c.rays) == extreme, gens
        for x in sample_points(rng, rank, gens):
            assert contains(c, x) == in_nonneg_span([g.coords for g in gens], x.coords), (gens, x)
    assert kinds["not pointed"] and kinds["full"] and kinds["lower"], kinds


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_intersect_cones_matches_membership(rank):
    rng = random.Random(f"intersect_cones:{rank}")
    pool = []
    while len(pool) < rank + 3:
        pool += random_generators(rng, rank, span=rank)
    pairs = lower = 0
    while pairs < 40:
        try:
            a, b = (cone_from_generators(rng.sample(pool, rng.randint(1, rank + 1))) for _ in "ab")
        except NotPointed:
            continue
        pairs += 1
        f = intersect_cones(a, b)
        lower += not f.is_full_dim
        for x in sample_points(rng, rank, list(a.rays + b.rays), count=12):
            assert contains(f, x) == (contains(a, x) and contains(b, x)), (a, b, x)
    assert lower, "expected some lower-dimensional intersections"


def matches_reference(gens):
    """The kernel's Cone (rays, facet normals and span equations, in order)
    or refusal equals the reference's, and the incidence the cone carries
    equals the pairings; returns it."""
    got = cone_outcome(cone_from_generators, gens)
    assert got == cone_outcome(reference_cone_from_generators, gens), gens
    if isinstance(got, Cone):
        assert "incidence" in got.__dict__
        assert got.incidence == pairing_incidence(got), gens
    return got


def test_cone_from_generators_matches_the_reference_in_rank_1():
    # every nonempty set of these generators
    kinds = Counter()
    for size in range(1, 5):
        for gens in itertools.combinations((-2, -1, 1, 3), size):
            gens = nvecs(*((g,) for g in gens))
            kinds[cone_path(gens, matches_reference(gens))] += 1
    assert kinds == {"simplicial": 6, "NotPointed": 9}


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_cone_from_generators_matches_the_reference_on_seeded_sets(rank):
    # the generator sets of the LP-oracle test above, also at rank 5
    rng = random.Random(f"cone_from_generators:{rank}")
    kinds = Counter()
    for _ in range(60):
        gens = random_generators(rng, rank)
        outcome = matches_reference(gens)
        kinds[cone_path(gens, outcome)] += 1
        if isinstance(outcome, Cone):
            sample_points(rng, rank, gens)  # the LP test's draws, so its sets recur
    assert all(kinds[k] for k in ("NotPointed", "simplicial", "scanned", "lower")), kinds


@settings(max_examples=60, deadline=None)
@given(pointed_cones(), st.lists(st.lists(small, min_size=3, max_size=3), max_size=3))
def test_cone_from_generators_matches_the_reference_on_pointed_cones(c, extra):
    # the rays alone, with extra generators (redundant, new rays or a line)
    # and the dual's generators
    extras = [vec(e[: c.rank], N) for e in extra if any(e[: c.rank])]
    for gens in (list(c.rays), list(c.rays) + extras, list(c.facet_normals)):
        matches_reference(gens)


@st.composite
def generator_sets(draw):
    """1..rank+4 nonzero generators in rank 1..4, drawn from a random span,
    so that full-dimensional, lower-dimensional and non-pointed sets occur."""
    rank = draw(st.integers(min_value=1, max_value=4))
    span = draw(st.integers(min_value=1, max_value=rank))
    row = st.lists(small, min_size=rank, max_size=rank)
    basis = draw(st.lists(row, min_size=span, max_size=span))
    coeffs = st.lists(st.integers(min_value=-2, max_value=2), min_size=span, max_size=span)
    rows = [
        [sum(c * b[i] for c, b in zip(cs, basis)) for i in range(rank)]
        for cs in draw(st.lists(coeffs, min_size=1, max_size=rank + 4))
    ]
    gens = nvecs(*(r for r in rows if any(r)))
    assume(gens)
    return gens


@settings(max_examples=200, deadline=None)
@given(generator_sets())
def test_double_description_matches_the_subset_scan_on_random_generators(gens):
    matches_reference(gens)


@pytest.mark.parametrize("rank", [3, 4, 5])
def test_cube_facet_cones_match_the_reference(rank):
    gens = [vec(v, N) for v in itertools.product((-1, 1), repeat=rank) if v[0] == 1]
    c = matches_reference(gens)
    assert len(c.rays) == 2 ** (rank - 1) and len(c.facet_normals) == 2 * (rank - 1)


PYRAMID = ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))


@pytest.mark.parametrize(
    "extra",
    [
        [(1, 1, 2)],  # on the 2-face spanned by (1, 0, 1) and (0, 1, 1)
        [(1, 1, 2), (2, 1, 3)],  # two generators inside that 2-face
        [(0, 0, 1)],  # interior
        [(0, 0, 1), (1, 1, 2), (-1, -1, 2)],
    ],
)
def test_tight_sets_drop_non_extreme_generators_of_the_square_pyramid(extra):
    c = matches_reference(nvecs(*PYRAMID, *extra))
    assert sorted(r.coords for r in c.rays) == sorted(PYRAMID)
    assert len(c.facet_normals) == 4


def test_tight_sets_on_equal_tight_sets_single_rays_and_lower_dimensions():
    # two generators inside one 2-face of the orthant share their tight set
    orthant = nvecs((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    c = matches_reference(orthant + nvecs((1, 1, 0, 0), (1, 2, 0, 0)))
    assert len(c.rays) == 4
    # the two alone span a 2-dimensional cone, both extreme
    c = matches_reference(nvecs((1, 1, 0, 0), (1, 2, 0, 0)))
    assert [r.coords for r in c.rays] == [(1, 1, 0, 0), (1, 2, 0, 0)] and c.dim == 2
    c = matches_reference(nvecs((2, 4, 6)))
    assert [r.coords for r in c.rays] == [(1, 2, 3)] and c.dim == 1
    c = matches_reference(nvecs((3,)))
    assert [r.coords for r in c.rays] == [(1,)] and c.is_full_dim
    c = matches_reference(nvecs((1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0)))
    assert [r.coords for r in c.rays] == [(0, 1, 0), (1, 0, 0)] and c.dim == 2
    assert c.span_equations == (vec((0, 0, 1), M),)



def _as_built(c: Cone) -> Cone:
    """c's fields in a fresh Cone, whose inverse has never been read."""
    return Cone(c.ambient, c.rank, c.rays, c.facet_normals, c.span_equations)


def test_a_carried_inverse_leaves_equality_and_hash_alone():
    for gens in [((2, 1), (-1, 3)), ((1, 0, 0), (1, 2, 0), (1, 1, 5)), ((1, 0), (1, 1), (0, 1))]:
        c = cone(*gens)
        twin = _as_built(c)
        assert "inverse" not in twin.__dict__
        assert c == twin and hash(c) == hash(twin) and len({c, twin}) == 1
        d = dual_cone(c)
        d_twin = _as_built(d)
        assert d == d_twin and hash(d) == hash(d_twin)
        assert "inverse" not in twin.__dict__ and "inverse" not in d_twin.__dict__
        assert c.inverse == twin.inverse and d.inverse == d_twin.inverse
        assert c == twin and hash(c) == hash(twin) and d == d_twin and hash(d) == hash(d_twin)


@settings(max_examples=60, deadline=None)
@given(pointed_cones())
def test_the_bidual_carries_the_cone_and_its_inverse(c):
    # twice dualised, a simplicial cone comes back with the inverse it had,
    # derived twice without an elimination
    dd = dual_cone(dual_cone(c))
    assert dd == c and hash(dd) == hash(c)
    if len(c.rays) == c.rank:
        assert "inverse" in dd.__dict__ and dd.inverse == c.inverse == _as_built(c).inverse


@pytest.mark.parametrize(
    "gens, path",
    [
        # as many distinct primitive generators as the rank, but dependent
        (((1, 2), (-1, -2)), "NotPointed"),
        (((1, 0, 0), (0, 1, 0), (1, 1, 0)), "lower"),
        (((1, 0, 0), (-1, 0, 0), (0, 1, 0)), "NotPointed"),
        (((1, 0, 1), (0, 1, 1), (1, 1, 2)), "lower"),
        (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)), "lower"),
        (((1, 0, 0, 0), (0, 1, 0, 0), (1, 2, 0, 0), (0, 0, 1, 1)), "lower"),
        (((1, 1, 0, 0), (-1, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), "NotPointed"),
        # independent: the inversion alone decides full rank
        (((1, 2), (-1, 3)), "simplicial"),
        (((1, 0, 0), (0, 1, 0), (1, 1, 3)), "simplicial"),
    ],
)
def test_square_generator_sets_take_the_span_path_only_when_dependent(gens, path, monkeypatch):
    calls = []
    real = cones.perp_basis
    monkeypatch.setattr(cones, "perp_basis", lambda vecs: calls.append(vecs) or real(vecs))
    gens = nvecs(*gens)
    got = cone_outcome(cone_from_generators, gens)
    monkeypatch.undo()
    assert cone_path(gens, got) == path
    assert len(calls) == (path != "simplicial")
    assert got == cone_outcome(reference_cone_from_generators, gens)


def test_a_wrong_derived_dual_inverse_is_refused_naming_the_cone():
    # dual_cone checks the inverse it derives against the dual's rays
    c = cone((1, 0, 0), (1, 2, 0), (1, 1, 5))
    scaled, den = c.inverse
    c.__dict__["inverse"] = (tuple(tuple(2 * x for x in row) for row in scaled), den)
    with pytest.raises(RuntimeError, match=r"^internal: the dual of Cone\[N\(1, 0, 0\), "):
        dual_cone(c)

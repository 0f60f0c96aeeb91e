from fractions import Fraction
from math import gcd
import random
import time
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import p2_fan, pointed_cones
from oracles import (
    box_parallelepiped_points,
    generates,
    lattice_points,
    polytope,
    polytope_from_halfspaces,
    reference_hilbert_basis,
    semigroup_member,
    simplex_lattice_points,
)
from toricva.cones import cone_from_generators, contains, dual_cone, triangulate
from toricva.divisors import Divisor
from toricva.linalg import M, N, integer_left_inverse, lattice_index, matrix_rank, pair, vec
from toricva import semigroups
from toricva.semigroups import (
    MAX_BASIS_ELEMENTS,
    MAX_PARALLELEPIPED_POINTS,
    _parallelepiped_points,
    hilbert_basis,
)


def ncone(*coords):
    return cone_from_generators([vec(c, N) for c in coords])


def mcone(*coords):
    return cone_from_generators([vec(c, M) for c in coords])


def ew_dual():
    return mcone((1, 0, 0), (0, 1, 0), (1, 1, 2))


def test_lattice_points_triangle():
    p = polytope(p2_fan(), Divisor((3, 0, 0)))
    pts = lattice_points(p)
    assert len(pts) == 10
    assert vec((1, 1), M) in pts
    assert vec((3, 0), M) in pts


def test_lattice_points_empty_and_unbounded():
    assert lattice_points(polytope(p2_fan(), Divisor((-1, 0, 0)))) == ()
    quadrant = polytope_from_halfspaces([(vec((1, 0), N), 0), (vec((0, 1), N), 0)])
    with pytest.raises(ValueError, match="unbounded"):
        lattice_points(quadrant)


def test_simplex_lattice_points_unit_octant():
    c = ncone((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert len(simplex_lattice_points(c, 2)) == 10
    assert simplex_lattice_points(c, 0) == (vec((0, 0, 0), N),)
    assert simplex_lattice_points(c, -1) == ()


def test_simplex_lattice_points_skew_cone():
    pts = simplex_lattice_points(ew_dual(), 1)
    assert set(pts) == {
        vec((0, 0, 0), M),
        vec((1, 0, 0), M),
        vec((0, 1, 0), M),
        vec((1, 1, 2), M),
    }


def test_hilbert_basis_regular_cones():
    assert hilbert_basis(ncone((1, 0), (0, 1))) == (vec((0, 1), N), vec((1, 0), N))
    oct_basis = hilbert_basis(ncone((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert len(oct_basis) == 3


def test_hilbert_basis_index_two_cone():
    got = hilbert_basis(ncone((1, 0), (1, 2)))
    assert got == (vec((1, 0), N), vec((1, 1), N), vec((1, 2), N))
    dual01 = mcone((-1, 1), (1, 1))
    assert hilbert_basis(dual01) == (vec((-1, 1), M), vec((0, 1), M), vec((1, 1), M))


def test_hilbert_basis_skew_simplex_cone():
    got = hilbert_basis(ew_dual())
    assert got == (
        vec((0, 1, 0), M),
        vec((1, 0, 0), M),
        vec((1, 1, 1), M),
        vec((1, 1, 2), M),
    )


def test_hilbert_basis_non_simplicial_cone():
    c = ncone((1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1))
    assert set(hilbert_basis(c)) == set(c.rays)


def test_generates_reports_first_missing_element():
    c = ew_dual()
    pts = list(simplex_lattice_points(c, 1))
    res = generates(pts, c)
    assert not res.generates
    assert res.witness == vec((1, 1, 1), M)
    assert generates(pts + [vec((1, 1, 1), M)], c).generates


def test_generates_validates_input():
    c = ncone((1, 0), (0, 1))
    with pytest.raises(ValueError, match="outside"):
        generates([vec((-1, 0), N)], c)
    with pytest.raises(ValueError, match="lattice"):
        generates([vec((Fraction(1, 2), 0), N)], c)


def test_semigroup_member_basics():
    u1, u2, u3 = vec((1, 0, 0), M), vec((0, 1, 0), M), vec((1, 1, 2), M)
    zero = vec((0, 0, 0), M)
    assert semigroup_member([u1, u2, u3], zero, 0)
    assert semigroup_member([u1, u2, u3, zero], vec((2, 2, 2), M), 3)
    assert not semigroup_member([u1, u2, u3], vec((2, 2, 2), M), 2)
    assert not semigroup_member([u1, u2, u3], vec((1, 1, 1), M), 6)
    assert not semigroup_member([u1], vec((Fraction(1, 2), 0, 0), M), 4)


def test_skew_simplex_parity_obstruction():
    # Sums of the three corner generators keep an even last coordinate, so
    # the interior point (1,1,1) stays out no matter how many terms we allow.
    u1, u2, u3 = vec((1, 0, 0), M), vec((0, 1, 0), M), vec((1, 1, 2), M)
    for count in range(7):
        for pick in combinations_with_replacement((u1, u2, u3), count):
            total = vec((0, 0, 0), M)
            for g in pick:
                total = total + g
            assert total.coords[2] % 2 == 0
    assert not semigroup_member([u1, u2, u3], vec((1, 1, 1), M), 6)
    assert not semigroup_member([u1, u2, u3], vec((2, 2, 3), M), 6)


def decomposition_points(c, h):
    # Lattice points p with p and h - p both in c.
    halfspaces = [(f, 0) for f in c.facet_normals]
    halfspaces += [(-f, pair(f, h)) for f in c.facet_normals]
    return lattice_points(polytope_from_halfspaces(halfspaces))


@settings(max_examples=25, deadline=None)
@given(pointed_cones(rank=2))
def test_hilbert_basis_elements_are_irreducible(c):
    basis = hilbert_basis(c)
    zero = vec((0,) * c.rank, c.ambient)
    for h in basis:
        assert set(decomposition_points(c, h)) == {zero, h}


@settings(max_examples=25, deadline=None)
@given(pointed_cones(rank=2))
def test_hilbert_basis_is_minimal_and_generates(c):
    basis = hilbert_basis(c)
    assert generates(basis, c).generates
    for h in basis:
        res = generates([g for g in basis if g != h], c)
        assert not res.generates
        assert res.witness == h


@settings(max_examples=20, deadline=None)
@given(pointed_cones(rank=2), st.lists(st.integers(0, 2), min_size=4, max_size=4))
def test_ray_combinations_are_members(c, ks):
    basis = hilbert_basis(c)
    total = vec((0,) * c.rank, c.ambient)
    budget = 0
    for k, r in zip(ks, c.rays):
        total = total + k * r
        budget += k
    assert semigroup_member(basis, total, budget)


def saturation_budget(c, x):
    # sum of the dual generators pairs to a positive integer with every
    # nonzero lattice point of c, so it bounds the summand count exactly
    psi = None
    for u in dual_cone(c).rays:
        psi = u if psi is None else psi + u
    val = pair(psi, x)
    assert val == int(val)
    return int(val)


def test_generates_agrees_with_exhaustive_search():
    cones = [
        ncone((1, 0), (0, 1)),
        ncone((1, 0), (1, 2)),
        ncone((2, 1), (1, 3)),
        ew_dual(),
    ]
    for c in cones:
        hb = hilbert_basis(c)
        candidate_sets = [hb, hb[1:], hb[:-1], (hb[0], hb[-1])]
        doubled = tuple(h.scale(2) for h in hb)
        candidate_sets.append(doubled)
        for pts in candidate_sets:
            res = generates(pts, c)
            exhaustive = all(
                semigroup_member(pts, h, saturation_budget(c, h)) for h in hb
            )
            assert res.generates == exhaustive
            if not res.generates:
                assert not semigroup_member(
                    pts, res.witness, saturation_budget(c, res.witness)
                )


def test_hilbert_basis_of_lower_dimensional_cone():
    c = ncone((1, 0, 0, 0), (1, 3, 0, 0), (1, 1, 2, 0))
    assert not c.is_full_dim
    basis = hilbert_basis(c)
    assert len(basis) == 7
    assert all(h.coords[3] == 0 and contains(c, h) for h in basis)


def independent_generator_sets(seed, count):
    rng = random.Random(seed)
    sets = []
    while len(sets) < count:
        n = rng.randint(2, 4)
        k = rng.randint(1, n)
        gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(k)]
        if matrix_rank(gens) == k:
            sets.append(tuple(vec(g, N) for g in gens))
    return sets


def test_parallelepiped_points_match_box_scan_oracle():
    sets = independent_generator_sets(0, 100)
    kinds = {(gens[0].rank, len(gens) == gens[0].rank) for gens in sets}
    assert kinds == {(n, full) for n in (2, 3, 4) for full in (True, False)}
    for gens in sets:
        inverse = integer_left_inverse(list(zip(*(g.coords for g in gens))))
        got = _parallelepiped_points(gens, inverse)
        assert len(got) == len(set(got))
        assert set(got) == set(box_parallelepiped_points(gens)), gens


def test_hilbert_basis_refuses_too_many_parallelepiped_points_before_enumerating(monkeypatch):
    def never(*args):
        raise AssertionError("enumerated a refused cone")

    at_cap = mcone((0, 1), (MAX_BASIS_ELEMENTS - 1, 1))
    assert len(hilbert_basis(at_cap)) == MAX_BASIS_ELEMENTS
    monkeypatch.setattr(semigroups, "_parallelepiped_points", never)
    monkeypatch.setattr(semigroups, "_hj_sequence", never)
    with pytest.raises(ValueError, match=f"has {MAX_BASIS_ELEMENTS + 1} elements, more than"):
        hilbert_basis(mcone((0, 1), (MAX_BASIS_ELEMENTS, 1)))
    # the cone over a 23 x 23 square splits into two pieces of index 529:
    # the cap counts the sum over the pieces
    square = mcone((0, 0, 1), (23, 0, 1), (0, 23, 1), (23, 23, 1))
    assert len(triangulate(square)) == 2
    with pytest.raises(ValueError, match="parallelepiped points, more than"):
        hilbert_basis(square)


def test_huge_rank2_basis_is_refused_before_any_vector_is_built(monkeypatch):
    def never(*args):
        raise AssertionError("built a vector of a refused basis")

    c = mcone((0, 1), (10**30, 1))
    monkeypatch.setattr(semigroups, "_hj_sequence", never)
    monkeypatch.setattr(semigroups, "Vec", never)
    start = time.monotonic()
    with pytest.raises(ValueError, match=f"has {10**30 + 1} elements, more than"):
        hilbert_basis(c)
    assert time.monotonic() - start < 1.0


def seeded_cones(seed, rank, count, box, full_dim=True):
    """`count` pointed cones on 2 to rank + 2 random generators in
    [-box, box]^rank, full-dimensional or lower-dimensional."""
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        k = rng.randint(2, rank + 2) if full_dim else rng.randint(1, rank - 1)
        gens = [tuple(rng.randint(-box, box) for _ in range(rank)) for _ in range(k)]
        try:
            c = cone_from_generators([vec(g, M) for g in gens])
        except ValueError:
            continue
        if c.is_full_dim == full_dim:
            cones.append(c)
    return cones


def parallelepiped_count(c):
    return sum(lattice_index([g.coords for g in simplex]) for simplex in triangulate(c))


def test_rank2_closed_form_matches_the_reference_up_to_index_999():
    cones = seeded_cones("hilbert:rank2", 2, 300, 12)
    cones += [mcone((0, 1), (h, 1)) for h in (998, 999)] + [mcone((1, 0), (-1, 999))]
    assert max(map(parallelepiped_count, cones)) == 999
    for c in cones:
        assert hilbert_basis(c) == reference_hilbert_basis(c), c


def test_rank2_basis_length_is_counted_from_the_regular_continued_fraction(monkeypatch):
    for d in range(1, 120):
        for k in range(d):
            if gcd(d, k) == 1:
                seq, coeffs = semigroups._hj_sequence(d, k)
                assert semigroups._basis_length(d, k) == len(seq) == len(coeffs) + 2
    # the count the cap reads, on seeded cones, is the emitted length
    for c in seeded_cones("hilbert:length", 2, 200, 200):
        count = len(hilbert_basis(c))
        monkeypatch.setattr(semigroups, "MAX_BASIS_ELEMENTS", count - 1)
        with pytest.raises(ValueError, match=f"has {count} elements, more than {count - 1}$"):
            hilbert_basis(c)
        monkeypatch.undo()


def test_degree_ordered_reduction_matches_the_reference_up_to_the_cap():
    cones = seeded_cones("hilbert:rank3", 3, 60, 3)
    cones += seeded_cones("hilbert:rank3-big", 3, 12, 12)
    cones += seeded_cones("hilbert:rank4", 4, 20, 2)
    cones += seeded_cones("hilbert:lower", 3, 20, 4, full_dim=False)
    cones += seeded_cones("hilbert:lower4", 4, 20, 3, full_dim=False)
    cones += [mcone((0, 0, 1), (27, 0, 1), (0, 37, 1)), mcone((1, 0, 0), (0, 1, 0), (1, 1, 999))]
    kept = [c for c in cones if parallelepiped_count(c) <= MAX_PARALLELEPIPED_POINTS]
    assert max(map(parallelepiped_count, kept)) == MAX_PARALLELEPIPED_POINTS
    for c in kept:
        assert hilbert_basis(c) == reference_hilbert_basis(c), c

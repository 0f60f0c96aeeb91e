import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import pointed_cones
from oracles import (
    interior_max_values,
    lambda_max,
    lambda_min,
    m_delta_contains,
    matches_lp_oracle,
    max_value,
    solve_matrix,
    sum_range,
)
from toricva import lambdas
from toricva.cones import cone_from_generators
from toricva.harness import interior_points
from toricva.lambdas import CoefficientSums
from toricva.linalg import M, N, vec


def ncone(*coords):
    return cone_from_generators([vec(c, N) for c in coords])


def mcone(*coords):
    return cone_from_generators([vec(c, M) for c in coords])


def test_four_generator_cone_values():
    c = ncone((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, -1))
    x = vec((2, 1, 0), N)
    lo, hi = lambda_min(c, x), lambda_max(c, x)
    assert lo.value == 2 and hi.value == 3
    by_ray = {r.coords: a for r, a in zip(c.rays, lo.witness)}
    assert by_ray == {(0, 0, 1): 1, (0, 1, 0): 0, (1, 0, 0): 0, (2, 1, -1): 1}
    by_ray = {r.coords: a for r, a in zip(c.rays, hi.witness)}
    assert by_ray == {(0, 0, 1): 0, (0, 1, 0): 1, (1, 0, 0): 2, (2, 1, -1): 0}


def test_simplicial_cone_unique_sum():
    c = ncone((1, 0, 0), (0, 1, 0), (0, 0, 1))
    x = vec((3, 4, 5), N)
    assert lambda_min(c, x).value == 12
    assert lambda_max(c, x).value == 12
    c2 = ncone((1, 0), (1, 2))
    assert lambda_min(c2, vec((2, 2), N)).value == 2
    assert lambda_max(c2, vec((2, 2), N)).value == 2


def test_point_outside_cone_raises():
    c = ncone((1, 0), (0, 1))
    with pytest.raises(ValueError, match="outside"):
        lambda_min(c, vec((-1, 0), N))
    with pytest.raises(ValueError, match="different spaces"):
        lambda_min(c, vec((1, 0), M))


def test_max_value_refuses_what_maximum_refuses():
    # the per-point reference for the line scan refuses what `maximum` does
    sums = CoefficientSums(ncone((1, 0), (0, 1)))
    assert max_value(sums, (2, 3)) == 5 == sums.maximum(vec((2, 3), N)).value
    with pytest.raises(ValueError, match="outside"):
        max_value(sums, (-1, 0))
    with pytest.raises(ValueError, match="outside"):
        sums.maximum(vec((-1, 0), N))
    for z in ((1,), (1, 0, 0), ()):
        with pytest.raises(ValueError, match="ambient lattice"):
            max_value(sums, z)


def _bend_cells(monkeypatch, bend):
    real = lambdas._cell
    monkeypatch.setattr(lambdas, "_cell", lambda *args: bend(real(*args)))


BENT_CONES = (
    ((1, 0), (0, 1)),
    ((1, 0), (1, 3)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, -1)),
    ((1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)),
)


@pytest.mark.parametrize("rays", BENT_CONES)
def test_a_bent_inverse_entry_is_refused_at_construction(monkeypatch, rays):
    def bend(cell):
        positions, gens, inverse, den = cell.pieces[-1]
        row = (inverse[0][0] + 1, *inverse[0][1:])
        piece = (positions, gens, (row, *inverse[1:]), den)
        return dataclasses.replace(cell, pieces=(*cell.pieces[:-1], piece))

    _bend_cells(monkeypatch, bend)
    with pytest.raises(RuntimeError, match="inverse does not reproduce the point"):
        CoefficientSums(ncone(*rays))


@pytest.mark.parametrize("rays", BENT_CONES)
def test_a_bent_phi_is_refused_at_construction(monkeypatch, rays):
    def bend(cell):
        return dataclasses.replace(cell, phi=(cell.phi[0] + 1, *cell.phi[1:]))

    _bend_cells(monkeypatch, bend)
    with pytest.raises(RuntimeError, match="do not sum to the cell's value"):
        CoefficientSums(ncone(*rays))


def test_a_cell_that_is_not_dual_feasible_is_refused(monkeypatch):
    # the four-generator cone's minimal cells passed off as maximal ones:
    # their identities hold, but a generator off each pairs with it below beta
    c = ncone((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, -1))
    sums = CoefficientSums(c)
    for cell in sums._min_cells:
        with pytest.raises(RuntimeError, match="not dual feasible"):
            lambdas._check_cell(cell, c.rays, -1)
    for cell in sums._max_cells:
        lambdas._check_cell(cell, c.rays, -1)
        with pytest.raises(RuntimeError, match="not dual feasible"):
            lambdas._check_cell(cell, c.rays, 1)


def test_truncation_membership():
    c = mcone((1, 0, 0), (0, 1, 0), (1, 1, 2))
    assert m_delta_contains(c, 1, vec((1, 1, 2), M))
    assert m_delta_contains(c, 1, vec((0, 0, 0), M))
    assert not m_delta_contains(c, 1, vec((2, 2, 4), M))
    assert m_delta_contains(c, 2, vec((2, 2, 4), M))
    assert not m_delta_contains(c, 5, vec((-1, 0, 0), M))
    assert not m_delta_contains(c, 0, vec((1, 0, 0), M))
    assert m_delta_contains(c, 0, vec((0, 0, 0), M))


def test_heights_consistent_generators_share_one_cell():
    c = mcone((1, 0, 0), (0, 1, 0), (1, 1, 2))
    (cell,) = CoefficientSums(c)._max_cells
    assert [Fraction(v, cell.beta) for v in cell.phi] == [1, 1, Fraction(-1, 2)]
    x = vec((1, 1, 1), M)
    assert lambda_min(c, x).value == Fraction(3, 2)
    assert lambda_max(c, x).value == Fraction(3, 2)


def test_weighted_dual_cone_is_single_cell():
    c = mcone((-1, 0), (-1, -1))
    (cell,) = CoefficientSums(c)._max_cells
    assert [Fraction(v, cell.beta) for v in cell.phi] == [-1, 0]
    x = vec((-2, -1), M)
    assert lambda_min(c, x).value == 2 == lambda_max(c, x).value


def test_subdivision_requires_full_dimension():
    with pytest.raises(ValueError, match="full-dimensional"):
        CoefficientSums(ncone((1, 1)))


mult = st.integers(min_value=0, max_value=3)


def combo(c, ks):
    out = vec((0,) * c.rank, c.ambient)
    for k, r in zip(ks, c.rays):
        out = out + k * r
    return out


@settings(max_examples=60, deadline=None)
@given(pointed_cones(), st.lists(mult, min_size=6, max_size=6))
def test_lambda_matches_enumeration(c, ks):
    x = combo(c, ks)
    expected = sum_range([r.coords for r in c.rays], x.coords)
    assert expected is not None
    lo, hi = lambda_min(c, x), lambda_max(c, x)
    assert (lo.value, hi.value) == expected


@settings(max_examples=40, deadline=None)
@given(pointed_cones(), st.lists(mult, min_size=6, max_size=6), st.integers(1, 4))
def test_lambda_is_homogeneous(c, ks, k):
    x = combo(c, ks)
    assert lambda_min(c, k * x).value == k * lambda_min(c, x).value
    assert lambda_max(c, k * x).value == k * lambda_max(c, x).value


@settings(max_examples=40, deadline=None)
@given(pointed_cones(), st.lists(mult, min_size=6, max_size=6), st.lists(mult, min_size=6, max_size=6))
def test_lambda_concavity_directions(c, ks, js):
    x, y = combo(c, ks), combo(c, js)
    s = x + y
    assert lambda_min(c, s).value <= lambda_min(c, x).value + lambda_min(c, y).value
    assert lambda_max(c, s).value >= lambda_max(c, x).value + lambda_max(c, y).value


def _seeded_cones():
    """Two named cones over polytopes (a square, a triangular prism) and
    seeded cones in ranks 2-4: over random generators, and over random
    lifted points (p, 1), whose generators all lie on one hyperplane."""
    rng = random.Random("lambdas:closed-form")
    cones = [
        mcone((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)),
        ncone((0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 0, 1, 1), (0, 1, 1, 1)),
    ]
    while len(cones) < 120:
        rank = rng.choice((2, 3, 4))
        count = rng.randint(rank, rank + 3)
        if rng.random() < 0.3:
            gens = [tuple(rng.randint(-2, 2) for _ in range(rank - 1)) + (1,) for _ in range(count)]
        else:
            gens = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(count)]
        try:
            c = cone_from_generators([vec(g, N) for g in gens])
        except ValueError:
            continue
        if c.is_full_dim:
            cones.append(c)
    return cones


def _on_one_hyperplane(c):
    return solve_matrix([r.coords for r in c.rays], [1] * len(c.rays)).status != "inconsistent"


def test_closed_form_matches_lp_oracle_on_seeded_cones():
    rng = random.Random("lambdas:points")
    kinds = Counter()
    for c in _seeded_cones():
        sums = CoefficientSums(c)
        simplicial = len(c.rays) == c.rank
        kinds[(c.rank, simplicial, _on_one_hyperplane(c))] += 1
        points = list(c.rays) + [combo(c, [1] * len(c.rays))]
        for _ in range(4):
            ks = [Fraction(rng.randint(0, 6), rng.randint(1, 2)) for _ in c.rays]
            points.append(combo(c, ks))
        for x in points:
            assert matches_lp_oracle(sums, x), (c, x)
            if all(type(v) is int for v in x.coords):
                assert max_value(sums, x.coords) == sums.maximum(x).value, (c, x)
    assert sum(kinds.values()) == 120
    assert {rank for rank, _, _ in kinds} == {2, 3, 4}
    # non-simplicial cones over a polytope, and ones whose generators need the hull
    assert sum(n for (_, simp, flat), n in kinds.items() if not simp and flat) >= 10
    assert sum(n for (_, simp, flat), n in kinds.items() if not simp and not flat) >= 20



def test_line_scan_matches_the_per_point_reference_on_seeded_cones():
    # every seeded cone (ranks 2-4, cells from the hull or one hyperplane) and
    # rank-1 cones: the lines' points below a value are the reference's
    cones = _seeded_cones() + [ncone((1,)), ncone((-3,))]
    scans = 0
    for c in cones:
        sums = CoefficientSums(c)
        normals = [f.coords for f in c.facet_normals]
        bound = 3 if c.rank < 4 else 2
        table = interior_max_values(sums, normals, c.rank, bound)
        values = sorted({1, 2, Fraction(5, 2)} | {lam for _, lam in table[::7]})
        for value in values:
            got = [
                (*head, t)
                for head, lo, hi in interior_points(normals, c.rank, bound)
                for t in sums.max_below_on_line(head, lo, hi, value)
            ]
            assert got == [z for z, lam in table if lam < value], (c, value)
            scans += 1
    assert scans > 500


def test_a_line_leaving_the_cone_is_an_internal_error():
    # on the cone over (1, 0) and (1, 2) the line x_1 = 1 holds 0 <= t <= 2;
    # one step past either end no piece holds the point, and on the positive
    # quadrant no point of the line x_1 = -1
    with pytest.raises(RuntimeError, match=r"holds the lattice point \(-1, 0\)"):
        CoefficientSums(ncone((1, 0), (0, 1))).max_below_on_line((-1,), 0, 1, 1)
    sums = CoefficientSums(ncone((1, 0), (1, 2)))
    assert sums.max_below_on_line((1,), 0, 2, 2) == [0, 1, 2]
    assert sums.max_below_on_line((1,), 0, 2, 1) == []
    for lo, hi, point in ((-1, 2, r"\(1, -1\)"), (0, 3, r"\(1, 3\)")):
        with pytest.raises(RuntimeError, match=f"holds the lattice point {point}"):
            sums.max_below_on_line((1,), lo, hi, 2)


def test_a_multi_cell_cone_missing_a_maximal_facet_is_refused(monkeypatch):
    # with one beta > 0 facet of the hull dropped, every remaining cell still
    # passes its identities and dual feasibility; only evaluating each
    # generator shows that no piece of the optimal cell holds one of them
    rays = BENT_CONES[2]
    real = lambdas.convex_hull

    def lossy(points):
        facets, vertices = real(points)
        drop = next(i for i, (_, beta) in enumerate(facets) if beta > 0)
        return facets[:drop] + facets[drop + 1 :], vertices

    assert not CoefficientSums(ncone(*rays)).one_cell
    monkeypatch.setattr(lambdas, "convex_hull", lossy)
    with pytest.raises(RuntimeError, match="no piece of the optimal cell holds the point"):
        CoefficientSums(ncone(*rays))


def test_nested_piece_spans_cover_the_line():
    # triangulate pulls from one ray order on every cell, so the pieces of
    # two cells meet face to face and a real cone's spans never nest; these
    # pieces are crafted on the line (1, t): [0, 10], [2, 5] inside it, then
    # [11, 20], and the same with a gap at 11 and 12
    sums = CoefficientSums(ncone((1, 0), (0, 1)))
    cells, _ = sums._max_lines

    def piece(a, b):
        # coefficients t - a >= 0 and b - t >= 0 at head (1,)
        return (((-a,), 1), ((b,), -1))

    sums.__dict__["_max_lines"] = (cells, (piece(0, 10), piece(2, 5), piece(11, 20)))
    assert sums.max_below_on_line((1,), 0, 20, 3) == [0, 1]
    sums.__dict__["_max_lines"] = (cells, (piece(0, 10), piece(2, 5), piece(13, 20)))
    with pytest.raises(RuntimeError, match=r"holds the lattice point \(1, 11\)"):
        sums.max_below_on_line((1,), 0, 20, 3)

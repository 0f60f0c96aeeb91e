import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import pointed_cones
from oracles import (
    lambda_max,
    lambda_min,
    m_delta_contains,
    matches_lp_oracle,
    solve_matrix,
    sum_range,
)
from toricva.cones import cone_from_generators
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
    sums = CoefficientSums(ncone((1, 0), (0, 1)))
    assert sums.max_value((2, 3)) == 5 == sums.maximum(vec((2, 3), N)).value
    with pytest.raises(ValueError, match="outside"):
        sums.max_value((-1, 0))
    for z in ((1,), (1, 0, 0), ()):
        with pytest.raises(ValueError, match="ambient lattice"):
            sums.max_value(z)


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
                assert sums.max_value(x.coords) == sums.maximum(x).value, (c, x)
    assert sum(kinds.values()) == 120
    assert {rank for rank, _, _ in kinds} == {2, 3, 4}
    # non-simplicial cones over a polytope, and ones whose generators need the hull
    assert sum(n for (_, simp, flat), n in kinds.items() if not simp and flat) >= 10
    assert sum(n for (_, simp, flat), n in kinds.items() if not simp and not flat) >= 20


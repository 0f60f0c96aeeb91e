from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import pointed_cones
from oracles import m_delta_contains, sum_range
from toricva.cones import cone_from_generators, contains
from toricva.lambdas import lambda_max, lambda_min, regular_subdivision
from toricva.linalg import M, N, pair, vec


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
    sub = regular_subdivision(c)
    assert sub.is_single_cell
    (w, beta) = sub.functionals[0]
    assert beta == 1
    assert w == vec((1, 1, Fraction(-1, 2)), N)
    x = vec((1, 1, 1), M)
    assert lambda_min(c, x).value == Fraction(3, 2)
    assert lambda_max(c, x).value == Fraction(3, 2)


def test_weighted_dual_cone_is_single_cell():
    c = mcone((-1, 0), (-1, -1))
    sub = regular_subdivision(c)
    assert sub.is_single_cell
    assert sub.functionals[0][0] == vec((-1, 0), N)
    x = vec((-2, -1), M)
    assert lambda_min(c, x).value == 2 == lambda_max(c, x).value


def test_subdivision_with_two_cells():
    c = ncone((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, -1))
    sub = regular_subdivision(c)
    assert len(sub.cells) == 2
    gens = [tuple(g.coords for g in gs) for gs in sub.cell_generators]
    assert gens[0] == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert gens[1] == ((0, 1, 0), (1, 0, 0), (2, 1, -1))
    assert sub.functionals[0] == (vec((1, 1, 1), M), 1)
    assert sub.functionals[1] == (vec((1, 1, 2), M), 1)
    x = vec((3, 2, 0), N)
    assert lambda_max(c, x).value == 5
    assert contains(sub.cells[1], x)


def test_subdivision_requires_full_dimension():
    with pytest.raises(ValueError):
        regular_subdivision(ncone((1, 1)))


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


@settings(max_examples=30, deadline=None)
@given(pointed_cones(), st.lists(mult, min_size=6, max_size=6))
def test_subdivision_cells_compute_lambda_max(c, ks):
    sub = regular_subdivision(c)
    x = combo(c, ks)
    hit = [i for i, cell in enumerate(sub.cells) if contains(cell, x)]
    assert hit
    target = lambda_max(c, x).value
    for i in hit:
        phi, beta = sub.functionals[i]
        assert Fraction(pair(phi, x)) / beta == target

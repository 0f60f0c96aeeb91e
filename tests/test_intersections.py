from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixtures import p1xp1_fan, p2_fan, p112_fan
from oracles import cone_minima, edge_lengths
from toricva.divisors import Divisor, canonical_divisor, local_data, local_offsets
from toricva.intersections import is_nef, wall_value, wall_values


def wall_by_ray(fan, ray_index):
    return next(i for i, w in enumerate(fan.walls) if w.rays == (ray_index,))


def test_plane_hyperplane_values():
    fan = p2_fan()
    h = Divisor((1, 0, 0))
    assert wall_values(fan, h) == (1, 1, 1)
    assert wall_values(fan, 3 * h) == (3, 3, 3)
    assert is_nef(fan, h)
    assert not is_nef(fan, -h)


def test_plane_adjoint_boundary_case():
    fan = p2_fan()
    k = canonical_divisor(fan)
    assert wall_values(fan, Divisor((2, 0, 0)) + k) == (-1, -1, -1)
    assert wall_values(fan, Divisor((3, 0, 0)) + k) == (0, 0, 0)
    assert is_nef(fan, Divisor((3, 0, 0)) + k)


def test_weighted_plane_values():
    fan = p112_fan()
    d1 = Divisor((1, 0, 0))
    vals = wall_values(fan, d1)
    assert vals[wall_by_ray(fan, 0)] == Fraction(1, 2)
    assert vals[wall_by_ray(fan, 1)] == Fraction(1, 2)
    assert vals[wall_by_ray(fan, 2)] == 1
    assert is_nef(fan, d1)

    adj = wall_values(fan, d1 + canonical_divisor(fan))
    assert adj[wall_by_ray(fan, 1)] == Fraction(-3, 2)
    assert adj[wall_by_ray(fan, 2)] == -3
    assert not is_nef(fan, d1 + canonical_divisor(fan))


def test_weighted_plane_cone_minima():
    fan = p112_fan()
    d1 = Divisor((1, 0, 0))
    k = canonical_divisor(fan)
    cm = cone_minima(fan, d1, k, 1)
    assert cm.first == Fraction(1, 2)
    assert cm.second == -3
    cm0 = cone_minima(fan, d1, k, 0)
    assert cm0.first == Fraction(1, 2)
    assert cm0.second == Fraction(-3, 2)


def test_edge_lengths_plane():
    fan = p2_fan()
    for e in edge_lengths(fan, Divisor((3, 0, 0))):
        assert e.value == 3 and e.length == 3


def test_edge_lengths_weighted_plane():
    fan = p112_fan()
    les = edge_lengths(fan, 2 * Divisor((1, 0, 0)))
    got = {fan.walls[e.wall_index].rays[0]: e.length for e in les}
    assert got == {0: 1, 1: 1, 2: 2}
    # Rational lengths are fine for divisors that are merely q-Cartier.
    half = {e.length for e in edge_lengths(fan, Divisor((1, 0, 0)))}
    assert half == {Fraction(1, 2), 1}


def test_edge_lengths_require_nef():
    fan = p2_fan()
    with pytest.raises(ValueError):
        edge_lengths(fan, Divisor((2, 0, 0)) + canonical_divisor(fan))


coeff = st.integers(min_value=-5, max_value=5)


@given(st.lists(coeff, min_size=3, max_size=3))
def test_plane_values_measure_degree(cs):
    fan = p2_fan()
    assert wall_values(fan, Divisor(tuple(cs))) == (sum(cs),) * 3


@given(st.lists(coeff, min_size=4, max_size=4), st.lists(coeff, min_size=4, max_size=4))
def test_values_are_linear(cs, es):
    fan = p1xp1_fan()
    d, e = Divisor(tuple(cs)), Divisor(tuple(es))
    vd, ve, vsum = wall_values(fan, d), wall_values(fan, e), wall_values(fan, d + e)
    assert tuple(a + b for a, b in zip(vd, ve)) == vsum


@given(st.lists(coeff, min_size=4, max_size=4))
def test_product_nef_criterion(cs):
    # On the product of two lines, nef means both rulings meet nonnegatively.
    fan = p1xp1_fan()
    a, b, c, d = cs
    expected = a + c >= 0 and b + d >= 0
    assert is_nef(fan, Divisor(tuple(cs))) == expected


@given(st.lists(coeff, min_size=4, max_size=4))
def test_jump_parallel_to_wall_normal(cs):
    fan = p1xp1_fan()
    d = Divisor(tuple(cs))
    local = local_data(fan, d)
    for w, val in zip(fan.walls, wall_values(fan, d)):
        jump = local[w.tau] - local[w.sigma]
        assert jump == val * w.u


def test_wall_value_is_checked_from_both_sides():
    # a table whose offset on tau's far ray disagrees with the one on sigma's
    # gives the two sides two different values; a rank-2 wall has one ray
    # on each side
    fan = p2_fan()
    w = fan.walls[0]
    table = local_offsets(fan, Divisor((1, 0, 0)))[1]
    assert wall_value(table, w) == 1
    ((j, _),) = w.near
    es, q = table[w.tau]
    bent = list(table)
    bent[w.tau] = (tuple(e + (i == j) for i, e in enumerate(es)), q)
    with pytest.raises(RuntimeError, match="depends on the chosen outside ray"):
        wall_value(tuple(bent), w)

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixtures import p2_fan, p3_fan, p112_fan, quadric3_fan
from oracles import lp_bounded, subset_vertices
from toricva.divisors import (
    Divisor,
    NotQCartier,
    canonical_divisor,
    dprime_in_range,
    is_cartier,
    is_q_cartier,
    local_data,
    poly_contains,
    polytope,
    polytope_from_halfspaces,
    translated_polytope,
)
from toricva.linalg import M, N, vec


def test_divisor_arithmetic():
    d = Divisor((1, 0, -2))
    e = Divisor((Fraction(1, 2), 1, 0))
    assert (d + e).coeffs == (Fraction(3, 2), 1, -2)
    assert (-d).coeffs == (-1, 0, 2)
    assert (3 * e).coeffs == (Fraction(3, 2), 3, 0)
    assert d.scale(Fraction(1, 2)).coeffs == (Fraction(1, 2), 0, -1)
    with pytest.raises(ValueError):
        d + Divisor((1, 2))


def test_weighted_plane_local_data():
    fan = p112_fan()
    d1 = Divisor((1, 0, 0))
    us = local_data(fan, d1)
    assert us[0] == vec((Fraction(-1, 2), Fraction(-1, 2)), M)
    assert us[1] == vec((0, 0), M)
    assert us[2] == vec((-1, 0), M)
    assert is_q_cartier(fan, d1)
    assert not is_cartier(fan, d1)

    us2 = local_data(fan, 2 * d1)
    assert us2 == (vec((-1, -1), M), vec((0, 0), M), vec((-2, 0), M))
    assert is_cartier(fan, 2 * d1)


def test_quadric_cone_divisor_not_q_cartier():
    fan = quadric3_fan()
    with pytest.raises(NotQCartier) as exc:
        local_data(fan, Divisor((1, 0, 0, 0, 0)))
    assert exc.value.cone_index == 0
    assert not is_q_cartier(fan, Divisor((1, 0, 0, 0, 0)))
    # The anticanonical class is integral on every cone, square one included.
    assert is_cartier(fan, -canonical_divisor(fan))


def test_divisor_length_mismatch():
    with pytest.raises(ValueError):
        local_data(p2_fan(), Divisor((1, 0)))


def test_plane_polytope_vertices():
    fan = p2_fan()
    h = Divisor((1, 0, 0))
    p = polytope(fan, 3 * h)
    assert subset_vertices(p.halfspaces) == (vec((0, 0), M), vec((0, 3), M), vec((3, 0), M))
    assert poly_contains(p, vec((1, 1), M))
    assert not poly_contains(p, vec((2, 2), M))
    assert lp_bounded(p.halfspaces)


def test_empty_polytope():
    fan = p2_fan()
    p = polytope(fan, Divisor((-1, 0, 0)))
    assert subset_vertices(p.halfspaces) == ()
    assert not poly_contains(p, vec((0, 0), M))


def test_translated_polytope():
    fan = p2_fan()
    p = polytope(fan, Divisor((3, 0, 0)))
    us = local_data(fan, Divisor((3, 0, 0)))
    # Cone 1 is spanned by the rays at indices 0 and 2.
    shifted = translated_polytope(p, us[1])
    assert us[1] == vec((3, 0), M)
    vertices = subset_vertices(shifted.halfspaces)
    assert vertices == (vec((-3, 0), M), vec((-3, 3), M), vec((0, 0), M))
    offsets = {v.coords: d for v, d in shifted.halfspaces}
    assert offsets[(-1, -1)] == 0
    assert offsets[(1, 0)] == 3
    assert offsets[(0, 1)] == 0


def test_unbounded_region_detected():
    quadrant = polytope_from_halfspaces([(vec((1, 0), N), 0), (vec((0, 1), N), 0)])
    assert subset_vertices(quadrant.halfspaces) == (vec((0, 0), M),)
    assert not lp_bounded(quadrant.halfspaces)


def test_canonical_and_range():
    fan = p2_fan()
    k = canonical_divisor(fan)
    assert k.coeffs == (-1, -1, -1)
    assert dprime_in_range(fan, k)
    assert dprime_in_range(fan, Divisor((0, 0, 0)))
    assert dprime_in_range(fan, Divisor((Fraction(-1, 2), 0, -1)))
    assert not dprime_in_range(fan, Divisor((-2, 0, 0)))
    assert not dprime_in_range(fan, Divisor((Fraction(1, 2), 0, 0)))


coeff = st.integers(min_value=-4, max_value=4)


@given(st.lists(coeff, min_size=4, max_size=4), st.lists(coeff, min_size=4, max_size=4))
def test_local_data_is_linear(cs, es):
    fan = p3_fan()
    d, e = Divisor(tuple(cs)), Divisor(tuple(es))
    ud, ue, usum = local_data(fan, d), local_data(fan, e), local_data(fan, d + e)
    for a, b, c in zip(ud, ue, usum):
        assert a + b == c


@given(st.lists(coeff, min_size=3, max_size=3))
def test_local_data_solves_defining_equations(cs):
    fan = p2_fan()
    d = Divisor(tuple(cs))
    us = local_data(fan, d)
    from toricva.linalg import pair

    for ci, idxs in enumerate(fan.max_cones):
        for i in idxs:
            assert pair(us[ci], fan.rays[i]) == -d.coeffs[i]


@given(st.lists(coeff, min_size=3, max_size=3))
def test_polytope_vertices_lie_in_every_halfspace(cs):
    fan = p2_fan()
    p = polytope(fan, Divisor(tuple(cs)))
    for v in subset_vertices(p.halfspaces):
        assert poly_contains(p, v)

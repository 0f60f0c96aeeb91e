import pytest

from toricva.cones import dual_cone
from toricva.fans import build_fan
from toricva.linalg import N, pair, vec

from fixtures import p1xp1_fan, p2_fan, p3_fan, p112_fan, quadric3_fan


def nvecs(*coords):
    return [vec(c, N) for c in coords]


def test_p2_structure():
    fan = p2_fan()
    assert len(fan.walls) == 3
    for i in range(3):
        assert len(fan.walls_of(i)) == 2
    for w in fan.walls:
        assert len(w.rays) == 1
        assert len(w.outside) == 1


def test_p3_wall_count():
    fan = p3_fan()
    assert len(fan.walls) == 6
    for i in range(4):
        assert len(fan.walls_of(i)) == 3


def test_p1xp1_walls():
    fan = p1xp1_fan()
    assert len(fan.walls) == 4
    for i in range(4):
        assert len(fan.walls_of(i)) == 2


def test_wall_normal_orientation():
    fan = p112_fan()
    for i in range(3):
        for w in fan.walls_of(i):
            assert w.sigma == i
            for k in fan.max_cones[i]:
                assert pair(w.u, fan.rays[k]) >= 0
            for k in w.rays:
                assert pair(w.u, fan.rays[k]) == 0
            for k in w.outside:
                assert pair(w.u, fan.rays[k]) < 0


def test_flip_is_involutive():
    fan = p1xp1_fan()
    for w in fan.walls:
        f = fan.flip(w)
        assert fan.flip(f) == w
        assert f.u == -w.u


def test_quadric3_has_multi_candidate_walls():
    fan = quadric3_fan()
    assert len(fan.walls) == 8
    sizes = sorted(len(w.outside) for w in fan.walls_of(0))
    flipped = [fan.flip(w) for w in fan.walls if w.tau == 0] + [
        w for w in fan.walls if w.sigma == 0
    ]
    assert sizes == [1, 1, 1, 1]
    multi = [w for i in range(1, 5) for w in fan.walls_of(i) if len(w.outside) > 1]
    assert multi, "expected some wall with several far-side candidate rays"


def test_incomplete_fan_rejected():
    rays = nvecs((1, 0), (0, 1), (-1, 0))
    with pytest.raises(ValueError, match="fan not complete"):
        build_fan(rays, [(0, 1), (1, 2)], 2)


def test_overlapping_cones_rejected():
    rays = nvecs((1, 0), (0, 1), (1, 1), (-1, 1), (-1, -1), (1, -1))
    cones = [(0, 1), (2, 3), (3, 4), (4, 5), (5, 0)]
    with pytest.raises(ValueError, match="not a fan"):
        build_fan(rays, cones, 2)


def test_non_extreme_listed_ray_rejected():
    rays = nvecs((1, 0), (1, 1), (0, 1), (-1, -1))
    with pytest.raises(ValueError, match="non-extreme"):
        build_fan(rays, [(0, 1, 2), (2, 3), (3, 0)], 2)


def test_non_primitive_ray_rejected():
    rays = nvecs((2, 0), (0, 1), (-1, -1))
    with pytest.raises(ValueError, match="primitive"):
        build_fan(rays, [(0, 1), (1, 2), (2, 0)], 2)


def test_unused_ray_rejected():
    rays = nvecs((-1, -1), (1, 0), (0, 1), (1, 1))
    with pytest.raises(ValueError, match="not used"):
        build_fan(rays, [(1, 2), (0, 2), (0, 1)], 2)


def test_lower_dim_cone_rejected():
    rays = nvecs((1, 0), (-1, 0))
    with pytest.raises(ValueError, match="full-dimensional"):
        build_fan(rays, [(0,), (1,)], 2)


def test_empty_cone_named():
    rays = nvecs((1, 0), (0, 1), (-1, -1))
    with pytest.raises(ValueError, match="not a fan: cone 0 has no rays"):
        build_fan(rays, [[]], 2)
    with pytest.raises(ValueError, match="not a fan: cone 2 has no rays"):
        build_fan(rays, [(0, 1), (1, 2), ()], 2)


def test_cached_duals_leave_equality_and_hash_alone():
    fan, twin = quadric3_fan(), quadric3_fan()
    before = hash(fan)
    duals, sums = fan.duals, fan.coefficient_sums
    assert fan.duals is duals and fan.coefficient_sums is sums
    assert [d.rays for d in duals] == [dual_cone(c).rays for c in fan.cones]
    assert [s.cone for s in sums] == list(duals)
    assert fan == twin and hash(fan) == before == hash(twin)
    assert "duals" not in repr(fan)


def test_non_pointed_cone_named():
    rays = nvecs((1, 0), (0, 1), (-1, -1))
    with pytest.raises(ValueError, match="not a fan: cone 1 is not pointed"):
        build_fan(rays, [(0, 1), (0, 1, 2)], 2)

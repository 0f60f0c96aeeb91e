import dataclasses
import random
import re

import pytest

from oracles import pairwise_face_check, reference_fan_check, walls_of
from toricva import fans
from toricva.cones import cone_from_generators, dual_cone
from toricva.fans import build_fan
from toricva.harness import BUILTINS, builtin, random_instance
from toricva.linalg import M, N, pair, primitivize, vec

from fixtures import (
    BUILTIN_ARGS,
    DOUBLE_WOUND_CONES,
    DOUBLE_WOUND_RAYS,
    SUSPENDED_CONES,
    SUSPENDED_RAYS,
    p1xp1_fan,
    p2_fan,
    p3_fan,
    p112_fan,
    quadric3_fan,
)


def nvecs(*coords):
    return [vec(c, N) for c in coords]


def test_p2_structure():
    fan = p2_fan()
    assert len(fan.walls) == 3
    for i in range(3):
        assert len(walls_of(fan, i)) == 2
    for w in fan.walls:
        assert len(w.rays) == 1
        assert len(w.far) == 1


def test_p3_wall_count():
    fan = p3_fan()
    assert len(fan.walls) == 6
    for i in range(4):
        assert len(walls_of(fan, i)) == 3


def test_p1xp1_walls():
    fan = p1xp1_fan()
    assert len(fan.walls) == 4
    for i in range(4):
        assert len(walls_of(fan, i)) == 2


def test_wall_normal_orientation():
    fan = p112_fan()
    for i in range(3):
        for w in walls_of(fan, i):
            assert w.sigma == i
            for k in fan.max_cones[i]:
                assert pair(w.u, fan.rays[k]) >= 0
            for k in w.rays:
                assert pair(w.u, fan.rays[k]) == 0
            for k, weight in w.far:
                assert pair(w.u, fan.rays[k]) == -weight < 0


def test_quadric3_has_multi_candidate_walls():
    fan = quadric3_fan()
    assert len(fan.walls) == 8
    sizes = sorted(len(w.far) for w in walls_of(fan, 0))
    assert sizes == [1, 1, 1, 1]
    multi = [w for i in range(1, 5) for w in walls_of(fan, i) if len(w.far) > 1]
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


def test_rays_from_both_ambients_are_refused_naming_the_cone():
    # build_fan checks ranks, primitivity and duplicates on the whole ray
    # list; the first cone whose rays mix N and M is refused by the cone
    # kernel, named by its index
    plane = [(0, 1), (1, 2), (2, 0)]
    for ambients, message in (("NMN", "cone 0"), ("NNM", "cone 1")):
        rays = [vec(r, a) for r, a in zip([(1, 0), (0, 1), (-1, -1)], ambients)]
        with pytest.raises(ValueError, match=f"^{message}: generators must share ambient and rank$"):
            build_fan(rays, plane, 2)
    # in rank 1 no cone mixes them, and the one wall's normals do not match
    with pytest.raises(ValueError, match="^not a fan: shared facet normals are not opposite$"):
        build_fan([vec((1,), N), vec((-1,), M)], [(0,), (1,)], 1)


def test_same_side_facets_are_refused():
    rays = nvecs((1, 0), (0, 1), (1, 1))
    with pytest.raises(ValueError, match="^not a fan: shared facet normals are not opposite$"):
        build_fan(rays, [(0, 1), (0, 2)], 2)


def test_cached_duals_leave_equality_and_hash_alone():
    fan, twin = quadric3_fan(), quadric3_fan()
    before = hash(fan)
    duals, sums = fan.duals, fan.coefficient_sums
    assert fan.duals is duals and fan.coefficient_sums is sums
    assert [d.rays for d in duals] == [dual_cone(c).rays for c in fan.cones]
    assert [s.cone for s in sums] == list(duals)
    assert fan == twin and hash(fan) == before == hash(twin)
    assert "duals" not in repr(fan)


def test_cached_hilbert_bases_are_the_duals_bases(monkeypatch):
    fan = quadric3_fan()
    before = hash(fan)
    calls = []
    real = fans.hilbert_basis
    monkeypatch.setattr(fans, "hilbert_basis", lambda c: calls.append(c) or real(c))
    bases = fan.hilbert_bases
    assert fan.hilbert_bases is bases and calls == list(fan.duals)
    assert list(bases) == [real(d) for d in fan.duals]
    assert fan == quadric3_fan() and hash(fan) == before


def test_non_pointed_cone_named():
    rays = nvecs((1, 0), (0, 1), (-1, -1))
    with pytest.raises(ValueError, match="not a fan: cone 1 is not pointed"):
        build_fan(rays, [(0, 1), (0, 1, 2)], 2)


def test_overlapping_cones_named():
    # The facet of cone 0 on (0, 1) has no partner, and (0, 1) lies in cone 1.
    rays = nvecs((1, 0), (0, 1), (1, 1), (-1, 1), (-1, -1), (1, -1))
    cones = [(0, 1), (2, 3), (3, 4), (4, 5), (5, 0)]
    with pytest.raises(ValueError, match="^not a fan: cones 0 and 1 overlap$"):
        build_fan(rays, cones, 2)


def test_double_wound_fan_has_covering_degree_two():
    rays = nvecs(*DOUBLE_WOUND_RAYS)
    with pytest.raises(ValueError, match="^not a fan: cones 0 and 3 overlap$"):
        build_fan(rays, DOUBLE_WOUND_CONES, 2)
    cones = [cone_from_generators([rays[i] for i in c]) for c in DOUBLE_WOUND_CONES]
    assert pairwise_face_check(cones) == (0, 2)


def test_suspended_double_wound_fan_has_covering_degree_two():
    rays = nvecs(*SUSPENDED_RAYS)
    with pytest.raises(ValueError, match="^not a fan: cones 0 and 3 overlap$"):
        build_fan(rays, SUSPENDED_CONES, 3)
    assert reference_fan_check(rays, SUSPENDED_CONES, 3) is not None


def test_disconnected_wall_graph_is_an_overlap():
    # Two complete fans on disjoint rays: every facet matched, two wall
    # components, each covering the plane once.
    rays = nvecs((1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1))
    cones = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    with pytest.raises(ValueError, match="^not a fan: cones 0 and 4 overlap$"):
        build_fan(rays, cones, 2)


def test_internal_wall_error_names_its_wall(monkeypatch):
    # Outer instead of inner facet normals leave the facets matched but put
    # every far-side ray on the wrong side of the wall normal.
    real = fans.cone_from_generators

    def outward(gens):
        c = real(gens)
        return dataclasses.replace(c, facet_normals=tuple(-f for f in c.facet_normals))

    monkeypatch.setattr(fans, "cone_from_generators", outward)
    with pytest.raises(RuntimeError, match=r"^internal: wall \(0,\) of cones 1 and 2: normal"):
        p2_fan()


def _cyclic_order(fan):
    """The rays of a rank-2 fan in the order its cones meet them."""
    order = list(fan.max_cones[0])
    while len(order) < len(fan.rays):
        a, b = next(c for c in fan.max_cones if order[-1] in c and order[-2] not in c)
        order.append(a + b - order[-1])
    return order


def _strictly_between(u, w, v):
    """Is w in the interior of the rank-2 cone spanned by u and v?"""
    def det(a, b):
        return a.coords[0] * b.coords[1] - a.coords[1] * b.coords[0]

    return det(u, w) * det(u, v) > 0 and det(w, v) * det(u, v) > 0


def _mutations(fan, rng):
    """Seeded bad variants of a complete fan: one cone dropped, one ray of a
    cone swapped for an interior point of a neighbour, and, in rank 2 with
    at least five cones, every second ray joined so the cones cover the
    plane twice."""
    rays, cones = list(fan.rays), list(fan.max_cones)
    k = rng.randrange(len(cones))
    yield "drop", rays, cones[:k] + cones[k + 1:]
    wall = rng.choice(walls_of(fan, k))
    inside = primitivize(sum((rays[i] for i in cones[wall.tau]), rays[0].scale(0)))
    out = rng.choice(cones[k])
    swapped = [i for i in cones[k] if i != out] + [len(rays)]
    yield "swap", rays + [inside], cones[:k] + [tuple(swapped)] + cones[k + 1:]
    if fan.rank == 2 and len(cones) >= 5:
        order = _cyclic_order(fan)
        m = len(order)
        wound = [(order[i], order[(i + 2) % m]) for i in range(m)]
        # Only if each new cone holds the ray it skips, so facets stay matched.
        if all(_strictly_between(*(rays[order[(i + j) % m]] for j in range(3))) for i in range(m)):
            yield "wind", rays, wound


def test_build_fan_matches_pairwise_oracle():
    """The covering-degree test accepts and rejects exactly what the pairwise
    common-face scan does, on the pools, every builtin and seeded mutations."""
    pool = [random_instance(2, s).fan for s in range(130)]
    pool += [random_instance(3, s).fan for s in range(30)]
    assert set(BUILTIN_ARGS) == set(BUILTINS)
    named = [builtin(name, args).fan for name, calls in BUILTIN_ARGS.items() for args in calls]
    named += [p2_fan(), p112_fan(), p1xp1_fan(), p3_fan(), quadric3_fan()]
    cases = [("complete", f.rays, f.max_cones) for f in pool + named]
    rng = random.Random("toricva:fan-mutations")
    for f in pool:
        cases += list(_mutations(f, rng))
    cases += [
        ("crafted", nvecs(*DOUBLE_WOUND_RAYS), DOUBLE_WOUND_CONES),
        ("crafted", nvecs(*SUSPENDED_RAYS), SUSPENDED_CONES),
    ]
    seen = {"complete": 0, "drop": 0, "swap": 0, "wind": 0, "crafted": 0}
    for kind, rays, cones in cases:
        rank = rays[0].rank
        try:
            build_fan(rays, cones, rank)
            verdict = None
        except ValueError as e:
            verdict = str(e)
            assert verdict.startswith(("not a fan", "fan not complete")), (kind, verdict)
        expected = reference_fan_check(rays, cones, rank)
        assert (verdict is None) == (expected is None), (kind, rays, cones, verdict, expected)
        assert (verdict is None) == (kind == "complete"), (kind, rays, cones, verdict)
        seen[kind] += 1
        if kind == "wind":
            # every facet is matched, so only the covering degree rejects
            assert verdict.startswith("not a fan: cones 0 and "), verdict
    assert seen == {"complete": 174, "drop": 160, "swap": 160, "wind": 9, "crafted": 2}, seen


_PLANE_RAYS = [(1, 0), (0, 1), (-1, -1)]
_PLANE_CONES = [(0, 1), (1, 2), (2, 0)]


@pytest.mark.parametrize(
    "rays, cones, message",
    [
        ([], _PLANE_CONES, "not a fan: no rays"),
        ([(1, 0), (0, 1, 0), (-1, -1)], _PLANE_CONES, "not a fan: ray 1 has rank 3, expected 2"),
        (_PLANE_RAYS + [(0, 1)], _PLANE_CONES, "not a fan: duplicate rays"),
        (_PLANE_RAYS, [], "not a fan: no maximal cones"),
        (_PLANE_RAYS, _PLANE_CONES + [(1, 0)], "not a fan: duplicate maximal cones"),
        (
            [(1, 0), (0, 1), (0, -1), (1, 1)],
            [(0, 1), (0, 2), (0, 3)],
            "not a fan: a facet is shared by more than two cones",
        ),
    ],
    ids=["no-rays", "ray-rank", "duplicate-rays", "no-cones", "duplicate-cones", "three-owners"],
)
def test_malformed_fan_data_is_refused(rays, cones, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_fan([vec(r, N) for r in rays], cones, 2)

"""Statement checks on frozen instances plus seeded random ones."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    POLYGONS,
    PRODUCTS,
    p1xp1_fan,
    p2_fan,
    p3_fan,
    p112_fan,
    product_vertices,
    quadric3_fan,
    rectangle_fan,
)
from oracles import poly_contains, polytope, subset_vertices, wall_value
from toricva import cones, divisors, harness, intersections, lambdas
from toricva.cones import classify, contains
from toricva.divisors import (
    Divisor,
    NotQCartier,
    canonical_divisor,
    dprime_in_range,
    local_data,
)
from toricva.harness import (
    BUILTINS,
    MAX_BOX_POINTS,
    STATEMENTS,
    CheckReport,
    ConeData,
    Failure,
    Hypothesis,
    Instance,
    builtin,
    check_corner_containment,
    check_generation,
    check_interior_bound,
    check_nef_excluding_pspace,
    check_nef_threshold,
    check_nonregular_bound,
    check_wall_bound,
    ew_simplex,
    hirzebruch,
    intro_simplex,
    is_projective_space,
    polytope_fan,
    product_p1,
    projective_space,
    random_instance,
    weighted_112,
)
from toricva.fans import build_fan
from toricva.intersections import is_nef
from toricva.linalg import M, vec


def hyp(report, name):
    matches = [h for h in report.hypotheses if h.name == name]
    assert len(matches) == 1
    return matches[0]


def test_projective_space_recognition():
    assert is_projective_space(p2_fan())
    assert is_projective_space(p3_fan())
    assert is_projective_space(projective_space(4).fan)
    assert not is_projective_space(p112_fan())
    assert not is_projective_space(p1xp1_fan())
    assert not is_projective_space(quadric3_fan())


def test_instance_validates_lengths():
    fan = p2_fan()
    with pytest.raises(ValueError):
        Instance(fan, Divisor((1, 0)), canonical_divisor(fan), "bad")


def test_generation_intro_corner():
    inst = builtin("intro_simplex_2d", (3,))
    assert [r.coords for r in inst.fan.rays] == [(-1, 0), (0, 1), (2, -1)]
    assert inst.d.coeffs == (3, 0, 0)
    assert inst.dprime.coeffs == (0, -1, -1)
    rep = check_generation(inst)
    assert rep.status == "pass"
    assert rep.applicable
    assert any("very ample" in n for n in rep.notes)


def test_generation_ew_simplex():
    rep = check_generation(ew_simplex(4))
    assert rep.status == "pass"
    assert hyp(rep, "wall_values_meet_threshold").detail == "minimum wall value 4, threshold 4"


def test_generation_intro_3d():
    rep = check_generation(builtin("intro_simplex_3d", (4,)))
    assert rep.status == "pass"


def test_generation_projective_plane_is_excluded_and_sharp():
    rep = check_generation(projective_space(2, 3))
    assert rep.status == "not_applicable"
    assert not hyp(rep, "fan_is_not_projective_space").holds
    # the raw conclusion fails on every cone: the statement is sharp there
    assert rep.conclusion is False
    assert len(rep.failures) == 3
    assert all(f.kind == "cone" for f in rep.failures)
    assert all("missing semigroup generator" in f.message for f in rep.failures)


def test_generation_without_local_data_has_no_conclusion():
    fan = quadric3_fan()
    inst = Instance(fan, Divisor((1, 0, 0, 0, 0)), canonical_divisor(fan), "quadric")
    rep = check_generation(inst)
    assert rep.status == "not_applicable"
    assert not hyp(rep, "base_divisor_q_cartier").holds
    assert "cone 0" in hyp(rep, "base_divisor_q_cartier").detail
    assert rep.conclusion is None


def test_nef_sharp_on_product():
    rep = check_nef_excluding_pspace(product_p1(2, 2))
    assert rep.status == "pass"


def test_nef_sharp_on_weighted_surface():
    rep = check_nef_excluding_pspace(weighted_112(4))
    assert rep.status == "pass"
    assert hyp(rep, "wall_values_meet_threshold").detail == "minimum wall value 2, threshold 2"


def test_nef_sharp_excludes_projective_space():
    rep = check_nef_excluding_pspace(projective_space(2, 2))
    assert rep.status == "not_applicable"
    assert rep.conclusion is False
    assert len(rep.failures) == 3
    assert all(f.kind == "wall" for f in rep.failures)


def test_nef_threshold_on_projective_spaces():
    assert check_nef_threshold(projective_space(2, 3)).status == "pass"
    assert check_nef_threshold(projective_space(3)).status == "pass"


def test_nef_threshold_below_threshold_fails_raw():
    rep = check_nef_threshold(weighted_112())
    assert rep.status == "not_applicable"
    assert not hyp(rep, "wall_values_meet_threshold").holds
    assert rep.conclusion is False


def test_wall_bound_matches_singular_surface_remark():
    rep = check_wall_bound(weighted_112(), 1)
    assert rep.status == "not_applicable"
    cd = rep.cone_data[0]
    assert cd.cone_index == 1
    assert cd.t == Fraction(1, 2)
    assert cd.m == -3
    assert cd.lambda_min_dual == 2
    th = hyp(rep, "threshold")
    assert not th.holds
    assert th.detail == "t = 1/2, lambda_min = 2"
    # the bound itself genuinely fails here: -3 < 1/2 - 2 - 1
    assert rep.conclusion is False


def test_wall_bound_on_plane():
    inst = projective_space(2, 4)
    for sigma in range(3):
        rep = check_wall_bound(inst, sigma)
        assert rep.status == "pass"
        cd = rep.cone_data[0]
        assert cd.t == 4
        assert cd.m == 1
        assert cd.lambda_min_dual == 2


def test_wall_bound_local_variant():
    rep = check_wall_bound(weighted_112(), 1, r=2)
    assert rep.status == "not_applicable"
    assert hyp(rep, "perturbation_nonpositive_on_cone").holds
    assert hyp(rep, "adjacent_cones_have_floor_ray").holds
    assert not hyp(rep, "threshold").holds
    # with r = 2 the raw inequality holds: -3 >= 1/2 - 2 - 2
    assert rep.conclusion is True

    rep = check_wall_bound(weighted_112(), 1, r=Fraction(1, 2))
    assert not hyp(rep, "adjacent_cones_have_floor_ray").holds


def test_wall_bound_rejects_bad_inputs():
    inst = weighted_112()
    with pytest.raises(ValueError):
        check_wall_bound(inst, 1, r=0)
    with pytest.raises(ValueError):
        check_wall_bound(inst, 7)
    bad = Instance(inst.fan, Divisor((-1, 0, 0)), inst.dprime, "bad")
    with pytest.raises(ValueError):
        check_wall_bound(bad, 0)


@pytest.mark.parametrize("r", [None, 1])
def test_wall_bound_with_the_perturbation_outside_the_dual_cone(r):
    # D' is 1 on a ray of sigma, so u'_sigma pairs to -1 with it
    inst = projective_space(2, 4)
    ray = inst.fan.max_cones[0][0]
    dprime = Divisor(tuple(int(i == ray) for i in range(len(inst.fan.rays))))
    rep = check_wall_bound(Instance(inst.fan, inst.d, dprime, "outside"), 0, r)
    assert rep.status == "not_applicable"
    assert rep.conclusion is None
    assert rep.failures == ()
    assert rep.cone_data[0].lambda_min_dual is None
    th = hyp(rep, "threshold")
    assert not th.holds
    assert th.detail == "perturbation's local point lies outside the dual cone"


def test_corner_containment_on_generation_examples():
    for inst in (builtin("intro_simplex_2d", (3,)), ew_simplex(4)):
        rep = check_corner_containment(inst)
        assert rep.status == "pass"


def test_corner_containment_sharp_on_plane():
    rep = check_corner_containment(projective_space(2, 3))
    assert rep.status == "not_applicable"
    assert rep.conclusion is False
    # each of the three shifted polytopes holds the origin but misses both dual rays
    assert len(rep.failures) == 6


def test_interior_bound_on_ew_simplex():
    inst = ew_simplex(4)
    for sigma in range(len(inst.fan.max_cones)):
        rep = check_interior_bound(inst, sigma, bound=3)
        assert rep.status == "pass"
        assert rep.cone_data[0].lambda_max_dual <= Fraction(3, 2)
        assert any("interior lattice points" in n for n in rep.notes)


def test_interior_bound_zero_perturbation():
    fan = p2_fan()
    inst = Instance(fan, Divisor((1, 0, 0)), Divisor((0, 0, 0)), "zero")
    rep = check_interior_bound(inst, 0, bound=3)
    assert rep.status == "pass"
    assert rep.cone_data[0].lambda_max_dual == 0


def test_interior_bound_reports_failing_points():
    # outside the range hypothesis, lambda_max = 4 at the perturbation's
    # local point and three interior points of the dual weigh less
    inst = Instance(p2_fan(), Divisor((1, 0, 0)), Divisor((-2, -2, -2)), "p2")
    rep = check_interior_bound(inst, 0, bound=3)
    assert rep == CheckReport(
        "interior-point-bound",
        "p2",
        (
            Hypothesis("perturbation_q_cartier", True),
            Hypothesis("perturbation_between_zero_and_canonical", False),
        ),
        False,
        tuple(
            Failure("cone", 0, f"interior point {z} has smaller maximum sum")
            for z in ((1, 1), (1, 2), (2, 1))
        ),
        (ConeData(0, None, None, 4, 4),),
        ("checked 9 interior lattice points with coordinate bound 3",),
    )
    assert rep.status == "not_applicable"


def test_nonregular_bound_on_weighted_surface():
    inst = weighted_112()
    rep = check_nonregular_bound(inst, 0)
    assert rep.status == "pass"
    assert rep.cone_data[0].lambda_min_dual == 1

    for sigma in (1, 2):
        rep = check_nonregular_bound(inst, sigma)
        assert rep.status == "not_applicable"
        assert not hyp(rep, "cone_not_regular").holds
        # on the regular cones the bound genuinely fails: lambda_min = 2 > 1
        assert rep.conclusion is False


def test_nonregular_bound_on_quadric_cone():
    fan = quadric3_fan()
    inst = Instance(fan, Divisor((0,) * 5), canonical_divisor(fan), "quadric")
    rep = check_nonregular_bound(inst, 0)
    assert rep.status == "pass"
    assert rep.cone_data[0].lambda_min_dual == 2


def test_polytope_fan_roundtrip():
    pts = [vec((0, 0), M), vec((3, 0), M), vec((0, 3), M)]
    fan, d = polytope_fan(pts)
    p = polytope(fan, d)
    assert set(subset_vertices(p.halfspaces)) == set(pts)
    assert is_nef(fan, d)


@pytest.mark.parametrize("a, b", PRODUCTS)
def test_polygon_products_build_and_pass_the_global_statements(a, b):
    # the normal fan of a product of smooth polygons is smooth, and at 5
    # times the support divisor every wall value is at least 5 = rank + 1;
    # hexagon x hexagon's 36 vertices were past the subset scan's cap
    fan, base = polytope_fan(product_vertices(a, b))
    assert fan.rank == 4 and len(fan.rays) == len(POLYGONS[a]) + len(POLYGONS[b])
    assert len(fan.max_cones) == len(POLYGONS[a]) * len(POLYGONS[b])
    inst = Instance(fan, 5 * base, canonical_divisor(fan), f"{a} x {b}")
    assert min(inst.d_solve.values) == 5
    for check in (
        check_generation,
        check_nef_excluding_pspace,
        check_nef_threshold,
        check_corner_containment,
    ):
        assert check(inst).status == "pass", check.__name__


def test_builtin_registry():
    samples = {
        "projective_space": (2,),
        "weighted_112": (),
        "hirzebruch": (1, 2, 1, 2, 1),
        "product_p1": (1, 2),
        "intro_simplex_2d": (3,),
        "intro_simplex_3d": (4,),
        "ew_simplex": (4,),
    }
    assert set(samples) == set(BUILTINS)
    for name, args in samples.items():
        inst = builtin(name, args)
        assert len(inst.d.coeffs) == len(inst.fan.rays)
    with pytest.raises(ValueError):
        builtin("nonsense")
    with pytest.raises(ValueError):
        builtin("product_p1", (1,))


def test_hirzebruch_builder():
    inst = hirzebruch(1, (1, 1, 1, 1))
    assert len(inst.fan.max_cones) == 4
    with pytest.raises(ValueError):
        hirzebruch(-1, (1, 1, 1, 1))


def test_polytope_shrinks_with_nonpositive_perturbation():
    # adding a nonpositive divisor can only cut the polytope down
    for n in (2, 3):
        for t in (n + 1, n + 2):
            inst = projective_space(n, t)
            big = polytope(inst.fan, inst.d)
            small = polytope(inst.fan, inst.d + inst.dprime)
            for v in subset_vertices(small.halfspaces):
                assert poly_contains(big, v)
            # but it shrinks strictly more than one ample step here
            step = polytope(inst.fan, Divisor((t - 1,) + (0,) * n))
            assert any(not poly_contains(small, v) for v in subset_vertices(step.halfspaces))


def test_random_instance_frozen_seed():
    inst = random_instance(2, 1)
    assert [r.coords for r in inst.fan.rays] == [(-3, 2), (-1, -5), (0, 1), (4, 1)]
    assert inst.d.coeffs == (24, -9, 12, 36)
    assert inst.dprime.coeffs == (0, -1, 0, 0)
    again = random_instance(2, 1)
    assert again.fan.rays == inst.fan.rays
    assert again.d == inst.d and again.dprime == inst.dprime


def test_random_instance_rejects_bad_dimension():
    with pytest.raises(ValueError):
        random_instance(4, 0)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 200), st.sampled_from([2, 3]))
def test_random_instance_contract(seed, dim):
    inst = random_instance(dim, seed)
    fan = inst.fan
    assert all(classify(c).simplicial for c in fan.cones)
    assert dprime_in_range(fan, inst.dprime)
    local = local_data(fan, inst.d)
    target = dim + 1
    assert min(wall_value(fan, local, w) for w in fan.walls) >= target
    rep = check_nef_threshold(inst)
    ok = {h.name for h in rep.hypotheses if not h.holds}
    assert ok == set()
    assert rep.status == "pass"


def test_interior_bound_rejects_nonpositive_bound():
    inst = ew_simplex(4)
    for bound in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            check_interior_bound(inst, 0, bound=bound)


def test_interior_bound_refuses_a_box_over_the_cap():
    inst = ew_simplex(4)  # rank 3
    assert (2 * 49 + 1) ** 3 < MAX_BOX_POINTS < (2 * 50 + 1) ** 3
    message = f"asks for 1030301 box points in rank 3, more than {MAX_BOX_POINTS}"
    with pytest.raises(ValueError, match=message):
        check_interior_bound(inst, 0, bound=50)
    with pytest.raises(ValueError, match="box points"):
        check_interior_bound(inst, 0, bound=10**12)


def test_each_divisor_is_solved_once_per_instance(monkeypatch):
    # building a fresh simplicial fan and running all seven statements on
    # every cone eliminates once per maximal cone, in cone_from_generators:
    # the fan's local data, the duals, their coefficient sums and Hilbert
    # bases reuse that inverse.  D, D' and D+D' are solved once each: one
    # offset table and one value per wall read off it for each divisor
    seeded = random_instance(3, 1)
    counts = {"integer_left_inverse": 0, "local_offsets": 0, "wall_value": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(cones, "integer_left_inverse")
    counted(divisors, "local_offsets")
    counted(intersections, "local_offsets")
    counted(intersections, "wall_value")
    fan = build_fan(seeded.fan.rays, seeded.fan.max_cones, seeded.fan.rank)
    inst = Instance(fan, seeded.d, seeded.dprime, seeded.label)
    m, walls = len(fan.max_cones), len(fan.walls)
    assert all(len(c.rays) == fan.rank for c in fan.cones)
    for statement in STATEMENTS.values():
        if statement.per_cone:
            for ci in range(m):
                statement.check(inst, ci)
        else:
            statement.check(inst)
    assert counts == {"integer_left_inverse": m, "local_offsets": 3, "wall_value": 3 * walls}


def test_each_hypothesis_is_evaluated_once_per_instance(monkeypatch):
    # all seven statements on every cone read the coefficient range of D'
    # and the projective-space test from the instance's tables
    counts = Counter()
    for name in ("dprime_in_range", "is_projective_space"):

        def counted(*args, name=name, real=getattr(harness, name)):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(harness, name, counted)
    for inst in (random_instance(3, 1), projective_space(2)):
        counts.clear()
        for statement in STATEMENTS.values():
            if statement.per_cone:
                for ci in range(len(inst.fan.max_cones)):
                    statement.check(inst, ci)
            else:
                statement.check(inst)
        assert counts == {"dprime_in_range": 1, "is_projective_space": 1}, inst.label


def test_cached_solves_leave_equality_and_hash_alone():
    inst, twin = weighted_112(), weighted_112()
    before = hash(inst)
    solves = (inst.d_solve, inst.dprime_solve, inst.total_solve)
    again = (inst.d_solve, inst.dprime_solve, inst.total_solve)
    assert all(a is b for a, b in zip(solves, again))
    assert solves[0].local == local_data(inst.fan, inst.d)
    assert solves[2].values == tuple(
        wall_value(inst.fan, solves[2].local, w) for w in inst.fan.walls
    )
    assert inst == twin and hash(inst) == before == hash(twin)
    assert "solve" not in repr(inst)


def test_solve_names_the_first_cone_without_local_data():
    fan = quadric3_fan()
    inst = Instance(fan, Divisor((1, 0, 0, 0, 0)), canonical_divisor(fan), "quadric")
    solved = inst.d_solve
    assert (solved.local, solved.values, solved.nef, solved.missing) == (None, (), None, 0)
    with pytest.raises(NotQCartier, match="cone 0"):
        solved.checked()
    assert inst.dprime_solve.checked() is inst.dprime_solve


def test_perturbation_sums_are_evaluated_once_per_cone(monkeypatch):
    # all seven statements on every cone read D''s coefficient sums from one
    # per-instance table: the one entry point for both sums runs once per
    # cone whose dual holds the local point (interior-bound's box points
    # need lambda_max only)
    inst = random_instance(3, 1)
    m = len(inst.fan.max_cones)
    held = [i for i, (dual, u) in enumerate(zip(inst.fan.duals, inst.dprime_solve.local))
            if contains(dual, u)]
    assert len(held) == m
    inst.fan.coefficient_sums  # the constructors' own self-checks run first
    calls = []
    real = lambdas.CoefficientSums.extremes

    def counted(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(lambdas.CoefficientSums, "extremes", counted)
    for statement in STATEMENTS.values():
        if statement.per_cone:
            for ci in range(m):
                statement.check(inst, ci)
        else:
            statement.check(inst)
    assert calls == [inst.dprime_solve.local[i] for i in held]
    assert inst.dprime_sums == tuple(
        (sums.minimum(u).value, sums.maximum(u).value)
        for sums, u in zip(inst.fan.coefficient_sums, inst.dprime_solve.local)
    )


def test_a_multi_cell_dual_keeps_both_perturbation_sums():
    # the rectangle fan: the canonical divisor's u' = (0, 0, 1) lies inside
    # the dual of the cone over the rectangle, whose rays lie on no common
    # hyperplane, and its sums there are 1 and 2
    fan = rectangle_fan()
    inst = Instance(fan, Divisor((0,) * 5), canonical_divisor(fan), "rectangle")
    sums, u = fan.coefficient_sums[0], inst.dprime_solve.local[0]
    assert u == vec((0, 0, 1), M) and not sums.one_cell
    assert inst.dprime_sums[0] == (1, 2)
    assert inst.dprime_sums[0] == (sums.minimum(u).value, sums.maximum(u).value)
    assert all(fan.coefficient_sums[ci].one_cell for ci in range(1, 5))


def test_wall_bound_refuses_a_non_q_cartier_perturbation_before_its_sums():
    fan = quadric3_fan()
    inst = Instance(fan, Divisor((0,) * 5), Divisor((1, 0, 0, 0, 0)), "quadric")
    with pytest.raises(NotQCartier, match="cone 0"):
        check_wall_bound(inst, 0)
    assert "dprime_sums" not in vars(inst)
    assert inst.dprime_sums == ((None, None),) * len(fan.max_cones)

"""Acceptance gate: every criterion runs here, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the printed
criterion lines on success; they always appear in failure output).
"""

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from fixtures import BUILTIN_ARGS, p1xp1_fan, p2_fan, p3_fan, p112_fan, quadric3_fan
from oracles import (
    box_interior_points,
    box_scan_generation,
    cone_minima,
    edge_lengths,
    generates,
    lambda_max,
    lambda_min,
    matches_lp_oracle,
    poly_contains,
    polytope,
    rational_coefficient_sum,
    reference_hilbert_basis,
    reference_dual_cone,
    semigroup_member,
    simplex_lattice_points,
    solve_exact,
    strictly_inside,
    sum_range,
    translated_polytope,
    wall_value,
    walls_of,
)
from toricva.cones import classify, cone_from_generators, contains, dual_cone
from toricva.divisors import (
    Divisor,
    NotQCartier,
    canonical_divisor,
    in_shifted_polytope,
    local_data,
)
from toricva.fans import build_fan
from toricva.harness import (
    BUILTINS,
    Instance,
    builtin,
    check_corner_containment,
    check_generation,
    check_interior_bound,
    check_nef_excluding_pspace,
    check_nef_threshold,
    check_nonregular_bound,
    check_wall_bound,
    generation_scan,
    interior_points,
    projective_space,
    random_instance,
    weighted_112,
)
from toricva.intersections import is_nef, solve_divisor, wall_values
from toricva.linalg import M, N, vec
from toricva.semigroups import hilbert_basis


@pytest.fixture(scope="module")
def pool2():
    return [random_instance(2, s) for s in range(130)]


@pytest.fixture(scope="module")
def pool3():
    return [random_instance(3, s) for s in range(30)]


def _ok(n, detail):
    print(f"criterion {n}: PASS ({detail})")


def test_criterion_01_weighted_surface_exact_values():
    start = time.monotonic()
    inst = weighted_112()
    rep = check_wall_bound(inst, 1)
    cd = rep.cone_data[0]
    assert cd.t == Fraction(1, 2)
    assert cd.lambda_min_dual == 2
    assert cd.m == -3
    # outside the threshold hypothesis the bound genuinely fails
    assert rep.status == "not_applicable"
    assert rep.conclusion is False
    assert Fraction(-3) < Fraction(1, 2) - 2 - 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _ok(1, f"t=1/2, lambda_min=2, m=-3 in {elapsed:.2f}s")


def test_criterion_02_skew_simplex_semigroup_gap():
    start = time.monotonic()
    u1, u2, u3 = vec((1, 0, 0), M), vec((0, 1, 0), M), vec((1, 1, 2), M)
    c = cone_from_generators([u1, u2, u3])
    delta = simplex_lattice_points(c, 1)
    assert set(delta) == {vec((0, 0, 0), M), u1, u2, u3}
    hb = hilbert_basis(c)
    assert vec((1, 1, 1), M) in hb
    res = generates(delta, c)
    assert not res.generates
    assert res.witness == vec((1, 1, 1), M)
    # exhaustively: the generated semigroup hits exactly the even third
    # coordinates, out to coordinate bound 6
    gens = [p for p in delta if not p.is_zero]
    psi = vec((1, 1, 1), N)  # positive on the cone, integer on lattice points
    checked = 0
    for coords in product(range(7), repeat=3):
        x = vec(coords, M)
        if not contains(c, x) or x.is_zero:
            continue
        budget = sum(a * b for a, b in zip(psi.coords, coords))
        member = semigroup_member(gens, x, int(budget))
        assert member == (coords[2] % 2 == 0), coords
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _ok(2, f"witness (1,1,1), {checked} points parity-checked in {elapsed:.2f}s")


def test_criterion_03_wall_identity_and_edge_lengths(pool2, pool3):
    start = time.monotonic()
    instances = pool2[:35] + pool3[:15]
    walls = edges = 0
    for inst in instances:
        fan = inst.fan
        local = local_data(fan, inst.d)
        assert is_nef(fan, inst.d)
        for w, value in zip(fan.walls, wall_values(fan, inst.d)):
            assert local[w.tau] - local[w.sigma] == value * w.u
            walls += 1
        for e in edge_lengths(fan, inst.d):
            assert e.value == e.length
            edges += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _ok(3, f"{len(instances)} instances, {walls} walls, {edges} edges in {elapsed:.1f}s")


def test_criterion_04_wall_minimum_bound_fuzz(pool2, pool3):
    start = time.monotonic()
    applicable = 0
    local_variant = {Fraction(1, 2): 0, Fraction(2): 0}
    for inst in pool2[:60] + pool3:
        for sigma in range(len(inst.fan.max_cones)):
            rep = check_wall_bound(inst, sigma)
            if rep.applicable:
                applicable += 1
                assert rep.status == "pass", (inst.label, sigma)
            for r in local_variant:
                rep = check_wall_bound(inst, sigma, r)
                if rep.applicable:
                    local_variant[r] += 1
                    assert rep.status == "pass", (inst.label, sigma, r)
    assert applicable >= 100
    assert all(count > 0 for count in local_variant.values())
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _ok(
        4,
        f"{applicable} applicable cones, r-variants "
        f"{dict((str(k), v) for k, v in local_variant.items())} in {elapsed:.1f}s",
    )


def test_criterion_05_generation_end_to_end(pool2, pool3):
    start = time.monotonic()
    counts = {2: 0, 3: 0}
    cartier_very_ample = 0
    for dim, pool in ((2, pool2), (3, pool3)):
        for inst in pool:
            rep = check_generation(inst)
            if not rep.applicable:
                # only the projective-space exclusion may reject a pool instance
                bad = [h.name for h in rep.hypotheses if not h.holds]
                assert bad == ["fan_is_not_projective_space"], (inst.label, bad)
                continue
            counts[dim] += 1
            assert rep.status == "pass", (inst.label, rep.failures)
            if any("very ample" in n for n in rep.notes):
                cartier_very_ample += 1
    assert counts[2] >= 100
    assert counts[3] >= 20
    assert cartier_very_ample > 0
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _ok(
        5,
        f"{counts[2]} dim-2 and {counts[3]} dim-3 instances generate, "
        f"{cartier_very_ample} very-ample sub-cases in {elapsed:.1f}s",
    )


def test_criterion_06_nef_threshold_fuzz(pool2, pool3):
    start = time.monotonic()
    sharp = plain = 0
    for inst in pool2 + pool3:
        rep = check_nef_excluding_pspace(inst)
        if rep.applicable:
            sharp += 1
            assert rep.status == "pass", inst.label
        rep = check_nef_threshold(inst)
        if rep.applicable:
            plain += 1
            assert rep.status == "pass", inst.label
    assert sharp >= 100 and plain >= 100
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _ok(6, f"nef in {sharp} threshold-n and {plain} threshold-n+1 cases in {elapsed:.1f}s")


def test_criterion_07_projective_plane_sharpness():
    low = projective_space(2, 2)
    combined = low.d + low.dprime
    assert wall_values(low.fan, combined) == (-1, -1, -1)
    assert not is_nef(low.fan, combined)

    edge = projective_space(2, 3)
    combined = edge.d + edge.dprime
    assert wall_values(edge.fan, combined) == (0, 0, 0)
    assert is_nef(edge.fan, combined)
    failures = generation_scan(edge.fan, solve_divisor(edge.fan, combined))
    assert len(failures) == 3  # nef yet not very ample, on every cone
    _ok(7, "threshold-n case hits -1 walls; threshold-n+1 case is nef but not very ample")


def _threshold_builtins():
    return (
        [builtin("ew_simplex", (t,)) for t in range(2, 9)]
        + [projective_space(n, t) for n in (2, 3) for t in (n, n + 1)]
        + [weighted_112(t) for t in range(1, 5)]
    )


def test_local_data_matches_rational_solve_oracle(pool2, pool3):
    # cone by cone against rational Gauss-Jordan on the cone's rays: D, D',
    # D+D' and seeded integer and p/q divisors on the pools and the threshold
    # builtins, and the canonical, a non-Q-Cartier and seeded divisors on
    # quadric3, whose non-simplicial cone gives a tall system, listed first
    # and then last
    rng = random.Random("toricva:local-data")
    quadric = quadric3_fan()
    cases = [(i.fan, [i.d, i.dprime, i.d + i.dprime]) for i in pool2 + pool3 + _threshold_builtins()]
    for fan in (quadric, build_fan(quadric.rays, quadric.max_cones[::-1], quadric.rank)):
        cases.append((fan, [canonical_divisor(fan), Divisor((1, 0, 0, 0, 0))]))
    outcomes = Counter()
    for fan, divisors in cases:
        n = len(fan.rays)
        divisors = divisors + [
            Divisor(tuple(rng.randint(-3, 3) for _ in range(n))),
            Divisor(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))),
        ]
        for d in divisors:
            expected = [
                solve_exact([fan.rays[i] for i in idxs], [-d.coeffs[i] for i in idxs])
                for idxs in fan.max_cones
            ]
            assert {r.status for r in expected} <= {"unique", "inconsistent"}
            first = next((ci for ci, r in enumerate(expected) if r.status == "inconsistent"), None)
            try:
                got = local_data(fan, d)
            except NotQCartier as exc:
                assert exc.cone_index == first, (fan.max_cones, d)
                outcomes[f"no local data on cone {first}"] += 1
            else:
                assert first is None and got == tuple(r.solution for r in expected), (fan, d)
                outcomes["solved"] += 1
    last = len(quadric.max_cones) - 1
    assert outcomes["solved"] > 500
    assert outcomes["no local data on cone 0"] and outcomes[f"no local data on cone {last}"]
    _ok("local-data", f"{sum(outcomes.values())} divisors agree with the rational solve")


def test_generation_scan_matches_box_scan_oracle(pool2, pool3):
    # the Hilbert-basis membership test against the lattice-box scan, on the
    # combined divisor of the pools and of the threshold builtins
    instances = pool2 + pool3 + _threshold_builtins()
    failing = 0
    for inst in instances:
        combined = inst.d + inst.dprime
        local = local_data(inst.fan, combined)
        expected, clipped = box_scan_generation(inst.fan, combined, local)
        # the rays' own halfspaces keep every shifted polytope in its dual cone
        assert not clipped, inst.label
        assert generation_scan(inst.fan, solve_divisor(inst.fan, combined)) == expected, inst.label
        failing += bool(expected)
    assert failing > 0
    _ok("generation-oracle", f"{len(instances)} scans agree, {failing} with failures")


def _series_and_fixture_builtins():
    """Every builtin at the benchmark's scaling-series arguments and at the
    fixture arguments."""
    return (
        [builtin("ew_simplex", (t,)) for t in range(4, 17)]
        + [builtin("product_p1", (a, a)) for a in range(8, 33, 8)]
        + [builtin("intro_simplex_3d", (t,)) for t in range(2, 13, 2)]
        + [builtin("intro_simplex_2d", (t,)) for t in range(2, 13, 2)]
        + [builtin("projective_space", (n, n + 1)) for n in range(2, 5)]
        + [builtin(name, args) for name, calls in BUILTIN_ARGS.items() for args in calls]
    )


def test_hilbert_bases_match_the_reference_on_pool_and_builtin_duals(pool2, pool3):
    # every dual cone of the pools (499 of rank 2, 120 of rank 3) and of
    # every builtin at the benchmark's scaling-series and fixture arguments
    pool_duals = [dual for inst in pool2 + pool3 for dual in inst.fan.duals]
    assert len(pool_duals) == 619
    duals = pool_duals + [
        dual for inst in _series_and_fixture_builtins() for dual in inst.fan.duals
    ]
    for dual in duals:
        assert hilbert_basis(dual) == reference_hilbert_basis(dual), dual
    _ok("hilbert-oracle", f"{len(duals)} dual cones agree with the parallelepiped scan")


def test_offset_table_matches_the_rational_polytope(pool2, pool3):
    # D, D' and D+D' of the pools, of every builtin at the scaling-series
    # and fixture arguments, and of quadric3, whose non-simplicial cone has
    # walls with two rays off them on its side: the integer table's
    # membership against the rational polytope shifted by u_sigma on the
    # origin, the dual rays and the Hilbert basis; the wall values against
    # the jump of the local data; nef against the polytope holding every
    # u_sigma
    quadric = quadric3_fan()
    seen = Counter()
    for inst in pool2 + pool3 + _series_and_fixture_builtins() + [
        Instance(quadric, Divisor((1, 1, 0, 0, 0)), canonical_divisor(quadric), "quadric3")
    ]:
        fan = inst.fan
        zero = vec((0,) * fan.rank, M)
        for d in (inst.d, inst.dprime, inst.d + inst.dprime):
            solved = solve_divisor(fan, d)
            if solved.local is None:
                seen["no local data"] += 1
                continue
            p = polytope(fan, d)
            for ci, (u, offsets) in enumerate(zip(solved.local, solved.offsets)):
                shifted = translated_polytope(p, u)
                for x in (zero, *fan.duals[ci].rays, *fan.hilbert_bases[ci]):
                    inside = in_shifted_polytope(fan, offsets, x)
                    assert inside == poly_contains(shifted, x), (inst.label, d, ci, x)
                    seen["in" if inside else "out"] += 1
            assert solved.values == tuple(wall_value(fan, solved.local, w) for w in fan.walls)
            assert solved.nef == all(poly_contains(p, u) for u in solved.local), inst.label
            seen["nef" if solved.nef else "not nef"] += 1
    assert seen["in"] and seen["out"] and seen["nef"] and seen["not nef"], seen
    _ok("offset-oracle", f"{dict(seen)}")


def test_criterion_08_coefficient_sum_oracle():
    rng = random.Random("acceptance:lambda")
    pairs = 0
    while pairs < 100:
        dim = rng.choice((2, 3))
        gens = [
            tuple(rng.randint(-3, 3) for _ in range(dim))
            for _ in range(rng.randint(dim, dim + 2))
        ]
        try:
            c = cone_from_generators([vec(g, N) for g in gens])
        except ValueError:
            continue
        if not c.is_full_dim:
            continue
        def pick():
            coeffs = [rng.randint(0, 3) for _ in c.rays]
            return vec(
                tuple(
                    sum(k * r.coords[i] for k, r in zip(coeffs, c.rays))
                    for i in range(dim)
                ),
                N,
            )

        x, y = pick(), pick()
        cols = [r.coords for r in c.rays]
        for point in (x, y, x + y):
            lo, hi = sum_range(cols, point.coords)
            assert lambda_min(c, point).value == lo
            assert lambda_max(c, point).value == hi
            assert lo <= hi
            double = point + point
            assert lambda_min(c, double).value == 2 * lo
            assert lambda_max(c, double).value == 2 * hi
        assert lambda_min(c, x + y).value <= lambda_min(c, x).value + lambda_min(c, y).value
        assert lambda_max(c, x + y).value >= lambda_max(c, x).value + lambda_max(c, y).value
        pairs += 1
    _ok(8, f"{pairs} cone/point pairs agree with the enumeration oracle")


def test_closed_form_coefficient_sums_match_lp_oracle(pool2, pool3):
    # each dual cone of the pools and threshold builtins, at the perturbation's
    # local point and at the interior lattice points of the box [-2, 2]^n;
    # the integer evaluation also returns exactly the value and witness of
    # the same evaluation in Fraction arithmetic
    points = 0
    for inst in pool2 + pool3 + _threshold_builtins():
        fan = inst.fan
        local_dp = inst.dprime_solve.local
        box = [vec(p, M) for p in product(range(-2, 3), repeat=fan.rank)]
        for ci, (dual, sums) in enumerate(zip(fan.duals, fan.coefficient_sums)):
            xs = [x for x in box if strictly_inside(dual, x)]
            if local_dp is not None and contains(dual, local_dp[ci]):
                xs.append(local_dp[ci])
            for x in xs:
                assert matches_lp_oracle(sums, x), (inst.label, ci, x)
                assert sums.minimum(x) == rational_coefficient_sum(sums, x, False), x
                assert sums.maximum(x) == rational_coefficient_sum(sums, x, True), x
                if all(type(v) is int for v in x.coords):
                    assert sums.max_value(x.coords) == sums.maximum(x).value, x
            points += len(xs)
    _ok("lambda-oracle", f"{points} dual-cone points agree with the LP oracle")


def test_interior_points_match_box_filter_oracle(pool2, pool3):
    # the last coordinate's interval read off the normals gives the box
    # filter's points in the same order: seeded normals in ranks 1-4 with
    # bounds 1-5, normals with a zero last coordinate or an empty interval,
    # and every pool dual at the default bound 5
    rng = random.Random("acceptance:interior-points")
    cases = []
    for _ in range(400):
        rank = rng.randint(1, 4)
        normals = [
            tuple(rng.randint(-4, 4) for _ in range(rank)) for _ in range(rng.randint(0, 5))
        ]
        cases.append((normals, rank, rng.randint(1, 5)))
    cases += [
        ([(1, 0), (0, 1)], 2, 3),
        ([(1, 0), (-1, 0)], 2, 3),
        ([(0, 0)], 2, 2),
        ([(2, -1, 0), (0, 1, 1)], 3, 2),
        ([(1, 5), (1, -5)], 2, 1),
        ([(0, 1), (0, -1)], 2, 4),
        ([(1,), (-1,)], 1, 5),
        ([(3,)], 1, 1),
    ]
    assert not box_interior_points([(1, 0), (-1, 0)], 2, 3)
    assert not box_interior_points([(0, 1), (0, -1)], 2, 4)
    for inst in pool2 + pool3:
        cases += [([f.coords for f in d.facet_normals], inst.fan.rank, 5) for d in inst.fan.duals]
    points = 0
    for normals, rank, bound in cases:
        got = list(interior_points(normals, rank, bound))
        assert got == box_interior_points(normals, rank, bound), (normals, rank, bound)
        points += len(got)
    _ok("interior-points", f"{len(cases)} normal sets, {points} interior points agree")


def test_dual_cones_match_biduality_oracle(pool2, pool3):
    # the dual read off a cone's own two descriptions equals the dual rebuilt
    # by the extreme-ray scan and checked by biduality
    assert set(BUILTIN_ARGS) == set(BUILTINS)
    fans = [inst.fan for inst in pool2 + pool3]
    fans += [builtin(name, args).fan for name, calls in BUILTIN_ARGS.items() for args in calls]
    fans += [p2_fan(), p112_fan(), p1xp1_fan(), p3_fan(), quadric3_fan()]
    cones = [c for fan in fans for c in fan.cones]
    rng = random.Random("acceptance:dual-cones")
    seeded = 0
    while seeded < 90:
        rank = 2 + seeded % 3
        gens = [
            vec(tuple(rng.randint(-3, 3) for _ in range(rank)), N)
            for _ in range(rng.randint(rank, rank + 3))
        ]
        try:
            c = cone_from_generators(gens)
        except ValueError:
            continue
        if c.is_full_dim:
            cones.append(c)
            seeded += 1
    for c in cones:
        assert dual_cone(c) == reference_dual_cone(c), c
    assert any(len(c.rays) > c.rank for c in cones)
    _ok("dual-oracle", f"{len(cones)} duals agree with the biduality rebuild")


def test_cone_minima_match_flipped_wall_oracle(pool2, pool3):
    # every report's per-cone t and m, read from one value per wall, against
    # the minima over each cone's walls flipped to its side
    quadric = quadric3_fan()
    instances = pool2 + pool3 + _threshold_builtins()
    instances.append(Instance(quadric, Divisor((2, 1, 3, 2, 4)), canonical_divisor(quadric), "q"))
    rows = 0
    for inst in instances:
        fan = inst.fan
        reports = [check(inst) for check in (
            check_generation, check_nef_excluding_pspace, check_nef_threshold,
            check_corner_containment,
        )]
        reports += [check_wall_bound(inst, ci) for ci in range(len(fan.max_cones))]
        for rep in reports:
            for cd in rep.cone_data:
                expected = cone_minima(fan, inst.d, inst.dprime, cd.cone_index)
                assert (cd.t, cd.m) == (expected.first, expected.second), (inst.label, cd)
                rows += 1
    _ok("minima-oracle", f"{rows} per-cone rows of {len(instances)} instances agree")


def test_floor_hypothesis_matches_flipped_wall_oracle(pool2, pool3):
    # wall-bound --r reads each neighbour's rays off the wall from fan.walls;
    # the oracle reads the far side of each wall flipped to the cone's side
    verdicts = Counter()
    from_tau = 0
    for inst in pool2[:60] + pool3:
        fan = inst.fan
        for sigma in range(len(fan.max_cones)):
            from_tau += sum(w.tau == sigma for w in fan.walls)
            for r in (Fraction(1, 2), 2):
                rep = check_wall_bound(inst, sigma, r)
                (floor,) = (h for h in rep.hypotheses if h.name == "adjacent_cones_have_floor_ray")
                expected = all(
                    any(inst.dprime.coeffs[j] >= -r for j, _ in w.far)
                    for w in walls_of(fan, sigma)
                )
                assert floor.holds == expected, (inst.label, sigma, r)
                verdicts[expected] += 1
    assert from_tau and verdicts[True] and verdicts[False], (from_tau, verdicts)
    _ok("floor-oracle", f"{sum(verdicts.values())} floor verdicts agree, {dict(verdicts)}")


def test_criterion_09_containment_and_bound_suites(pool2, pool3):
    start = time.monotonic()
    corner = 0
    for inst in pool2 + pool3:
        rep = check_corner_containment(inst)
        if rep.applicable:
            corner += 1
            assert rep.status == "pass", inst.label

    interior = 0
    for inst in pool2:
        for sigma in range(len(inst.fan.max_cones)):
            rep = check_interior_bound(inst, sigma, bound=5)
            assert rep.status == "pass", (inst.label, sigma)
            interior += 1
        if interior >= 50:
            break

    nonregular = 0
    for inst in pool2 + pool3:
        for sigma, c in enumerate(inst.fan.cones):
            if classify(c).regular:
                continue
            rep = check_nonregular_bound(inst, sigma)
            assert rep.status == "pass", (inst.label, sigma)
            nonregular += 1
    assert corner >= 100 and interior >= 50 and nonregular >= 50
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _ok(
        9,
        f"{corner} corner containments, {interior} interior-point cones, "
        f"{nonregular} non-regular cones in {elapsed:.1f}s",
    )


def test_criterion_10_intro_family_regression():
    start = time.monotonic()
    for name, t in (("intro_simplex_2d", 3), ("intro_simplex_3d", 4)):
        inst = builtin(name, (t,))
        fan = inst.fan
        distinguished = [
            ci
            for ci, cone in enumerate(fan.max_cones)
            if all(inst.d.coeffs[j] == 0 for j in cone)
        ]
        assert len(distinguished) == 1
        sigma = distinguished[0]
        rep = check_generation(inst)
        assert rep.status == "pass", (name, rep.failures)
        # the shifted polytope at the distinguished cone holds the whole
        # generating set of the dual semigroup outright
        total = inst.d + inst.dprime
        shifted = translated_polytope(
            polytope(fan, total), local_data(fan, total)[sigma]
        )
        dual = dual_cone(fan.cones[sigma])
        for h in hilbert_basis(dual):
            assert poly_contains(shifted, h), (name, h)
        assert poly_contains(shifted, vec((0,) * fan.rank, M))
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _ok(10, f"simplex family generates at the distinguished cone in {elapsed:.2f}s")

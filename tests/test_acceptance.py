"""Acceptance gate: every criterion runs here, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the printed
criterion lines on success; they always appear in failure output).
"""

import dataclasses
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul

import pytest

from fixtures import (
    BUILTIN_ARGS,
    PRODUCTS,
    cone_outcome,
    cone_path,
    cross_polytope_face_fan,
    cube_face_fan,
    p1xp1_fan,
    p2_fan,
    p3_fan,
    p112_fan,
    product_vertices,
    quadric3_fan,
    rectangle_fan,
)
from oracles import (
    _cone_minimum,
    box_interior_points,
    box_parallelepiped_points,
    box_scan_generation,
    cone_minima,
    edge_lengths,
    generates,
    interior_max_values,
    lambda_max,
    lambda_min,
    matches_lp_oracle,
    pairing_incidence,
    max_value,
    poly_contains,
    polytope,
    rational_coefficient_sum,
    reference_cone_from_generators,
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
from toricva import cones, fans, hulls, lambdas
from toricva.cones import classify, cone_from_generators, contains, dual_cone, triangulate
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
    polytope_fan,
    projective_space,
    random_instance,
    weighted_112,
)
from toricva.intersections import is_nef, solve_divisor, wall_values
from toricva.lambdas import CoefficientSums
from toricva.linalg import M, N, hermite_int, integer_left_inverse, lattice_index, vec
from toricva.semigroups import _parallelepiped_points, hilbert_basis


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


def test_parallelepiped_points_match_box_scan_on_pool_and_builtin_duals(pool2, pool3):
    # every simplicial piece of every dual cone of the pools, of every
    # builtin at the scaling-series and fixture arguments and of quadric3,
    # each distinct piece once: the enumeration against the lattice-box scan
    fans = [inst.fan for inst in pool2 + pool3 + _series_and_fixture_builtins()]
    pieces = {p for fan in fans + [quadric3_fan()] for d in fan.duals for p in triangulate(d)}
    assert len(pieces) == 540
    points = 0
    for piece in pieces:
        w = list(zip(*(g.coords for g in piece)))
        got = _parallelepiped_points(piece, _direct_inverse(w), hermite_int(w))
        assert len(got) == len(set(got))
        assert set(got) == set(box_parallelepiped_points(piece)), piece
        points += len(got)
    _ok("parallelepiped-oracle", f"{len(pieces)} pieces, {points} points agree with the box scan")


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


def test_wall_values_are_ints_exactly_when_integral(pool2, pool3):
    # every wall value of D, D' and D + D' equals the reference's Fraction,
    # as an int when its denominator is 1
    kinds = Counter()
    for inst in pool2 + pool3 + _series_and_fixture_builtins():
        fan = inst.fan
        for d in (inst.d, inst.dprime, inst.d + inst.dprime):
            solved = solve_divisor(fan, d)
            if solved.local is None:
                continue
            for w, value in zip(fan.walls, solved.values):
                want = wall_value(fan, solved.local, w)
                assert value == want, (inst.label, w)
                assert type(value) is (int if want.denominator == 1 else Fraction), (inst.label, w)
                kinds[type(value).__name__] += 1
    assert kinds["int"] and kinds["Fraction"], kinds
    _ok("wall-values", f"{dict(kinds)}")


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
                    assert max_value(sums, x.coords) == sums.maximum(x).value, x
            points += len(xs)
    _ok("lambda-oracle", f"{points} dual-cone points agree with the LP oracle")


def test_one_cell_perturbation_sums_match_both_evaluations(pool2, pool3):
    # D''s per-cone sums, which read a one-cell dual's lambda_max off its
    # lambda_min, against both evaluations, value and type, on every dual
    # holding u' in the pools, the builtins at the fixture arguments and
    # quadric3, whose non-simplicial cone has a non-simplicial dual; every
    # one of these duals is one cell, so each case takes the shortcut
    quadric = quadric3_fan()
    instances = pool2 + pool3 + [
        builtin(name, args) for name, calls in BUILTIN_ARGS.items() for args in calls
    ]
    instances.append(
        Instance(quadric, Divisor((1, 1, 0, 0, 0)), canonical_divisor(quadric), "quadric3")
    )
    seen = Counter()
    for inst in instances:
        fan, local = inst.fan, inst.dprime_solve.local
        for ci, (dual, sums) in enumerate(zip(fan.duals, fan.coefficient_sums)):
            if local is None or not contains(dual, local[ci]):
                continue
            want = (sums.minimum(local[ci]).value, sums.maximum(local[ci]).value)
            got = inst.dprime_sums[ci]
            assert sums.one_cell, (inst.label, ci)
            assert [(v, type(v)) for v in got] == [(v, type(v)) for v in want], (inst.label, ci)
            seen["non-simplicial" if len(dual.rays) > fan.rank else "simplicial"] += 1
    assert seen == {"simplicial": 656, "non-simplicial": 1}, seen
    _ok("one-cell-sums", f"{dict(seen)} dual cones read both sums off one evaluation")


def test_interior_points_match_box_filter_oracle(pool2, pool3):
    # the last coordinate's interval read off the normals, expanded line by
    # line, gives the box filter's points in the same order, and no line is
    # empty: seeded normals in ranks 1-4 with
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
        lines = list(interior_points(normals, rank, bound))
        assert all(lo <= hi for _, lo, hi in lines)
        got = [(*head, t) for head, lo, hi in lines for t in range(lo, hi + 1)]
        assert got == box_interior_points(normals, rank, bound), (normals, rank, bound)
        points += len(got)
    _ok("interior-points", f"{len(cases)} normal sets, {points} interior points agree")


def _line_scan(sums, normals, rank, bound, value):
    """The failing points and the checked count of `check_interior_bound`'s
    line scan, one line at a time."""
    failing, checked = [], 0
    for head, lo, hi in interior_points(normals, rank, bound):
        checked += hi - lo + 1
        failing += [(*head, t) for t in sums.max_below_on_line(head, lo, hi, value)]
    return failing, checked


def _interior_cases(pool2, pool3):
    """(label, fan) for the pools, every builtin at the scaling-series and
    fixture arguments, quadric3 and the rank-1 fan."""
    line = build_fan([vec((1,), N), vec((-1,), N)], [(0,), (1,)], 1)
    fans = [(i.label, i.fan) for i in pool2 + pool3 + _series_and_fixture_builtins()]
    return fans + [("quadric3", quadric3_fan()), ("p1", line)]


def test_line_scan_matches_the_per_point_reference(pool2, pool3):
    # every dual cone of the pools, of every builtin at the scaling-series
    # and fixture arguments (ranks 2-4), of quadric3 (whose non-simplicial
    # cone's dual has two pieces) and of the rank-1 fan, at bounds 1-5:
    # the certified lines give the per-point reference's failing points in
    # the same order and the same checked count, for values that fail no
    # point, some points and every point
    ranks, failing, pairs = Counter(), 0, 0
    for label, fan in _interior_cases(pool2, pool3):
        ranks[fan.rank] += 1
        for ci, (dual, sums) in enumerate(zip(fan.duals, fan.coefficient_sums)):
            normals = [f.coords for f in dual.facet_normals]
            table = interior_max_values(sums, normals, fan.rank, 5)
            # a thin dual can hold no interior point of the box
            seen = sorted({lam for _, lam in table}) or [1]
            values = {0, 1, Fraction(3, 2), seen[len(seen) // 2], seen[-1] + 1}
            values |= {v + Fraction(1, 3) for v in seen[:2]}
            for bound in range(1, 6):
                # a smaller box's points are the larger one's within it, in order
                box = [(z, lam) for z, lam in table if max(map(abs, z)) <= bound]
                for value in values:
                    got = _line_scan(sums, normals, fan.rank, bound, value)
                    expected = [z for z, lam in box if lam < value]
                    assert got == (expected, len(box)), (label, ci, bound, value)
                    failing += bool(expected)
                    pairs += 1
    assert set(ranks) == {1, 2, 3, 4}
    assert failing > pairs // 4
    _ok("interior-lines", f"{pairs} cone/bound/value scans agree, {failing} with failures")


def test_interior_bound_reports_match_the_per_point_reference(pool2, pool3, monkeypatch):
    # every cone of the same instances and of p2 with a perturbation that
    # makes interior points fail, at the default bound: with each instance's
    # sums built first and the per-point certificate refusing to run, the
    # report's failures and checked note are the per-point reference's
    p2 = Instance(p2_fan(), Divisor((1, 0, 0)), Divisor((-2, -2, -2)), "p2")
    cases = pool2 + pool3 + _series_and_fixture_builtins() + [p2]
    for inst in cases:
        inst.fan.coefficient_sums, inst.dprime_sums

    def refused(*args):
        raise AssertionError("interior-bound certified a single point")

    monkeypatch.setattr(CoefficientSums, "_certify", refused)
    failing = 0
    for inst in cases:
        fan = inst.fan
        for ci, (dual, sums) in enumerate(zip(fan.duals, fan.coefficient_sums)):
            rep = check_interior_bound(inst, ci)
            lmax = inst.dprime_sums[ci][1]
            if lmax is None:
                assert rep.notes == () and rep.failures == ()
                continue
            normals = [f.coords for f in dual.facet_normals]
            table = interior_max_values(sums, normals, fan.rank, 5)
            points = [z for z, lam in table if lam < lmax]
            assert [f.message for f in rep.failures] == [
                f"interior point {z} has smaller maximum sum" for z in points
            ], (inst.label, ci)
            assert rep.notes == (
                f"checked {len(table)} interior lattice points with coordinate bound 5",
            )
            failing += bool(points)
    assert failing > 0
    _ok("interior-reports", f"{len(cases)} instances agree, {failing} cones with failures")


def test_a_gap_in_the_pieces_is_an_internal_error():
    # quadric3's non-simplicial cone has a dual of two pieces; without one
    # of them some interior line is no longer covered
    fan = quadric3_fan()
    sums = CoefficientSums(fan.duals[0])
    (cell,) = sums._max_cells
    assert len(cell.pieces) == 2
    normals = [f.coords for f in fan.duals[0].facet_normals]
    assert _line_scan(sums, normals, 3, 5, 1)[1] > 0
    for kept in cell.pieces:
        gapped = CoefficientSums(fan.duals[0])
        gapped._max_cells = (dataclasses.replace(cell, pieces=(kept,)),)
        with pytest.raises(RuntimeError, match="no piece of a maximal cell holds"):
            _line_scan(gapped, normals, 3, 5, 1)


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


def test_cone_kernel_matches_the_reference_on_every_cone_it_builds(monkeypatch):
    # every generator set the kernel is given while the 130:30 pools (hull
    # draws accepted and rejected), every builtin at the scaling-series and
    # fixture arguments and quadric3 are built, and while their cones and
    # duals are triangulated and their coefficient sums built
    seen, callers = {}, Counter()
    real = cones.cone_from_generators
    for module in (cones, fans, hulls, lambdas):

        def recording(gens, module=module):
            seen.setdefault(tuple(gens), module.__name__)
            return real(gens)

        monkeypatch.setattr(module, "cone_from_generators", recording)
    instances = [random_instance(2, s) for s in range(130)]
    instances += [random_instance(3, s) for s in range(30)]
    all_fans = [inst.fan for inst in instances + _series_and_fixture_builtins()]
    all_fans.append(quadric3_fan())
    for fan in all_fans:
        fan.coefficient_sums
        for c in fan.cones + fan.duals:
            triangulate(c)
    monkeypatch.undo()
    for gens, caller in seen.items():
        got = cone_outcome(cone_from_generators, gens)
        assert got == cone_outcome(reference_cone_from_generators, gens), gens
        callers[caller, cone_path(gens, got)] += 1
    # maximal cones by inversion; hulls and quadric3's cone by the scan;
    # triangulation faces below full dimension
    assert callers["toricva.fans", "simplicial"] > 500
    assert callers["toricva.fans", "scanned"] and callers["toricva.hulls", "scanned"] > 150
    assert callers["toricva.hulls", "simplicial"] and callers["toricva.cones", "lower"]
    _ok("cone-oracle", f"{len(seen)} generator sets agree with the reference")


def _fans_and_generator_sets(pool2, pool3):
    """The fans of the pools, of every builtin at the scaling-series and
    fixture arguments, of quadric3, of the cube face fans in ranks 3 to 5
    and of the polygon products; and the generator sets of each product's
    lifted hull cone and of every maximal cone and dual of those fans, each
    simplicial cone again with its ray sum added, which sends it through
    the double description."""
    built = [inst.fan for inst in pool2 + pool3 + _series_and_fixture_builtins()]
    built += [quadric3_fan()] + [cube_face_fan(n) for n in (3, 4, 5)]
    sets = []
    for a, b in PRODUCTS:
        pts = product_vertices(a, b)
        built.append(polytope_fan(pts)[0])
        sets.append([vec((1, *p.coords), M) for p in pts])
    for fan in built:
        for c in fan.cones + fan.duals:
            sets.append(list(c.rays))
            if len(c.rays) == c.rank:
                total = tuple(map(sum, zip(*(r.coords for r in c.rays))))
                sets.append([*c.rays, vec(total, c.ambient)])
    return built, sets


def test_double_description_matches_the_subset_scan_on_fan_cones(pool2, pool3):
    # every generator set of _fans_and_generator_sets
    _, sets = _fans_and_generator_sets(pool2, pool3)
    kinds = Counter()
    for gens in sets:
        got = cone_outcome(cone_from_generators, gens)
        assert got == cone_outcome(reference_cone_from_generators, gens), gens
        kinds[cone_path(gens, got)] += 1
    assert kinds["simplicial"] > 1000 and kinds["scanned"] > 1000, kinds
    _ok("double-description", f"{len(sets)} generator sets agree with the subset scan")


def test_carried_incidence_matches_the_pairings(pool2, pool3):
    # every maximal cone and dual of _fans_and_generator_sets' fans and the
    # cone each of its generator sets builds: the rays of each facet as the
    # cone carries them, from its elimination or its double description,
    # equal those found by pairing each normal with each ray; a dual, and a
    # cone rebuilt field by field, pair on first use
    built, sets = _fans_and_generator_sets(pool2, pool3)
    maximal = [c for fan in built for c in fan.cones]
    assert all("incidence" in c.__dict__ for c in maximal)
    made = [cone_from_generators(gens) for gens in sets]
    assert all("incidence" in c.__dict__ for c in made)
    duals = [d for fan in built for d in fan.duals]
    rebuilt = [dataclasses.replace(c) for c in maximal[:50]]
    for c in maximal + made + duals + rebuilt:
        assert c.incidence == pairing_incidence(c), c
    # more generators than the rank: the double description ran
    assert sum(len(gens) > c.rank for gens, c in zip(sets, made)) > 1000
    _ok("incidence", f"{len(maximal) + len(made)} carried incidences agree with pairing")


def test_pool_and_builtin_fans_build_without_the_facet_scan(pool2, pool3, monkeypatch):
    # every maximal cone there is simplicial, so build_fan never runs the
    # double description
    built = [inst.fan for inst in pool2 + pool3 + _series_and_fixture_builtins()]

    def refused(*args):
        raise AssertionError("ran the double description on a simplicial cone")

    monkeypatch.setattr(cones, "_double_description", refused)
    for fan in built:
        assert build_fan(fan.rays, fan.max_cones, fan.rank) == fan
    _ok("simplicial-fans", f"{len(built)} fans built without a facet scan")


def _direct_inverse(rows):
    scaled, den = integer_left_inverse([list(row) for row in rows])
    return tuple(map(tuple, scaled)), den


def _check_left_inverse(cone):
    # a non-simplicial cone has many left inverses: the one it carries must
    # be an integer matrix with L @ R = den * I, den its least denominator
    scaled, den = cone.inverse
    assert all(type(x) is int for row in scaled for x in row), cone
    rows = [r.coords for r in cone.rays]
    for i, row in enumerate(scaled):
        for j, col in enumerate(zip(*rows)):
            assert sum(map(mul, row, col)) == (den if i == j else 0), cone
    assert den > 0 and gcd(den, *(x for row in scaled for x in row)) == 1, cone


def test_carried_inverses_match_a_direct_elimination(pool2, pool3):
    # every maximal cone of the pools, of every builtin at the scaling-series
    # and fixture arguments and of quadric3: the inverse each simplicial cone
    # carries, its dual's and each coefficient-sum piece's, against
    # integer_left_inverse of the same matrix; a non-simplicial cone's and
    # its dual's, against L @ R = den * I
    built = [inst.fan for inst in pool2 + pool3 + _series_and_fixture_builtins()]
    built.append(quadric3_fan())
    kinds = Counter()
    for fan in built:
        fresh = build_fan(fan.rays, fan.max_cones, fan.rank)
        for ci, c in enumerate(fresh.cones):
            simplicial = len(c.rays) == c.rank
            # a simplicial cone is handed its inverse by its own elimination
            assert ("inverse" in c.__dict__) == simplicial, c
            dual = dual_cone(c)
            assert ("inverse" in dual.__dict__) == simplicial, c
            if simplicial:
                assert c.inverse == _direct_inverse(r.coords for r in c.rays), c
                assert dual.inverse == _direct_inverse(r.coords for r in dual.rays), c
            else:
                _check_left_inverse(c)
                _check_left_inverse(dual)
            sums = fresh.coefficient_sums[ci]
            for cell in sums._min_cells + sums._max_cells:
                for _, gens, inverse, den in cell.pieces:
                    assert (inverse, den) == _direct_inverse(zip(*gens)), (c, gens)
                    kinds["piece"] += 1
            kinds["simplicial" if simplicial else "other"] += 1
    assert kinds == {"simplicial": 778, "other": 1, "piece": 1560}
    _ok("carried-inverses", f"{kinds['simplicial'] + kinds['other']} cones and their duals agree")


def test_simplicial_duals_build_their_sums_without_evaluating(pool2, pool3, monkeypatch):
    # every dual of the pools and of the builtins is simplicial, and its
    # one-cell test and piece identities already show that each generator's
    # sums are 1; quadric3's non-simplicial dual still evaluates each one
    calls = []
    real = CoefficientSums._evaluate

    def counted(self, cells, x, sign):
        calls.append(x)
        return real(self, cells, x, sign)

    monkeypatch.setattr(CoefficientSums, "_evaluate", counted)
    duals = 0
    for inst in pool2 + pool3 + _series_and_fixture_builtins():
        fan = inst.fan
        duals += len(build_fan(fan.rays, fan.max_cones, fan.rank).coefficient_sums)
    assert calls == [] and duals == 774
    quadric = quadric3_fan()
    [c] = [c for c in quadric.cones if len(c.rays) > c.rank]
    sums = CoefficientSums(dual_cone(c))
    assert len(calls) == len(sums.cone.rays) * (1 if sums.one_cell else 2)
    _ok("sums-without-evaluating", f"{duals} simplicial duals, 0 generator evaluations")


def test_one_pass_cone_minima_match_the_wall_scan(pool2, pool3):
    # each cone's minima of D and D+D', read off the per-fan list of its
    # walls, against the scan of every wall for each cone, in value and type
    # (a tie keeps the first value in wall order): the pools, the builtins at
    # the scaling-series and fixture arguments, quadric3, the cube face fans
    # in ranks 3-5 and the rank-8 cross-polytope face fan, 256 cones
    rng = random.Random("acceptance:cone-minima")
    quadric = quadric3_fan()
    cases = pool2 + pool3 + _series_and_fixture_builtins()
    cases.append(Instance(quadric, Divisor((2, 1, 3, 2, 4)), canonical_divisor(quadric), "q"))
    for n in (3, 4, 5):
        fan = cube_face_fan(n)
        # twice the support divisor of the cross-polytope plus a principal one
        shift = [rng.randint(-2, 2) for _ in range(n)]
        d = Divisor(tuple(2 + sum(map(mul, shift, r.coords)) for r in fan.rays))
        cases.append(Instance(fan, d, canonical_divisor(fan), f"cube({n})"))
    cross = cross_polytope_face_fan(8)
    assert len(cross.max_cones) == 256
    d = Divisor(tuple(rng.randint(0, 3) for _ in cross.rays))
    dp = Divisor(tuple(Fraction(-rng.randint(0, 2), 2) for _ in cross.rays))
    cases.append(Instance(cross, d, dp, "cross(8)"))
    kinds = Counter()
    for inst in cases:
        fan, values, total = inst.fan, inst.d_solve.values, inst.total_solve.values
        assert inst.dprime_solve.local is not None, inst.label
        for ci, (t, m) in enumerate(inst.cone_minima):
            walls = tuple(wi for wi, w in enumerate(fan.walls) if ci in (w.sigma, w.tau))
            assert fan.cone_walls[ci] == walls, (inst.label, ci)
            want = (_cone_minimum(fan, values, ci), _cone_minimum(fan, total, ci))
            assert [(v, type(v)) for v in (t, m)] == [(v, type(v)) for v in want], (inst.label, ci)
            assert (inst.cone_data[ci].t, inst.cone_data[ci].m) == (t, m)
            kinds[type(m).__name__] += 1
    assert kinds == {"Fraction": 538, "int": 521}, kinds
    _ok("cone-minima", f"{len(cases)} instances, {dict(kinds)} cone minima m agree")


def test_sums_entry_point_matches_both_evaluations(pool2, pool3):
    # CoefficientSums.extremes against minimum(x).value and maximum(x).value,
    # value and type, and None exactly where the dual misses x: every dual
    # of the pools, of the builtins at the scaling-series and fixture
    # arguments, of quadric3 and of the rectangle fan, whose first dual is
    # multi-cell, at the local points of D, D' and D+D', every dual ray, its
    # negative, the ray sum, half of it and seeded box points
    rng = random.Random("acceptance:sums-entry-point")
    quadric, rectangle = quadric3_fan(), rectangle_fan()
    cases = pool2 + pool3 + _series_and_fixture_builtins() + [
        Instance(quadric, Divisor((2, 1, 3, 2, 4)), canonical_divisor(quadric), "q"),
        Instance(rectangle, Divisor((0,) * 5), canonical_divisor(rectangle), "rectangle"),
    ]
    seen = Counter()
    for inst in cases:
        fan = inst.fan
        solves = [s.local for s in (inst.d_solve, inst.dprime_solve, inst.total_solve)]
        for ci, (dual, sums) in enumerate(zip(fan.duals, fan.coefficient_sums)):
            ray_sum = sum(dual.rays[1:], dual.rays[0])
            points = [local[ci] for local in solves if local is not None]
            points += [*dual.rays, *(-g for g in dual.rays), ray_sum, ray_sum.scale(Fraction(1, 2))]
            points += [
                vec(tuple(rng.randint(-2, 2) for _ in range(fan.rank)), M) for _ in range(4)
            ]
            for x in points:
                got = sums.extremes(x)
                if not contains(dual, x):
                    assert got is None, (inst.label, ci, x)
                    seen["outside"] += 1
                    continue
                want = (sums.minimum(x).value, sums.maximum(x).value)
                assert [(v, type(v)) for v in got] == [(v, type(v)) for v in want], (inst.label, x)
                seen["inside" if sums.one_cell else "inside a multi-cell dual"] += 1
    assert seen == {"outside": 5612, "inside": 5038, "inside a multi-cell dual": 10}, seen
    _ok("sums-entry-point", f"{dict(seen)} points agree with both evaluations")


def test_regularity_read_off_the_carried_inverse_matches_the_lattice_index(pool2, pool3):
    # classify calls a simplicial cone regular when its inverse's den is 1,
    # against |det| = 1 from the Hermite reduction, on every simplicial
    # maximal cone and dual of the pools, the builtins at the scaling-series
    # and fixture arguments and quadric3; quadric3's other cone is not regular
    fans = [inst.fan for inst in pool2 + pool3 + _series_and_fixture_builtins()]
    fans.append(quadric3_fan())
    kinds = Counter()
    for fan in fans:
        for c in fan.cones + fan.duals:
            cls = classify(c)
            if not cls.simplicial:
                assert not cls.regular, c
                kinds["non-simplicial"] += 1
                continue
            assert cls.regular == (lattice_index([r.coords for r in c.rays]) == 1), c
            kinds["regular" if cls.regular else "singular"] += 1
    assert kinds == {"regular": 388, "singular": 1168, "non-simplicial": 2}, kinds
    _ok("regular-cones", f"{dict(kinds)} cones and duals agree with the lattice index")


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

"""Reports do not depend on coordinates or labels: three transforms checked
without an oracle.

- GL(n, Z) on N.  Each ray v becomes A v for a unimodular A; the cone
  indices and the divisors stay.  Every report is unchanged except where it
  carries M-points, which map by A^(-T): failure messages name them, and
  local data moves to A^(-T) u_sigma.  A generation failure names the first
  missing basis element in coordinate order, so of its witness only the
  validity carries over.  Interior-bound enumerates a coordinate box, so its
  note counting the box's interior points is not compared.
- A principal divisor.  D becomes D + div(chi^m) = D + (<m, v_i>)_i for an
  integral m; D' stays.  Only u_sigma moves, by -m, and every report is
  equal.
- A relabelling.  The rays and the maximal cones are listed in another
  order, each cone's rays shuffled too, and D and D' are permuted with the
  rays.  Coordinates stay while every global index moves.  Once cone
  indices are mapped back, and wall indices through the walls' ray sets,
  every report is equal, and so are each divisor's local data, offset rows
  and wall values.

They run on the 130:30 acceptance pools and on every builtin at
BUILTIN_ARGS.  A, m and the permutations are drawn from the instance
label, so a failure reproduces from the label alone.
"""

import dataclasses
import random
import re

import pytest

from fixtures import BUILTIN_ARGS
from toricva.divisors import Divisor, in_shifted_polytope
from toricva.fans import build_fan
from toricva.harness import STATEMENTS, Instance, builtin, random_instance
from toricva.linalg import M, N, pair, vec

# An M-point as failure messages print it: a tuple of integers.
POINT = re.compile(r"\((-?\d+(?:, -?\d+)+)\)")
# A maximal cone as hypotheses and errors name it.
CONE = re.compile(r"\bcone (\d+)")


@pytest.fixture(scope="module")
def instances():
    """Each pool and builtin instance with its reports."""
    insts = [random_instance(2, s) for s in range(130)]
    insts += [random_instance(3, s) for s in range(30)]
    insts += [builtin(name, args) for name, calls in BUILTIN_ARGS.items() for args in calls]
    return [(inst, reports(inst)) for inst in insts]


def reports(inst: Instance, cones=None) -> list:
    """Every statement's report, per maximal cone (each of `cones`, in that
    order, when given) for a per-cone statement at its default options; a
    refused check gives its error type and message."""
    if cones is None:
        cones = range(len(inst.fan.max_cones))
    out = []
    for statement in STATEMENTS.values():
        calls = [(ci,) for ci in cones] if statement.per_cone else [()]
        for call in calls:
            try:
                out.append(statement.check(inst, *call))
            except ValueError as exc:
                out.append((type(exc), str(exc)))
    return out


def unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A random n x n integer matrix of determinant +-1: elementary row
    additions, a row shuffle and maybe a sign."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    rng.shuffle(a)
    if rng.random() < 0.5:
        a[0] = [-x for x in a[0]]
    return a


def apply(a, coords) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, coords)) for row in a)


def transpose(a):
    return [list(col) for col in zip(*a)]


def mapped(a, text: str) -> tuple[int, ...]:
    """The M-point printed as `text`, mapped by the matrix a."""
    return apply(a, [int(x) for x in text.split(", ")])


def map_message(message: str, a) -> str:
    """The message with every M-point in it mapped by the matrix a."""
    return POINT.sub(lambda p: str(mapped(a, p.group(1))), message)


def comparable(rep, back=None):
    """The report with its M-points mapped by `back`, less what depends on
    coordinates (module docstring)."""
    if isinstance(rep, tuple):
        return rep
    failures = sorted(
        (f.kind, f.index, f.message if back is None else map_message(f.message, back))
        for f in rep.failures
    )
    if rep.statement == "adjoint-generation":
        failures = [(kind, index) for kind, index, _ in failures]
    notes = () if rep.statement == "interior-point-bound" else rep.notes
    return (
        rep.statement, rep.label, rep.status, rep.hypotheses, rep.conclusion,
        rep.cone_data, failures, notes,
    )


def test_reports_do_not_depend_on_the_lattice_basis(instances):
    for inst, want in instances:
        fan = inst.fan
        a = unimodular(random.Random(f"toricva:invariance:A:{inst.label}"), fan.rank)
        back = transpose(a)  # A^T takes M-points of the new basis back to the old
        rays = [vec(apply(a, r.coords), N) for r in fan.rays]
        moved = Instance(build_fan(rays, fan.max_cones, fan.rank), inst.d, inst.dprime, inst.label)
        got = reports(moved)
        assert [comparable(r, back) for r in got] == [comparable(r) for r in want], inst.label
        for solved, new in ((inst.d_solve, moved.d_solve), (inst.total_solve, moved.total_solve)):
            assert new.values == solved.values, inst.label
            assert new.nef == solved.nef, inst.label
            if solved.local is not None:
                assert [apply(back, u.coords) for u in new.local] == [
                    u.coords for u in solved.local
                ], inst.label
        for rep in got:
            if isinstance(rep, tuple) or rep.statement != "adjoint-generation":
                continue
            for f in rep.failures:
                (text,) = POINT.findall(f.message)
                witness = vec(mapped(back, text), M)
                assert witness in fan.hilbert_bases[f.index], inst.label
                offsets = inst.total_solve.offsets[f.index]
                assert not in_shifted_polytope(fan, offsets, witness), inst.label


def test_reports_do_not_depend_on_the_principal_divisor_added(instances):
    for inst, want in instances:
        fan = inst.fan
        rng = random.Random(f"toricva:invariance:m:{inst.label}")
        m = vec([rng.randint(-3, 3) for _ in range(fan.rank)], M)
        principal = Divisor(tuple(pair(m, v) for v in fan.rays))
        moved = Instance(fan, inst.d + principal, inst.dprime, inst.label)
        assert reports(moved) == want, inst.label
        for solved, new in ((inst.d_solve, moved.d_solve), (inst.total_solve, moved.total_solve)):
            assert new.values == solved.values, inst.label
            assert new.nef == solved.nef, inst.label
            if solved.local is not None:
                assert new.local == tuple(u - m for u in solved.local), inst.label


def name_cones(text: str, cone_from) -> str:
    """The text with every cone it names as cone i renamed cone_from[i]."""
    return CONE.sub(lambda c: f"cone {cone_from[int(c.group(1))]}", text)


def relabelled(rep, cone_from, wall_from):
    """The report with each cone index i mapped to cone_from[i] and each wall
    index to wall_from's, its rows and failures in the order they then take."""
    if isinstance(rep, tuple):
        return rep[0], name_cones(rep[1], cone_from)
    back = {"cone": cone_from, "wall": wall_from}
    failures = [dataclasses.replace(f, index=back[f.kind][f.index]) for f in rep.failures]
    rows = [dataclasses.replace(r, cone_index=cone_from[r.cone_index]) for r in rep.cone_data]
    hyps = [dataclasses.replace(h, detail=name_cones(h.detail, cone_from)) for h in rep.hypotheses]
    return dataclasses.replace(
        rep,
        hypotheses=tuple(hyps),
        failures=tuple(sorted(failures, key=lambda f: f.index)),
        cone_data=tuple(sorted(rows, key=lambda r: r.cone_index)),
    )


def test_reports_do_not_depend_on_the_order_of_rays_and_cones(instances):
    for inst, want in instances:
        fan = inst.fan
        rng = random.Random(f"toricva:invariance:relabel:{inst.label}")
        # new ray k is old ray ray_from[k], new cone j old cone cone_from[j]
        ray_from = rng.sample(range(len(fan.rays)), len(fan.rays))
        cone_from = rng.sample(range(len(fan.max_cones)), len(fan.max_cones))
        ray_to = {old: new for new, old in enumerate(ray_from)}
        cone_to = {old: new for new, old in enumerate(cone_from)}
        max_cones = []
        for old in cone_from:
            idxs = [ray_to[i] for i in fan.max_cones[old]]
            max_cones.append(rng.sample(idxs, len(idxs)))
        d, dprime = (Divisor(tuple(x.coeffs[i] for i in ray_from)) for x in (inst.d, inst.dprime))
        rays = [fan.rays[i] for i in ray_from]
        moved = Instance(build_fan(rays, max_cones, fan.rank), d, dprime, inst.label)
        walls = {frozenset(fan.rays[i] for i in w.rays): wi for wi, w in enumerate(fan.walls)}
        wall_from = [walls[frozenset(rays[i] for i in w.rays)] for w in moved.fan.walls]
        assert sorted(wall_from) == list(range(len(fan.walls))), inst.label
        got = reports(moved, [cone_to[ci] for ci in range(len(fan.max_cones))])
        assert [relabelled(r, cone_from, wall_from) for r in got] == want, inst.label
        solves = (
            (inst.d_solve, moved.d_solve),
            (inst.dprime_solve, moved.dprime_solve),
            (inst.total_solve, moved.total_solve),
        )
        for solved, new in solves:
            assert new.values == tuple(solved.values[wi] for wi in wall_from), inst.label
            assert new.nef == solved.nef, inst.label
            if solved.local is not None:
                assert new.local == tuple(solved.local[ci] for ci in cone_from), inst.label
                assert new.offsets == tuple(
                    (tuple(solved.offsets[ci][0][i] for i in ray_from), solved.offsets[ci][1])
                    for ci in cone_from
                ), inst.label

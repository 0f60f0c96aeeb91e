"""Intersection numbers of divisors with the invariant curves of a fan.

Each wall (codimension-one cone shared by maximal cones sigma and tau)
carries one complete curve.  Its intersection number with a divisor is the
jump u_sigma - u_tau of the local data, a rational multiple of the wall's
inner normal u.  Paired with a ray v_j of tau off the wall, the jump is
e_j(sigma) = d_j + <u_sigma, v_j>, that ray's offset on sigma; paired with a
ray of sigma off the wall it is -e_j(tau).  So the value is e_j(sigma) / w_j
for j in tau and e_j(tau) / w_j for j in sigma, w_j = |<u, v_j>| from
`fans.Wall`, and every such ray must give the same one.  `solve_divisor`
builds a divisor's local data and offset table once and reads its wall
values and nef verdict off them; the other functions here, and
`harness.Instance`, read the solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .divisors import Divisor, NotQCartier, Offsets, local_offsets
from .fans import Fan, Wall
from .linalg import Scalar, Vec, _norm_coord, _ratio


def wall_value(offsets: tuple[Offsets, ...], wall: Wall) -> Scalar:
    """Intersection number with the wall's curve of the divisor whose offset
    table is `offsets`, which every ray of either cone off the wall must
    give: an int when it is integral, else a Fraction."""
    (es, qs), (et, qt) = offsets[wall.sigma], offsets[wall.tau]
    ratios = [(es[j], qs * w) for j, w in wall.far] + [(et[j], qt * w) for j, w in wall.near]
    num, den = ratios[0]
    if any(n * den != num * m for n, m in ratios[1:]):
        raise RuntimeError(f"internal: {wall}: wall value depends on the chosen outside ray")
    return _ratio(num, den)


@dataclass(frozen=True)
class DivisorSolve:
    """A divisor solved on a fan: its local data, its offset table (one row
    per maximal cone, see `divisors.Offsets`), its value on each wall
    (aligned with fan.walls) and whether it is nef; or, without local data,
    `missing`, the first maximal cone that has none."""

    local: tuple[Vec, ...] | None
    offsets: tuple[Offsets, ...] = ()
    values: tuple[Scalar, ...] = ()
    nef: bool | None = None
    missing: int | None = None

    def checked(self) -> DivisorSolve:
        """This record; NotQCartier when the divisor has no local data."""
        if self.local is None:
            raise NotQCartier(self.missing)
        return self

    def scaled(self, k: int) -> DivisorSolve:
        """The solve of k * D, for a positive integer k and this solve of D:
        the local data and wall values times k, each offset row over its
        least denominator again, and the same nef verdict."""
        if self.local is None:
            return self
        local = tuple(Vec(tuple(k * x for x in u.coords), u.ambient) for u in self.local)
        offsets = []
        for es, q in self.offsets:
            es = [k * e for e in es]
            g = gcd(q, *es)
            offsets.append((tuple(e // g for e in es), q // g))
        values = tuple(_norm_coord(k * v) for v in self.values)
        return DivisorSolve(local, tuple(offsets), values, self.nef)


def solve_divisor(fan: Fan, d: Divisor) -> DivisorSolve:
    """Solve d once; the curve test and the polytope test must agree on nef.
    The polytope test asks whether P_D contains every u_sigma, which is
    whether every offset is nonnegative."""
    try:
        local, offsets = local_offsets(fan, d)
    except NotQCartier as exc:
        return DivisorSolve(None, missing=exc.cone_index)
    values = tuple(wall_value(offsets, w) for w in fan.walls)
    nef = all(v >= 0 for v in values)
    if nef != all(e >= 0 for es, _ in offsets for e in es):
        raise RuntimeError("internal: curve test and polytope test disagree on nef")
    return DivisorSolve(local, offsets, values, nef)


def wall_values(fan: Fan, d: Divisor) -> tuple[Scalar, ...]:
    """One intersection number per wall, aligned with fan.walls."""
    return solve_divisor(fan, d).checked().values


def is_nef(fan: Fan, d: Divisor) -> bool:
    """All curve intersections nonnegative.  NotQCartier propagates."""
    return solve_divisor(fan, d).checked().nef

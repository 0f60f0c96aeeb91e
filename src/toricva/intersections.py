"""Intersection numbers of divisors with the invariant curves of a fan.

Each wall (codimension-one cone shared by two maximal cones) carries one
complete curve.  Its intersection number with a divisor is recovered from
the jump between the local data of the two maximal cones: the jump is a
rational multiple of the wall's inner normal, and that multiple is the
intersection number, the same for every ray of either cone off the wall.
`solve_divisor` computes a divisor's local data, wall values and nef
verdict once; the other functions here, and `harness.Instance`, read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .divisors import Divisor, NotQCartier, local_data, poly_contains, polytope
from .fans import Fan, Wall
from .linalg import Vec, pair, primitivize


def wall_value(fan: Fan, local: tuple[Vec, ...], wall: Wall) -> Fraction:
    """Intersection number of the divisor behind `local` with the wall's curve,
    which every ray of either cone off the wall must give."""
    jump = local[wall.sigma] - local[wall.tau]
    vals = set()
    for j in set(fan.max_cones[wall.sigma] + fan.max_cones[wall.tau]) - set(wall.rays):
        denom = -pair(wall.u, fan.rays[j])
        if denom == 0 or (denom > 0) != (j in wall.outside):
            raise RuntimeError("internal: wall normal is not negative on the far side")
        vals.add(Fraction(pair(jump, fan.rays[j])) / denom)
    if len(vals) != 1:
        raise RuntimeError("internal: wall value depends on the chosen outside ray")
    return vals.pop()


@dataclass(frozen=True)
class DivisorSolve:
    """A divisor solved on a fan: its local data, its value on each wall
    (aligned with fan.walls) and whether it is nef; or, without local data,
    `missing`, the first maximal cone that has none."""

    local: tuple[Vec, ...] | None
    values: tuple[Fraction, ...] = ()
    nef: bool | None = None
    missing: int | None = None

    def checked(self) -> DivisorSolve:
        """This record; NotQCartier when the divisor has no local data."""
        if self.local is None:
            raise NotQCartier(self.missing)
        return self


def solve_divisor(fan: Fan, d: Divisor) -> DivisorSolve:
    """Solve d once; the curve test and the polytope test must agree on nef."""
    try:
        local = local_data(fan, d)
    except NotQCartier as exc:
        return DivisorSolve(None, missing=exc.cone_index)
    values = tuple(wall_value(fan, local, w) for w in fan.walls)
    nef = all(v >= 0 for v in values)
    p = polytope(fan, d)
    if nef != all(poly_contains(p, u) for u in local):
        raise RuntimeError("internal: curve test and polytope test disagree on nef")
    return DivisorSolve(local, values, nef)


def wall_values(fan: Fan, d: Divisor) -> tuple[Fraction, ...]:
    """One intersection number per wall, aligned with fan.walls."""
    return solve_divisor(fan, d).checked().values


def is_nef(fan: Fan, d: Divisor) -> bool:
    """All curve intersections nonnegative.  NotQCartier propagates."""
    return solve_divisor(fan, d).checked().nef


@dataclass(frozen=True)
class EdgeLength:
    """Lattice length of one edge of the divisor polytope, with its curve value."""

    wall_index: int
    value: Fraction
    length: Fraction


def edge_lengths(fan: Fan, d: Divisor) -> tuple[EdgeLength, ...]:
    """For nef divisors: each wall's curve value equals the matching edge length.

    The length is measured independently as the lattice length of the
    segment from u_sigma to u_tau.  A mismatch would be an internal error.
    """
    solved = solve_divisor(fan, d).checked()
    if not solved.nef:
        raise ValueError("edge lengths are undefined for a divisor that is not nef")
    local = solved.local
    out = []
    for wi, (w, val) in enumerate(zip(fan.walls, solved.values)):
        diff = local[w.tau] - local[w.sigma]
        if diff.is_zero:
            length = Fraction(0)
        else:
            direction = primitivize(diff)
            j = next(i for i, c in enumerate(direction.coords) if c != 0)
            length = Fraction(diff.coords[j]) / direction.coords[j]
            if direction != w.u:
                raise RuntimeError("internal: polytope edge is not parallel to the wall normal")
        if length != val:
            raise RuntimeError("internal: edge length disagrees with the curve value")
        out.append(EdgeLength(wi, val, length))
    return tuple(out)

"""Intersection numbers of divisors with the invariant curves of a fan.

Each wall (codimension-one cone shared by two maximal cones) carries one
complete curve.  Its intersection number with a divisor is recovered from
the jump between the local data of the two maximal cones: the jump is a
rational multiple of the wall's inner normal, and that multiple is the
intersection number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .divisors import Divisor, local_data, poly_contains, polytope
from .fans import Fan, Wall
from .linalg import Vec, pair, primitivize


def wall_value(fan: Fan, local: tuple[Vec, ...], wall: Wall) -> Fraction:
    """Intersection number of the divisor behind `local` with the wall's curve."""
    jump = local[wall.sigma] - local[wall.tau]
    vals = []
    for j in wall.outside:
        vj = fan.rays[j]
        denom = -pair(wall.u, vj)
        if denom <= 0:
            raise RuntimeError("internal: wall normal is not negative on the far side")
        vals.append(Fraction(pair(jump, vj)) / denom)
    if any(v != vals[0] for v in vals[1:]):
        raise RuntimeError("internal: wall value depends on the chosen outside ray")
    return vals[0]


def wall_values(fan: Fan, d: Divisor) -> tuple[Fraction, ...]:
    """One intersection number per wall, aligned with fan.walls."""
    local = local_data(fan, d)
    return tuple(wall_value(fan, local, w) for w in fan.walls)


def is_nef(fan: Fan, d: Divisor) -> bool:
    """All curve intersections nonnegative.  NotQCartier propagates."""
    local = local_data(fan, d)
    by_curves = all(wall_value(fan, local, w) >= 0 for w in fan.walls)
    p = polytope(fan, d)
    by_polytope = all(poly_contains(p, u) for u in local)
    if by_curves != by_polytope:
        raise RuntimeError("internal: curve test and polytope test disagree on nef")
    return by_curves


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
    local = local_data(fan, d)
    vals = [wall_value(fan, local, w) for w in fan.walls]
    if any(v < 0 for v in vals):
        raise ValueError("edge lengths are undefined for a divisor that is not nef")
    out = []
    for wi, (w, val) in enumerate(zip(fan.walls, vals)):
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


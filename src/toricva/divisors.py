"""Torus-invariant rational divisors on a complete fan.

A divisor is a coefficient per global ray.  The central objects are the
local data u_sigma (the unique dual vector with <u_sigma, v_i> = -d_i on
each maximal cone, when it exists) and the rational polytope
P = {u : <u, v_i> >= -d_i}.  A Polytope holds only its halfspaces; its
vertices are read on first access off the cone over P (Cox-Little-Schenck,
Toric Varieties, 4.3) by the cone kernel's `extreme_rays`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from .cones import extreme_rays
from .linalg import Scalar, Vec, _norm_coord, dual_ambient, matrix_rank, pair, solve_exact

if TYPE_CHECKING:  # fans imports semigroups, which imports this module
    from .fans import Fan


@dataclass(frozen=True)
class Divisor:
    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_norm_coord(c) for c in self.coeffs))

    def __add__(self, other: "Divisor") -> "Divisor":
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("divisors on different ray lists")
        return Divisor(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Divisor":
        return Divisor(tuple(-a for a in self.coeffs))

    def scale(self, k) -> "Divisor":
        k = Fraction(k)
        return Divisor(tuple(k * a for a in self.coeffs))

    def __rmul__(self, k) -> "Divisor":
        return self.scale(k)

    @property
    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)


class NotQCartier(Exception):
    """Raised when a divisor has no local data on some maximal cone."""

    def __init__(self, cone_index: int):
        self.cone_index = cone_index
        super().__init__(f"no local data on maximal cone {cone_index}")


def _check_divisor(fan: Fan, d: Divisor):
    if len(d.coeffs) != len(fan.rays):
        raise ValueError("divisor length does not match the fan's ray count")


def local_data(fan: Fan, d: Divisor) -> tuple[Vec, ...]:
    """u_sigma for each maximal cone; raises NotQCartier when inconsistent."""
    _check_divisor(fan, d)
    out = []
    for ci, idxs in enumerate(fan.max_cones):
        rows = [fan.rays[i] for i in idxs]
        rhs = [-d.coeffs[i] for i in idxs]
        res = solve_exact(rows, rhs)
        if res.status == "inconsistent":
            raise NotQCartier(ci)
        if res.status != "unique":
            raise RuntimeError("internal: full-dimensional cone gave an underdetermined solve")
        out.append(res.solution)
    return tuple(out)


def is_q_cartier(fan: Fan, d: Divisor) -> bool:
    try:
        local_data(fan, d)
    except NotQCartier:
        return False
    return True


def is_cartier(fan: Fan, d: Divisor) -> bool:
    """True when every u_sigma is a lattice point.  NotQCartier propagates."""
    return all(u.is_lattice for u in local_data(fan, d))


def canonical_divisor(fan: Fan) -> Divisor:
    """The standard representative with every coefficient equal to -1."""
    return Divisor((-1,) * len(fan.rays))


def dprime_in_range(fan: Fan, dp: Divisor) -> bool:
    """Coefficientwise test for 0 >= D' >= (canonical representative)."""
    _check_divisor(fan, dp)
    return all(-1 <= c <= 0 for c in dp.coeffs)


@dataclass(frozen=True)
class Polytope:
    """Rational polytope {u : <u, normal_i> >= -offset_i}."""

    halfspaces: tuple[tuple[Vec, Scalar], ...]

    @cached_property
    def vertices(self) -> tuple[Vec, ...]:
        """Sorted vertices, computed on first access: the rays (t, u) with
        t > 0 of the cone {t >= 0, offset_i t + <u, normal_i> >= 0}, scaled
        to t = 1.  Empty when the polytope is empty or contains a line."""
        normal, _ = self.halfspaces[0]
        rows = [Vec((1,) + (0,) * normal.rank, normal.ambient)] + [
            Vec((d, *v.coords), v.ambient) for v, d in self.halfspaces
        ]
        amb = dual_ambient(normal.ambient)
        verts = (
            Vec(r.coords[1:], amb).scale(Fraction(1, r.coords[0]))
            for r in extreme_rays(rows, (), amb)
            if r.coords[0] > 0
        )
        return tuple(sorted(verts, key=lambda v: v.coords))


def poly_contains(p: Polytope, x: Vec) -> bool:
    return all(pair(x, v) >= -d for v, d in p.halfspaces)


def polytope_from_halfspaces(halfspaces) -> Polytope:
    hs = tuple((v, _norm_coord(d)) for v, d in halfspaces)
    if not hs:
        raise ValueError("a polytope needs at least one halfspace")
    return Polytope(hs)


def polytope(fan: Fan, d: Divisor) -> Polytope:
    """The divisor's polytope, one halfspace per global ray.

    Complete fans make this bounded automatically; emptiness is fine and
    shows up as an empty vertex tuple.
    """
    _check_divisor(fan, d)
    return polytope_from_halfspaces(list(zip(fan.rays, d.coeffs)))


def translated_polytope(p: Polytope, u: Vec) -> Polytope:
    """The polytope shifted by -u, so that u becomes the origin."""
    return Polytope(tuple((v, _norm_coord(d + pair(u, v))) for v, d in p.halfspaces))


def is_bounded(p: Polytope) -> bool:
    """True when the recession cone {u : <u, normal_i> >= 0} is trivial: the
    normals span, so that cone is pointed, and it has no extreme ray."""
    normals = [v for v, _ in p.halfspaces]
    if matrix_rank([v.coords for v in normals]) < normals[0].rank:
        return False
    return not extreme_rays(normals, (), dual_ambient(normals[0].ambient))

"""Torus-invariant rational divisors on a complete fan.

A divisor is a coefficient per global ray.  The central objects are the
local data u_sigma (the unique dual vector with <u_sigma, v_i> = -d_i on
each maximal cone, when it exists) and the rational polytope
P = {u : <u, v_i> >= -d_i} (Cox-Little-Schenck, Toric Varieties, 4.3).  A
Polytope holds only its halfspaces: the statements ask whether it contains
given points, never for its vertices.

A maximal cone's rays R_sigma (as rows) have full column rank, so
R_sigma u = -d_sigma has at most one solution, and if it has one it is
L (-d_sigma) for any left inverse L.  `Fan.inverses` holds den * L, an
integer matrix, once per fan; `local_data` writes -d_sigma = z / q with z
integer, forms den * L z and keeps it when R_sigma times it is den * z,
all in integers, dividing by den * q only at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .fans import Fan
from .linalg import Scalar, Vec, _integer_row, _norm_coord, _ratio, dual_ambient, pair


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


class NotQCartier(Exception):
    """Raised when a divisor has no local data on some maximal cone."""

    def __init__(self, cone_index: int):
        self.cone_index = cone_index
        super().__init__(f"no local data on maximal cone {cone_index}")


def _check_divisor(fan: Fan, d: Divisor):
    if len(d.coeffs) != len(fan.rays):
        raise ValueError("divisor length does not match the fan's ray count")


def local_data(fan: Fan, d: Divisor) -> tuple[Vec, ...]:
    """u_sigma for each maximal cone, read off its left inverse; raises
    NotQCartier on the first cone where that does not solve the system."""
    _check_divisor(fan, d)
    amb = dual_ambient(fan.rays[0].ambient)
    out = []
    for ci, (idxs, (inverse, den)) in enumerate(zip(fan.max_cones, fan.inverses)):
        z, q = _integer_row([-d.coeffs[i] for i in idxs])
        u = [sum(map(mul, row, z)) for row in inverse]  # den * q * u_sigma
        if any(sum(map(mul, fan.rays[i].coords, u)) != den * b for i, b in zip(idxs, z)):
            raise NotQCartier(ci)
        out.append(Vec(tuple(_ratio(x, den * q) for x in u), amb))
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


def poly_contains(p: Polytope, x: Vec) -> bool:
    return all(pair(x, v) >= -d for v, d in p.halfspaces)


def polytope_from_halfspaces(halfspaces) -> Polytope:
    hs = tuple((v, _norm_coord(d)) for v, d in halfspaces)
    if not hs:
        raise ValueError("a polytope needs at least one halfspace")
    return Polytope(hs)


def polytope(fan: Fan, d: Divisor) -> Polytope:
    """The divisor's polytope, one halfspace per global ray.

    Complete fans make this bounded automatically; it may be empty.
    """
    _check_divisor(fan, d)
    return polytope_from_halfspaces(list(zip(fan.rays, d.coeffs)))


def translated_polytope(p: Polytope, u: Vec) -> Polytope:
    """The polytope shifted by -u, so that u becomes the origin."""
    return Polytope(tuple((v, _norm_coord(d + pair(u, v))) for v, d in p.halfspaces))


"""Torus-invariant rational divisors on a complete fan.

A divisor is a coefficient per global ray.  The central objects are the
local data u_sigma (the unique dual vector with <u_sigma, v_i> = -d_i on
each maximal cone, when it exists) and the rational polytope
P_D = {u : <u, v_i> >= -d_i} (Cox-Little-Schenck, Toric Varieties, 4.3).
The statements ask only whether a shifted polytope P_D - u_sigma contains
given points, never for its vertices, so P_D is held as one table of
offsets: on each maximal cone, e_i = d_i + <u_sigma, v_i> for every ray,
so that P_D - u_sigma = {x : <x, v_i> + e_i >= 0}.  The offsets are
integers over one positive denominator per cone, and `in_shifted_polytope`
tests a point against a cone's row in integers.

A maximal cone's rays R_sigma (as rows) have full column rank, so
R_sigma u = -d_sigma has at most one solution, and if it has one it is
L (-d_sigma) for any left inverse L.  Each maximal cone carries den * L,
an integer matrix, as `Cone.inverse`, made when the cone was built, and
local data reads it as it is: `local_offsets` writes d = z / q with z
integer, takes -z_sigma in the cone's own ray order and forms
den * L (-z_sigma), which is den * q * u_sigma when a solution exists.
Pairing it with every ray gives den * q * e_i; the system is solved
exactly when these vanish on the cone's own rays.  All of it is in
integers, divided by den * q only at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .fans import Fan
from .linalg import Scalar, Vec, _integer_row, _norm_coord, _ratio, dual_ambient


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


# One row of a divisor's offset table: (E, q) with E_i / q = d_i + <u_sigma, v_i>
# for every global ray i, over their least common denominator q > 0.
Offsets = tuple[tuple[int, ...], int]


def local_offsets(fan: Fan, d: Divisor) -> tuple[tuple[Vec, ...], tuple[Offsets, ...]]:
    """u_sigma and its offset row for each maximal cone, read off the cone's
    left inverse; raises NotQCartier on the first cone where that does not
    solve the system."""
    _check_divisor(fan, d)
    amb = dual_ambient(fan.rays[0].ambient)
    rows = [r.coords for r in fan.rays]
    index = {r.coords: i for i, r in enumerate(fan.rays)}
    z, q = _integer_row(d.coeffs)
    local, offsets = [], []
    for ci, (idxs, cone) in enumerate(zip(fan.max_cones, fan.cones)):
        inverse, den = cone.inverse
        b = [-z[index[r.coords]] for r in cone.rays]
        u = [sum(map(mul, row, b)) for row in inverse]  # den * q * u_sigma
        es = [den * c + sum(map(mul, r, u)) for c, r in zip(z, rows)]  # den * q * e_i
        if any(es[i] for i in idxs):
            raise NotQCartier(ci)
        g = gcd(den * q, *es)
        local.append(Vec(tuple(_ratio(x, den * q) for x in u), amb))
        offsets.append((tuple(e // g for e in es), den * q // g))
    return tuple(local), tuple(offsets)


def local_data(fan: Fan, d: Divisor) -> tuple[Vec, ...]:
    """u_sigma for each maximal cone; NotQCartier on the first cone without."""
    return local_offsets(fan, d)[0]


def in_shifted_polytope(fan: Fan, offsets: Offsets, x: Vec) -> bool:
    """Whether x lies in P_D - u_sigma, given sigma's offset row (E, q):
    q <x, v_i> + E_i >= 0 for every ray."""
    es, q = offsets
    return all(q * sum(map(mul, x.coords, r.coords)) + e >= 0 for r, e in zip(fan.rays, es))


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

"""Complete fans of pointed cones, with validated wall structure.

A fan is built from a global ray list and index sets naming each maximal
cone's extreme rays.  Construction validates everything the rest of the
package relies on: cones are full-dimensional and pointed, each facet of a
maximal cone is a whole facet of exactly one neighbour on its other side,
and the cones cover space exactly once, which makes them meet face to face.

Each shared facet becomes a Wall.  Viewed from the cone sigma, a wall
carries the primitive vector u in the dual lattice that vanishes on the
wall, is nonnegative on sigma, and is strictly negative on the rays of the
neighbour tau that are not on the wall.  Every ray of either cone off the
wall is a test ray for wall-crossing computations; `build_fan` checks the
sign of u on each of them once and keeps |<u, v_j>| with the wall, so a
divisor's wall values are read off its offsets without pairing again.

One point decides the covering: the pseudo-manifold characterisation of
triangulations (De Loera, Rambau, Santos, *Triangulations*, 2010).  Let the
cones be full-dimensional and pointed in R^n, n >= 2, with facets matched
as above, and for x on no cone's boundary let deg(x) count the cones whose
interior holds x.

1. deg is constant.  Take y on no codimension-2 face.  A cone with y on its
   boundary is, near y, the closed half-space of the one facet holding y in
   its relative interior, and its partner across that facet is the other
   half-space: these cones pair off, each pair counting once near y, so deg
   is locally constant there.  The codimension-2 faces are finitely many
   cones of dimension at most n - 2, which do not disconnect R^n, so deg is
   one number d >= 1.
2. p, the sum of cone 0's rays, is interior to cone 0.  If d >= 2, points
   arbitrarily near p are interior to cone 0 and to another cone, so some
   cone j != 0 holds p: "cones 0 and j overlap".  If d = 1, step 3 makes
   the cones a fan; cone 0 meets every other cone in a proper face (else
   the two would be one cone), and no proper face holds p.
3. d = 1 gives a complete fan.  The union of the closed cones is dense, so
   it is R^n.  Let F be a face of a cone sigma and S_F the cones reached
   from sigma across facets that contain F; each has F as a face.  Modulo
   span F they are pointed, full-dimensional and matched along their
   facets through F, so step 1 in dimension n - dim F (plainly for 0 or 1)
   has them cover each point near relint F off the boundaries equally
   often, hence once.  A cone tau through q in relint F has interior points
   near q, which S_F covers already; as d = 1, tau is in S_F and F is a
   face of tau.  For cones sigma and tau take q in relint(sigma & tau) and
   F the face of sigma with q in relint F.  A face holding a point of the
   relative interior of a convex set holds the set, so sigma & tau lies in
   F, and F lies in tau: sigma & tau = F, a face of both.

Each wall-connected component has a degree of its own by step 1, so d = 1
also makes the wall graph connected.  A facet without partner lies on the
boundary of the support unless the sum of its rays lies in another cone,
which in a fan would share the whole facet; that is reported as an
overlap.  In rank 1 a pointed cone is a half-line with facet {0}, and
matching leaves exactly the two half-lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .cones import Cone, NotPointed, cone_from_generators, contains, dual_cone
from .lambdas import CoefficientSums
from .linalg import Vec, is_primitive, pair
from .semigroups import hilbert_basis


@dataclass(frozen=True)
class Wall:
    """A wall of the cones sigma and tau: its rays, its normal u, and each
    ray j of sigma (`near`) and of tau (`far`) off the wall paired with its
    weight w_j = |<u, v_j>| > 0."""

    sigma: int
    tau: int
    rays: tuple[int, ...]
    u: Vec
    near: tuple[tuple[int, int], ...]
    far: tuple[tuple[int, int], ...]

    def __str__(self):
        return f"wall {self.rays} of cones {self.sigma} and {self.tau}"


@dataclass(frozen=True)
class Fan:
    rank: int
    rays: tuple[Vec, ...]
    max_cones: tuple[tuple[int, ...], ...]
    cones: tuple[Cone, ...]
    walls: tuple[Wall, ...]

    # Derived per-cone data, built on first use and kept for the fan's
    # lifetime; cached properties are not fields, so equality and hashing
    # ignore them.  `duals` serves the statements' dual cones and what is
    # built on them; a divisor's local data reads each cone's own inverse,
    # and a cone's wall minima and neighbours read `cone_walls`.
    @cached_property
    def duals(self) -> tuple[Cone, ...]:
        """The dual of each maximal cone."""
        return tuple(dual_cone(c) for c in self.cones)

    @cached_property
    def cone_walls(self) -> tuple[tuple[int, ...], ...]:
        """The indices in `walls` of each maximal cone's walls, ascending."""
        out = [[] for _ in self.max_cones]
        for wi, w in enumerate(self.walls):
            out[w.sigma].append(wi)
            out[w.tau].append(wi)
        return tuple(map(tuple, out))

    @cached_property
    def coefficient_sums(self) -> tuple[CoefficientSums, ...]:
        """lambda_min and lambda_max on each maximal cone's dual."""
        return self._each_dual(CoefficientSums)

    @cached_property
    def hilbert_bases(self) -> tuple[tuple[Vec, ...], ...]:
        """The Hilbert basis of each maximal cone's dual."""
        return self._each_dual(hilbert_basis)

    def _each_dual(self, build) -> tuple:
        """build(dual) for each maximal cone's dual; a dual too large to
        build is named by its cone's index."""
        out = []
        for ci, dual in enumerate(self.duals):
            try:
                out.append(build(dual))
            except ValueError as exc:
                raise ValueError(f"dual of maximal cone {ci}: {exc}") from None
        return tuple(out)


# The largest rank and ray count build_fan accepts, checked before any work
# starts.  A rank past 12 would already put interior-bound's smallest box,
# 3^rank points, over MAX_BOX_POINTS.
MAX_RANK = 12
MAX_RAYS = 256


def check_rank(rank: int) -> None:
    """Refuse a rank past MAX_RANK before any work for it starts."""
    if rank > MAX_RANK:
        raise ValueError(f"the fan has rank {rank}, more than {MAX_RANK}")


def _refuse_overlap(rays, cones, i: int, idxs: tuple[int, ...]) -> None:
    """Reject the fan if a maximal cone other than cone i holds the sum of
    the rays idxs (a relative-interior point of the face they span)."""
    rows = [rays[k].coords for k in idxs]
    coords = tuple(sum(r[j] for r in rows) for j in range(len(rays[0].coords)))
    point = Vec(coords, rays[0].ambient)
    for j, c in enumerate(cones):
        if j != i and contains(c, point):
            raise ValueError(f"not a fan: cones {min(i, j)} and {max(i, j)} overlap")


def build_fan(rays, max_cones, rank: int) -> Fan:
    """Validate and assemble a complete fan.

    Raises ValueError("not a fan: ...") when cones overlap or fail face
    compatibility, and ValueError("fan not complete: ...") when some facet
    has no neighbour.  A fan past MAX_RANK or MAX_RAYS is refused before
    any work starts, and a cone before the step of its double description
    that would take it past `cones.MAX_PAIR_TESTS` pair tests.
    """
    rays = tuple(rays)
    check_rank(rank)
    if len(rays) > MAX_RAYS:
        raise ValueError(f"the fan has {len(rays)} rays, more than {MAX_RAYS}")
    if not rays:
        raise ValueError("not a fan: no rays")
    for i, r in enumerate(rays):
        if r.rank != rank:
            raise ValueError(f"not a fan: ray {i} has rank {r.rank}, expected {rank}")
        if not is_primitive(r):
            raise ValueError(f"not a fan: ray {i} is not a primitive lattice vector")
    if len(set(rays)) != len(rays):
        raise ValueError("not a fan: duplicate rays")

    index_sets = []
    cones = []
    used = set()
    for ci, idxs in enumerate(max_cones):
        idxs = tuple(sorted(set(idxs)))
        if not idxs:
            raise ValueError(f"not a fan: cone {ci} has no rays")
        if any(i < 0 or i >= len(rays) for i in idxs):
            raise ValueError(f"not a fan: cone {ci} names an unknown ray")
        try:
            c = cone_from_generators([rays[i] for i in idxs])
        except NotPointed:
            raise ValueError(f"not a fan: cone {ci} is not pointed") from None
        except ValueError as exc:
            raise ValueError(f"cone {ci}: {exc}") from None
        if not c.is_full_dim:
            raise ValueError(f"not a fan: cone {ci} is not full-dimensional")
        if set(c.rays) != {rays[i] for i in idxs}:
            raise ValueError(f"not a fan: cone {ci} lists a non-extreme ray")
        index_sets.append(idxs)
        cones.append(c)
        used.update(idxs)
    if not cones:
        raise ValueError("not a fan: no maximal cones")
    if used != set(range(len(rays))):
        missing = sorted(set(range(len(rays))) - used)
        raise ValueError(f"not a fan: ray {missing[0]} is not used by any maximal cone")
    if len(set(index_sets)) != len(index_sets):
        raise ValueError("not a fan: duplicate maximal cones")

    # Facet matching: every facet of every maximal cone must be shared with
    # exactly one other maximal cone, with opposite inner normals.  Owners
    # are listed in cone order, and a cone's facets have distinct ray sets,
    # so each wall's owners come as sigma < tau.  A normal is an integer row
    # in the dual ambient of the rank-checked rays of its own cone, so the
    # rows are multiplied as they are.
    facets: dict[tuple[int, ...], list[tuple[int, Vec]]] = {}
    for ci, (c, idxs) in enumerate(zip(cones, index_sets)):
        for f in c.facet_normals:
            fc = f.coords
            wall_rays = tuple(i for i in idxs if sum(map(mul, fc, rays[i].coords)) == 0)
            facets.setdefault(wall_rays, []).append((ci, f))

    walls = []
    for wall_rays, owners in sorted(facets.items()):
        if len(owners) == 1:
            _refuse_overlap(rays, cones, owners[0][0], wall_rays)
            raise ValueError("fan not complete: a boundary facet has no neighbour")
        if len(owners) > 2:
            raise ValueError("not a fan: a facet is shared by more than two cones")
        (ci, fi), (cj, fj) = owners
        if fj != -fi:
            raise ValueError("not a fan: shared facet normals are not opposite")
        near = tuple((k, pair(fi, rays[k])) for k in index_sets[ci] if k not in wall_rays)
        far = tuple((k, -pair(fi, rays[k])) for k in index_sets[cj] if k not in wall_rays)
        wall = Wall(ci, cj, wall_rays, fi, near, far)
        if any(w <= 0 for _, w in near + far):
            raise RuntimeError(f"internal: {wall}: normal not negative beyond the wall")
        walls.append(wall)

    # Covering degree 1 (module docstring): cone 0's ray sum is in no other cone.
    _refuse_overlap(rays, cones, 0, index_sets[0])
    walls.sort(key=lambda w: (w.sigma, w.tau, w.rays))
    return Fan(rank, rays, tuple(index_sets), tuple(cones), tuple(walls))

"""Complete fans of pointed cones, with validated wall structure.

A fan is built from a global ray list and index sets naming each maximal
cone's extreme rays.  Construction validates everything the rest of the
package relies on: cones are full-dimensional and pointed, every pair of
cones meets in a common face, every facet of every maximal cone is shared
with exactly one neighbour (completeness), and the adjacency graph is
connected.

Each shared facet becomes a Wall.  Viewed from the cone sigma, a wall
carries the primitive vector u in the dual lattice that vanishes on the
wall, is nonnegative on sigma, and is strictly negative on the rays of the
neighbour tau that are not on the wall.  Those far-side rays are the
candidate test rays for wall-crossing computations; all of them are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cones import Cone, NotPointed, cone_from_generators, dual_cone, intersect_cones, is_face
from .lambdas import CoefficientSums
from .linalg import Vec, is_primitive, pair


@dataclass(frozen=True)
class Wall:
    sigma: int
    tau: int
    rays: tuple[int, ...]
    u: Vec
    outside: tuple[int, ...]


@dataclass(frozen=True)
class Fan:
    rank: int
    rays: tuple[Vec, ...]
    max_cones: tuple[tuple[int, ...], ...]
    cones: tuple[Cone, ...]
    walls: tuple[Wall, ...]

    # Derived per-cone data, built on first use and kept for the fan's
    # lifetime; cached properties are not fields, so equality and hashing
    # ignore them.
    @cached_property
    def duals(self) -> tuple[Cone, ...]:
        """The dual of each maximal cone, biduality-checked once per fan."""
        return tuple(dual_cone(c) for c in self.cones)

    @cached_property
    def coefficient_sums(self) -> tuple[CoefficientSums, ...]:
        """lambda_min and lambda_max on each maximal cone's dual."""
        return tuple(CoefficientSums(d) for d in self.duals)

    def flip(self, wall: Wall) -> Wall:
        """The same wall viewed from the other side."""
        sigma_rays = self.max_cones[wall.sigma]
        outside = tuple(i for i in sigma_rays if i not in wall.rays)
        return Wall(wall.tau, wall.sigma, wall.rays, -wall.u, outside)

    def walls_of(self, cone_index: int) -> list[Wall]:
        """All walls of one maximal cone, oriented so sigma == cone_index."""
        out = []
        for w in self.walls:
            if w.sigma == cone_index:
                out.append(w)
            elif w.tau == cone_index:
                out.append(self.flip(w))
        return out


def build_fan(rays, max_cones, rank: int) -> Fan:
    """Validate and assemble a complete fan.

    Raises ValueError("not a fan: ...") when cones overlap or fail face
    compatibility, and ValueError("fan not complete: ...") when some facet
    has no neighbour or the support is disconnected.
    """
    rays = tuple(rays)
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

    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            common = intersect_cones(cones[i], cones[j])
            shared = set(common.rays)
            if not (is_face(shared, cones[i]) and is_face(shared, cones[j])):
                raise ValueError(
                    f"not a fan: cones {i} and {j} do not intersect in a common face"
                )

    # Facet matching: every facet of every maximal cone must be shared with
    # exactly one other maximal cone, with opposite inner normals.
    facets: dict[tuple[int, ...], list[tuple[int, Vec]]] = {}
    for ci, (c, idxs) in enumerate(zip(cones, index_sets)):
        for f in c.facet_normals:
            wall_rays = tuple(i for i in idxs if pair(f, rays[i]) == 0)
            facets.setdefault(wall_rays, []).append((ci, f))

    walls = []
    for wall_rays, owners in sorted(facets.items()):
        if len(owners) == 1:
            raise ValueError("fan not complete: a boundary facet has no neighbour")
        if len(owners) > 2:
            raise ValueError("not a fan: a facet is shared by more than two cones")
        (ci, fi), (cj, fj) = owners
        if fj != -fi:
            raise ValueError("not a fan: shared facet normals are not opposite")
        if ci > cj:
            ci, cj, fi = cj, ci, fj
        outside = tuple(k for k in index_sets[cj] if k not in wall_rays)
        for k in outside:
            if pair(fi, rays[k]) >= 0:
                raise RuntimeError("internal: wall normal not negative beyond the wall")
        walls.append(Wall(ci, cj, wall_rays, fi, outside))

    # Connectivity of the wall-adjacency graph.
    adj: dict[int, set[int]] = {i: set() for i in range(len(cones))}
    for w in walls:
        adj[w.sigma].add(w.tau)
        adj[w.tau].add(w.sigma)
    seen = {0}
    queue = [0]
    while queue:
        cur = queue.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    if len(seen) != len(cones):
        raise ValueError("fan not complete: support is disconnected")

    walls.sort(key=lambda w: (w.sigma, w.tau, w.rays))
    return Fan(rank, rays, tuple(index_sets), tuple(cones), tuple(walls))

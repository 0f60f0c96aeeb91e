"""Pointed rational polyhedral cones with exact V- and H-descriptions.

A Cone eagerly stores both its primitive extreme rays and its primitive
inner facet normals.  Cones of lower dimension than the ambient lattice
additionally carry span equations, so membership tests stay a matter of
evaluating pairings.  `cone_from_generators` does work in proportion to
the cone: rank many generators cost one `integer_left_inverse`, which also
decides whether they are independent.  If they are, its columns are the
facet normals, and the cone keeps it as `Cone.inverse`; its dual derives
its own from it with no elimination, and so the fan's local data, the
coefficient sums and the Hilbert bases on the dual need none, and
`classify` reads regularity off its denominator.  Any other
cone finds its facet normals, the rays of its dual, by the double
description method, which starts from the simplicial cone of rank many
independent generators and adds the others one at a time.  Each normal
comes with its tight set, the generators vanishing on it: the normals'
rank decides pointedness without an LP, and the tight sets decide which
generators are extreme (the tight-set rule).  A full-dimensional cone's
dual needs no second run: `dual_cone` swaps the two descriptions, and an
inverse derived without elimination is checked where it is made.  A
non-simplicial cone has no single inverse: on first use it reads a left
inverse off rank independent rays, which is all its users need.  A run
past `MAX_PAIR_TESTS` pair tests is refused before the step that would
pass the cap starts.
`triangulate` splits a cone into simplicial cones on its own rays, for
Hilbert bases and for the witnesses of coefficient sums; `piece_inverse`
gives each piece's inverse, the cone's own when the piece is the cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .linalg import (
    Vec,
    dual_ambient,
    independent_rows,
    integer_left_inverse,
    matrix_rank,
    pair,
    perp_basis,
    primitivize,
)


@dataclass(frozen=True)
class Cone:
    ambient: str
    rank: int
    rays: tuple[Vec, ...]
    facet_normals: tuple[Vec, ...]
    span_equations: tuple[Vec, ...]

    @property
    def dim(self) -> int:
        return self.rank - len(self.span_equations)

    @property
    def is_full_dim(self) -> bool:
        return not self.span_equations

    # Not a field, so equality and hashing ignore it.
    @cached_property
    def inverse(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(den * L, den) with L @ R = I for R the matrix with the rays as
        rows: an integer matrix and its least common denominator.  Defined
        for full-dimensional cones.  `cone_from_generators` and `dual_cone`
        fill it in for a simplicial cone from the elimination that built it.
        Any other cone reads a left inverse off rank independent rays on
        first use: the columns of B^-1, for B the matrix of those rays, go
        to those rays' positions, and every other column is zero.  A
        non-simplicial cone has many left inverses, and its users need only
        L @ R = I: `local_offsets` checks every ray after it solves, and
        `CoefficientSums` needs only L 1, which is w whenever R w = 1."""
        rows = [r.coords for r in self.rays]
        basis = independent_rows(rows)
        scaled, den = integer_left_inverse([rows[i] for i in basis])
        placed = dict(zip(basis, zip(*scaled)))
        zero = (0,) * len(scaled)
        return tuple(zip(*(placed.get(i, zero) for i in range(len(rows))))), den

    def __repr__(self):
        rays = ", ".join(repr(r) for r in self.rays)
        return f"Cone[{rays}]"


@dataclass(frozen=True)
class ConeClass:
    simplicial: bool
    regular: bool


def _sorted_vecs(vecs) -> tuple[Vec, ...]:
    return tuple(sorted(set(vecs), key=lambda v: v.coords))


# The most (+, -) ray pairs the double description tests, summed over its
# steps; a step that would pass it is refused before it starts.
MAX_PAIR_TESTS = 100_000


def _double_description(rows, basis: list[int]) -> list[tuple[tuple[int, ...], int]]:
    """The extreme rays of {y : a.y >= 0 for a in rows}, primitive, each with
    its tight set: the rows vanishing on it, as a bit mask over row indices.

    The rows have full column rank d, and the rows at `basis` are d
    independent ones, so the cone is pointed.  It starts as their simplicial
    cone, read off one inverse, and takes the other rows one at a time
    (double description: Motzkin, Raiffa, Thompson and Thrall, 1953; Fukuda
    and Prodon, Combinatorics and Computer Science, 1996).  A new row a
    keeps the rays with a.y >= 0 and joins each ray with a.y > 0 to each
    adjacent ray with a.y < 0 in one on a.y = 0.  Two extreme rays are
    adjacent when the rows tight on both cut out a two-dimensional face:
    those rows number at least d - 2, and no third ray is tight on all of
    them.  More than MAX_PAIR_TESTS pairs raise ValueError.
    """
    d = len(basis)
    scaled, _ = integer_left_inverse([rows[i] for i in basis])
    # column j pairs positively with row basis[j] and to 0 with the others
    everything = sum(1 << i for i in basis)
    rays = [(_primitive(col), everything ^ 1 << i) for i, col in zip(basis, zip(*scaled))]
    started = set(basis)
    tests = 0
    for k, a in enumerate(rows):
        if k in started:
            continue
        bit = 1 << k
        pos, neg, kept = [], [], []
        for y, t in rays:
            v = sum(map(mul, a, y))
            if v > 0:
                pos.append((y, t, v))
                kept.append((y, t))
            elif v < 0:
                neg.append((y, t, v))
            else:
                kept.append((y, t | bit))
        tests += len(pos) * len(neg)
        if tests > MAX_PAIR_TESTS:
            raise ValueError(
                f"the facet search needs at least {tests} pair tests, more than {MAX_PAIR_TESTS}"
            )
        masks = [t for _, t in rays]
        for y1, t1, v1 in pos:
            for y2, t2, v2 in neg:
                common = t1 & t2
                # t1 and t2 contain common; a third ray may not
                if common.bit_count() < d - 2 or sum(common & t == common for t in masks) > 2:
                    continue
                z = [v1 * q - v2 * p for p, q in zip(y1, y2)]
                kept.append((_primitive(z), common | bit))
        rays = kept
    return rays


def _primitive(row) -> tuple[int, ...]:
    """A nonzero integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return tuple(x // g for x in row)


class NotPointed(ValueError):
    """Raised when generators span a cone that contains a line."""


def cone_from_generators(gens: list[Vec]) -> Cone:
    """Build a pointed cone, discarding redundant generators.

    Raises ValueError on an empty list or a zero generator, and NotPointed
    on a non-pointed generating set.

    Rank many distinct primitive generators are inverted first, and the
    inversion fails exactly when they are dependent.  Otherwise they are a
    basis: each is extreme, the cone is pointed, and column j of the
    inverse of the matrix with rows g_i pairs to 0 with every g_i but g_j
    and positively with g_j, so the primitive columns are the facet normals.
    The cone keeps the inverse.

    Any other cone takes its facet normals from the double description,
    each with its tight set, and reads extremality off tight sets, tight(x)
    being the indices of the normals vanishing at x.  A lower-dimensional
    cone's normals are found within the span of its generators, which the
    `perp_basis` equations cut out, with rank many independent generators
    as coordinates.  The normals in tight(g) cut out the smallest face
    through g, within the span for a lower-dimensional cone (Ziegler,
    Lectures on Polytopes, 1995, section 2.2), and that face is generated
    by the generators it holds: the h with tight(h) containing tight(g).
    So it is the ray through g exactly when no other generator h has
    tight(h) containing tight(g).
    """
    gens = list(gens)
    if not gens:
        raise ValueError("cone needs at least one generator")
    amb = gens[0].ambient
    rank = len(gens[0].coords)
    if any(g.ambient != amb or len(g.coords) != rank for g in gens):
        raise ValueError("generators must share ambient and rank")
    if any(g.is_zero for g in gens):
        raise ValueError("zero generator")
    prim = sorted({primitivize(g) for g in gens}, key=lambda v: v.coords)
    if len(prim) == rank:
        try:
            scaled, den = integer_left_inverse([g.coords for g in prim])
        except ValueError:
            pass  # dependent generators: their span equations decide below
        else:
            # Independent columns give distinct primitive normals.
            normals = sorted(_primitive(col) for col in zip(*scaled))
            dual = dual_ambient(amb)
            c = Cone(amb, rank, tuple(prim), tuple(Vec(w, dual) for w in normals), ())
            c.__dict__["inverse"] = (tuple(map(tuple, scaled)), den)
            return c

    rows = [g.coords for g in prim]
    basis = independent_rows(rows)
    eqs = []
    if len(basis) < rank:
        # y stands for the normal sum(y_i b_i) over the basis generators b_i,
        # which pairs with g as y pairs with (<b_i, g>)_i
        eqs = perp_basis(prim)
        span = [rows[i] for i in basis]
        rows = [tuple(sum(map(mul, b, g)) for b in span) for g in rows]
    found = _double_description(rows, basis)
    if eqs:
        columns = list(zip(*span))
        found = [(_primitive([sum(map(mul, y, col)) for col in columns]), t) for y, t in found]
    found.sort()
    normals = tuple(Vec(w, dual_ambient(amb)) for w, _ in found)
    # The facet normals are the rays of the dual, taken within the span;
    # the cone is pointed iff they span it.
    if matrix_rank([f.coords for f in normals]) != rank - len(eqs):
        raise NotPointed("not pointed")
    # tight(g) as a bit mask over the normals
    tight = [sum(1 << j for j, (_, t) in enumerate(found) if t >> i & 1) for i in range(len(prim))]
    # g's own tight set is the only one containing it
    extreme = [g for g, t in zip(prim, tight) if sum(t & u == t for u in tight) == 1]
    return Cone(amb, rank, tuple(extreme), normals, _sorted_vecs(eqs))


def contains(c: Cone, x: Vec) -> bool:
    """Cone membership, boundary included.  The ambient and rank of x are
    checked here once; the cone's normals and equations are its own rows."""
    if x.ambient != c.ambient or len(x.coords) != c.rank:
        raise ValueError("point does not live in the cone's ambient lattice")
    xs = x.coords
    return all(sum(map(mul, f.coords, xs)) >= 0 for f in c.facet_normals) and all(
        sum(map(mul, e.coords, xs)) == 0 for e in c.span_equations
    )


def _inverts(inverse, den: int, rays) -> bool:
    """Whether inverse @ R = den * I, for R the matrix with the rays as rows."""
    columns = list(zip(*(r.coords for r in rays)))
    for i, row in enumerate(inverse):
        for j, col in enumerate(columns):
            if sum(map(mul, row, col)) != (den if i == j else 0):
                return False
    return True


def dual_cone(c: Cone) -> Cone:
    """Dual of a full-dimensional pointed cone, read off c: its rays are c's
    facet normals and its facet normals c's rays.

    A simplicial c hands its inverse on.  With (den * L, den) = c.inverse,
    column j of den * L is g_j n_j, for n_j the dual ray it spans and
    g_j = gcd of the column, and it pairs to den with r_j and to 0 with every
    other ray of c.  So g_j r_j / den pairs to 1 with n_j and to 0 with every
    other dual ray: these are the columns of the dual's inverse, in the
    dual's ray order, brought to their least common denominator."""
    if not c.is_full_dim:
        raise ValueError("dual_cone requires a full-dimensional cone")
    d = Cone(dual_ambient(c.ambient), c.rank, c.facet_normals, c.rays, ())
    if len(c.rays) == c.rank:
        scaled, den = c.inverse
        columns = []
        for r, col in zip(c.rays, zip(*scaled)):
            g = gcd(*col)
            columns.append((tuple(x // g for x in col), g, r.coords))
        columns.sort(key=lambda entry: entry[0])
        d_den = lcm(*(den // gcd(den, g) for _, g, _ in columns))
        inverse = tuple(zip(*([x * (g * d_den // den) for x in r] for _, g, r in columns)))
        if not _inverts(inverse, d_den, d.rays):
            raise RuntimeError(f"internal: the dual of {c!r}: the inverse does not invert the rays")
        d.__dict__["inverse"] = (inverse, d_den)
    return d


def triangulate(c: Cone) -> list[tuple[Vec, ...]]:
    """Split a pointed cone into simplicial cones on the same ray set."""
    if len(c.rays) == c.dim:
        return [c.rays]
    pivot = c.rays[0]
    out = []
    for f in c.facet_normals:
        if pair(f, pivot) == 0:
            continue
        tight = [r for r in c.rays if pair(f, r) == 0]
        for simplex in triangulate(cone_from_generators(tight)):
            out.append(simplex + (pivot,))
    return out


def piece_inverse(c: Cone, piece: tuple[Vec, ...]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(den * L, den) with L @ W = I, for W the matrix with the piece's
    generators as columns: c's inverse transposed when the piece is all of
    the full-dimensional cone c, else one `integer_left_inverse`."""
    if piece == c.rays and c.is_full_dim:
        scaled, den = c.inverse
        return tuple(zip(*scaled)), den
    scaled, den = integer_left_inverse(list(zip(*(g.coords for g in piece))))
    return tuple(map(tuple, scaled)), den


def classify(c: Cone) -> ConeClass:
    """Whether c is simplicial, and regular: simplicial with rays a lattice
    basis.  That is read off the inverse a simplicial cone carries: with
    L @ R = I, |det R| = 1 makes L integral, and an integral L gives
    det L * det R = 1, so c is regular exactly when its den is 1."""
    if not c.is_full_dim:
        raise ValueError("classify requires a full-dimensional cone")
    simplicial = len(c.rays) == c.rank
    return ConeClass(simplicial, simplicial and c.inverse[1] == 1)

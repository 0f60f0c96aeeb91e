"""Independent brute-force oracles and reference implementations used only
by the test suite.

The rational Gauss-Jordan step `pivot` and `reference_rref` built on it
are the reference for the fraction-free `linalg._echelon` and the inverse
`integer_left_inverse` reads off it; `pivot` also runs the simplex
tableau.  `solve_matrix` and `solve_exact` solve linear systems by
`reference_rref` alone, so they share nothing with the integer kernel
they check: they are the reference for `divisors.local_data` (cone by
cone, with "inconsistent" where a divisor is not Q-Cartier) and for the
one-hyperplane test of `CoefficientSums`.  `strictly_inside` is cone
interior membership, which production code never asks for.  The
fiber-polytope vertex enumeration here goes through plain subset
enumeration and exact Gaussian solves, never through the simplex
tableau.  The exact simplex (`lp_solve`, with `lp_feasible` and
`in_nonneg_span`) lives here too: production code decides coefficient
sums in closed form from hull facets and pointedness from the rank of the
facet normals the double description finds, so the LP is a reference, not
a layer.  The box
scans enumerate every lattice point of a bounding box, which the
production code never does: `box_interior_points` tests each point of
the box against every facet normal, where `harness.interior_points`
reads the last coordinate's interval off the normals;
`interior_max_values` certifies lambda_max point by point (`max_value`),
where `CoefficientSums.max_below_on_line` settles one line at a time; and
`lattice_points` scans the box around a polytope's vertices, which come
from exact solves of every square subsystem (`subset_vertices`), with
boundedness from one LP per direction (`lp_bounded`).
The rational `Polytope`, with `polytope`, `translated_polytope` and
`poly_contains`, is the reference for the integer offset table of
`divisors.local_offsets` and `in_shifted_polytope`.  `wall_value` pairs
the jump u_sigma - u_tau with every ray off the wall and divides by the
normal's pairing, where `intersections.wall_value` divides offsets by the
weights `build_fan` keeps on each wall.
`reference_hilbert_basis` scans every parallelepiped candidate against
every other, where `semigroups.hilbert_basis` takes the rank-2 closed form
or reduces against the basis found so far in degree order.  `generates`
looks for every Hilbert basis element among given points, and
`edge_lengths` checks each curve value against the lattice length of its
polytope edge.  The hull oracles find facets by a subset scan over the points and
vertices by one LP per point, where production code builds one cone over
the lifted points.  The fan reference intersects every pair of maximal
cones and asks for a common face, where `fans.build_fan` reads the
covering degree off one point.  The dual-cone reference rebuilds each
dual from the cone's facet normals and checks biduality, where
`cones.dual_cone` swaps the two descriptions.
`extreme_rays` is the subset scan: it solves the equations together with
every choice of rank - 1 - rank(equations) inequalities and keeps each
one-dimensional solution that meets all the inequalities, C(m, rank - 1)
eliminations for m inequalities and no equation.
`reference_cone_from_generators` runs it for the facet normals of every
cone and asks one nullspace per generator whether it is extreme, where
`cones.cone_from_generators` inverts a simplicial cone's generators, runs
the double description on any other cone and compares tight sets.
`intersect_cones` scans the two cones' joint inequalities.  `walls_of`
flips each wall to its cone's side, and the cone minima evaluate each there, where
`harness` reads one value per wall.  `lambda_min` and `lambda_max` build
a `CoefficientSums` per call; `rational_coefficient_sum` evaluates a
coefficient sum in Fraction arithmetic, where `CoefficientSums` works in
integers.
`reference_norm_coord`, `reference_integer_row` and `reference_enc_scalar`
pass every value through `Fraction()`, where `linalg` and `cli` read the
numerator and denominator of an int or a Fraction as they are.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, lcm
from operator import le, mul

from toricva.cones import (
    Cone,
    NotPointed,
    _sorted_vecs,
    cone_from_generators,
    contains,
    dual_cone,
    triangulate,
)
from toricva.divisors import Divisor, _check_divisor, local_data
from toricva.fans import Fan, Wall
from toricva.harness import Failure
from toricva.hulls import affine_rank
from toricva.intersections import solve_divisor
from toricva.lambdas import CoefficientSums, LambdaValue
from toricva.linalg import (
    Scalar,
    Vec,
    _norm_coord,
    dual_ambient,
    integer_left_inverse,
    is_primitive,
    matrix_rank,
    nullspace,
    pair,
    perp_basis,
    primitivize,
    vec,
)
from toricva.semigroups import _parallelepiped_points, hilbert_basis


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


def wall_value(fan: Fan, local: tuple[Vec, ...], wall: Wall) -> Fraction:
    """Reference for `intersections.wall_value`: the jump u_sigma - u_tau
    paired with each ray of either cone off the wall, over minus the wall
    normal's pairing with that ray, which must be the same for all of them
    and which checks the normal's sign on both sides."""
    jump = local[wall.sigma] - local[wall.tau]
    vals = set()
    for j in set(fan.max_cones[wall.sigma] + fan.max_cones[wall.tau]) - set(wall.rays):
        denom = -pair(wall.u, fan.rays[j])
        if denom == 0 or (denom > 0) != (j in fan.max_cones[wall.tau]):
            raise RuntimeError(f"internal: {wall}: wall normal is not negative on the far side")
        vals.add(Fraction(pair(jump, fan.rays[j])) / denom)
    if len(vals) != 1:
        raise RuntimeError(f"internal: {wall}: wall value depends on the chosen outside ray")
    return vals.pop()


def fiber_points(cols, target):
    """Basic feasible points of {a >= 0 : sum a_i cols_i = target}.

    Enumerates every subset of columns that solves the system uniquely,
    pads with zeros, and keeps the nonnegative ones.  Every vertex of the
    fiber polytope shows up, so min/max of any linear functional over the
    returned points equals the exact optimum over the whole polytope.
    """
    dim = len(target)
    ncols = len(cols)
    points = set()
    if all(t == 0 for t in target):
        points.add((Fraction(0),) * ncols)
    for k in range(1, min(dim, ncols) + 1):
        for subset in combinations(range(ncols), k):
            rows = [[cols[j][i] for j in subset] for i in range(dim)]
            res = solve_matrix(rows, target)
            if res.status != "unique":
                continue
            if any(a < 0 for a in res.solution):
                continue
            full = [Fraction(0)] * ncols
            for j, a in zip(subset, res.solution):
                full[j] = Fraction(a)
            points.add(tuple(full))
    return sorted(points)


def sum_range(cols, target):
    """Exact (min, max) of the coefficient sum over the fiber polytope.

    Returns None if target is not a nonnegative combination of cols.
    """
    pts = fiber_points(cols, target)
    if not pts:
        return None
    sums = [sum(p) for p in pts]
    return min(sums), max(sums)


def pivot(rows: list[list[Fraction]], r: int, c: int) -> None:
    """One Gauss-Jordan step in place: scale row r so that rows[r][c] is 1,
    then clear column c from every other row."""
    pv = rows[r][c]
    rows[r] = [x / pv for x in rows[r]]
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]


def reference_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reference for `linalg._echelon` by rational Gauss-Jordan: reduced row
    echelon form with the first nonzero entry as pivot, as (reduced rows,
    pivot column indices)."""
    a = [[Fraction(x) for x in row] for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pivot(a, r, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


@dataclass(frozen=True)
class LinearSolution:
    """Outcome of `solve_matrix`: status "unique", "inconsistent" or
    "underdetermined".  An underdetermined solution sets every free
    variable to zero."""

    status: str
    solution: tuple | None


def solve_matrix(rows, rhs) -> LinearSolution:
    """Solve rows @ x = rhs by rational Gauss-Jordan on [rows | rhs]."""
    rows = [list(r) for r in rows]
    rhs = list(rhs)
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    if not rows:
        raise ValueError("empty system")
    ncols = len(rows[0])
    red, pivots = reference_rref([row + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return LinearSolution("inconsistent", None)
    sol = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        sol[c] = red[r][ncols]
    status = "unique" if len(pivots) == ncols else "underdetermined"
    return LinearSolution(status, tuple(sol))


def solve_exact(rows: list[Vec], rhs, ambient: str | None = None) -> LinearSolution:
    """Solve <x, row_i> = rhs_i for x in the dual of the rows' ambient (or
    in `ambient`), by `solve_matrix`."""
    if not rows:
        raise ValueError("empty system")
    res = solve_matrix([list(v.coords) for v in rows], rhs)
    if res.solution is None:
        return res
    target = ambient if ambient is not None else dual_ambient(rows[0].ambient)
    return LinearSolution(res.status, Vec(res.solution, target))


def strictly_inside(c: Cone, x: Vec) -> bool:
    """Is x in the interior of the full-dimensional cone c: every facet
    normal positive on it."""
    if not c.is_full_dim:
        raise ValueError("the interior needs a full-dimensional cone")
    return all(pair(f, x) > 0 for f in c.facet_normals)


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    x: tuple[Fraction, ...] | None


def _optimize(tab: list[list[Fraction]], basis: list[int], cost: list[Fraction]) -> str:
    """Run Bland-rule simplex to optimality on a feasible canonical tableau."""
    m = len(tab)
    ncols = len(tab[0]) - 1
    while True:
        enter = None
        for j in range(ncols):
            if j in basis:
                continue
            rc = cost[j] - sum(cost[basis[i]] * tab[i][j] for i in range(m))
            if rc < 0:
                enter = j
                break
        if enter is None:
            return "optimal"
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return "unbounded"
        pivot(tab, leave, enter)
        basis[leave] = enter


def lp_solve(rows, rhs, cost, maximize: bool = False) -> LPResult:
    """Optimize cost . x over {x >= 0 : rows @ x = rhs} with Fraction
    arithmetic and Bland's rule, so every answer is exact and termination is
    guaranteed."""
    a = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    if not a or len(a) != len(b):
        raise ValueError("malformed LP")
    n = len(a[0])
    m = len(a)
    if len(list(cost)) != n:
        raise ValueError("cost length does not match column count")
    for i in range(m):
        if b[i] < 0:
            a[i] = [-v for v in a[i]]
            b[i] = -b[i]

    # Phase I: artificial identity basis.
    tab = [a[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    art_cost = [Fraction(0)] * n + [Fraction(1)] * m
    _optimize(tab, basis, art_cost)
    if sum(art_cost[basis[i]] * tab[i][-1] for i in range(len(tab))) > 0:
        return LPResult("infeasible", None, None)

    # Drive leftover artificials out of the basis, dropping redundant rows.
    for i in reversed(range(len(tab))):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                del tab[i]
                del basis[i]
            else:
                pivot(tab, i, col)
                basis[i] = col

    tab = [row[:n] + [row[-1]] for row in tab]
    c = [Fraction(v) for v in cost]
    if maximize:
        c = [-v for v in c]
    if not tab:
        # Every constraint was redundant with 0 = 0: feasible region is x >= 0.
        if any(v < 0 for v in c):
            return LPResult("unbounded", None, None)
        return LPResult("optimal", Fraction(0), (Fraction(0),) * n)
    status = _optimize(tab, basis, c)
    if status == "unbounded":
        return LPResult("unbounded", None, None)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    value = sum(Fraction(v) * xi for v, xi in zip(cost, x))
    return LPResult("optimal", value, tuple(x))


def lp_feasible(rows, rhs) -> tuple[Fraction, ...] | None:
    """A point of {x >= 0 : rows @ x = rhs}, or None if the set is empty."""
    res = lp_solve(rows, rhs, [0] * len(list(rows[0])))
    return res.x if res.status == "optimal" else None


def in_nonneg_span(cols, target) -> bool:
    """Is target a nonnegative rational combination of the given columns?"""
    dim = len(target)
    rows = [[col[i] for col in cols] for i in range(dim)]
    if not cols:
        return all(t == 0 for t in target)
    return lp_feasible(rows, target) is not None


def _lp_coefficient_sum(c: Cone, x: Vec, maximize: bool) -> LambdaValue:
    cols = [r.coords for r in c.rays]
    rows = [[col[i] for col in cols] for i in range(c.rank)]
    res = lp_solve(rows, list(x.coords), [1] * len(cols), maximize=maximize)
    if res.status != "optimal":
        raise ValueError(f"coefficient-sum LP is {res.status}")
    return LambdaValue(res.value, res.x)


def lp_lambda_min(c: Cone, x: Vec) -> LambdaValue:
    """Reference for `CoefficientSums.minimum`: one simplex run, witness aligned
    to c.rays."""
    return _lp_coefficient_sum(c, x, maximize=False)


def lp_lambda_max(c: Cone, x: Vec) -> LambdaValue:
    """Reference for `CoefficientSums.maximum`: one simplex run, witness aligned
    to c.rays."""
    return _lp_coefficient_sum(c, x, maximize=True)


def lambda_min(c: Cone, x: Vec) -> LambdaValue:
    """The smallest coefficient sum of x over c.rays, in closed form."""
    return CoefficientSums(c).minimum(x)


def lambda_max(c: Cone, x: Vec) -> LambdaValue:
    """The largest coefficient sum of x over c.rays, in closed form."""
    return CoefficientSums(c).maximum(x)


def is_certificate(c: Cone, x: Vec, lv: LambdaValue) -> bool:
    """Is lv.witness a nonnegative expression of x in c.rays that sums to
    lv.value?"""
    recon = [sum(a * r.coords[i] for a, r in zip(lv.witness, c.rays)) for i in range(c.rank)]
    return (
        all(a >= 0 for a in lv.witness)
        and recon == list(x.coords)
        and sum(lv.witness) == lv.value
    )


def matches_lp_oracle(sums, x: Vec) -> bool:
    """Do a `CoefficientSums`' values at x equal the LP optima, each with a
    certified witness?"""
    c = sums.cone
    pairs = ((sums.minimum(x), lp_lambda_min(c, x)), (sums.maximum(x), lp_lambda_max(c, x)))
    return all(
        closed.value == lp.value and is_certificate(c, x, closed) for closed, lp in pairs
    )


def rational_coefficient_sum(sums, x: Vec, maximize: bool) -> LambdaValue:
    """Reference for `CoefficientSums.minimum` and `maximum` in Fraction
    arithmetic on x itself: <phi, x> / beta on the optimal cell (the first
    one on a tie), and x's coefficients in the first piece of that cell
    that holds x."""
    cells = sums._max_cells if maximize else sums._min_cells
    sign = -1 if maximize else 1
    xs = [Fraction(v) for v in x.coords]

    def dot(a, b):
        return sum(u * v for u, v in zip(a, b))

    value, cell = max(
        ((dot(k.phi, xs) / k.beta, k) for k in cells), key=lambda vk: sign * vk[0]
    )
    for positions, _, inverse, den in cell.pieces:
        a = [dot(row, xs) / den for row in inverse]
        if min(a) >= 0:
            break
    witness = [Fraction(0)] * len(sums.cone.rays)
    for i, ai in zip(positions, a):
        witness[i] = ai
    return LambdaValue(value, tuple(witness))


def box_interior_points(normals, rank: int, bound: int) -> list[tuple[int, ...]]:
    """Reference for `harness.interior_points`: every point of
    [-bound, bound]^rank in `product` order, kept when each normal pairs
    positively with it."""
    return [
        x
        for x in product(range(-bound, bound + 1), repeat=rank)
        if all(sum(f_i * x_i for f_i, x_i in zip(f, x)) > 0 for f in normals)
    ]


def max_value(sums, z) -> Scalar:
    """Reference for `CoefficientSums.max_below_on_line`, one point at a
    time: lambda_max at the integer tuple z, certified at z itself.  z must
    lie in the cone; the first maximal cell with the smallest <phi, z> / beta
    gives the value, and a piece of it that holds z gives coefficients that
    must reproduce den * z and sum to den times the value."""
    c = sums.cone
    if len(z) != c.rank:
        raise ValueError("point does not live in the cone's ambient lattice")
    if any(sum(f_i * z_i for f_i, z_i in zip(f.coords, z)) < 0 for f in c.facet_normals):
        raise ValueError("point outside cone")

    def dot(a, b):
        return sum(u * v for u, v in zip(a, b))

    value, cell = min(
        ((Fraction(dot(k.phi, z), k.beta), k) for k in sums._max_cells), key=lambda vk: vk[0]
    )
    for _, gens, inverse, den in cell.pieces:
        a = [dot(row, z) for row in inverse]
        if min(a) >= 0:
            break
    else:
        raise RuntimeError("internal: no piece of the optimal cell holds the point")
    if [dot(a, col) for col in zip(*gens)] != [den * v for v in z] or sum(a) != den * value:
        raise RuntimeError("internal: witness does not certify the coefficient sum")
    return int(value) if value.denominator == 1 else value


def interior_max_values(sums, normals, rank: int, bound: int) -> list[tuple[tuple, Scalar]]:
    """Reference for `check_interior_bound`'s line scan: each interior point
    of [-bound, bound]^rank (`box_interior_points`) with its `max_value`,
    in `product` order."""
    return [(z, max_value(sums, z)) for z in box_interior_points(normals, rank, bound)]


def lattice_points(p: Polytope) -> tuple[Vec, ...]:
    """All lattice points of a bounded polytope, sorted by coordinates: a
    scan of the bounding box of `subset_vertices`.  An unbounded region,
    by `lp_bounded`, is refused."""
    if not lp_bounded(p.halfspaces):
        raise ValueError("unbounded region")
    verts = subset_vertices(p.halfspaces)
    if not verts:
        return ()
    rank = verts[0].rank
    los = [min(ceil(v.coords[i]) for v in verts) for i in range(rank)]
    his = [max(floor(v.coords[i]) for v in verts) for i in range(rank)]
    out = []
    for coords in product(*[range(lo, hi + 1) for lo, hi in zip(los, his)]):
        x = vec(coords, verts[0].ambient)
        if poly_contains(p, x):
            out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class GenerationResult:
    """Whether a point set generates the cone's lattice semigroup.

    When it does not, `witness` is the first missing irreducible element
    in coordinate order.
    """

    generates: bool
    witness: Vec | None


def generates(points, c: Cone) -> GenerationResult:
    """Do the lattice points of c given generate its semigroup?  Decided by
    looking for each Hilbert basis element among them."""
    pts = list(points)
    for x in pts:
        if not x.is_lattice:
            raise ValueError("generators must be lattice points")
        if not contains(c, x):
            raise ValueError("point outside cone")
    have = set(pts)
    for h in hilbert_basis(c):
        if h not in have:
            return GenerationResult(False, h)
    return GenerationResult(True, None)


def box_scan_generation(fan: Fan, d: Divisor, local) -> tuple[tuple, bool]:
    """Reference for `harness.generation_scan` by the lattice-box scan.

    On every maximal cone, enumerate the lattice points of the shifted
    polytope's bounding box, keep those inside the dual cone, and ask
    `generates` for a missing Hilbert-basis element.  Returns the failures
    and whether any shifted polytope point lay outside its dual cone.
    """
    p = polytope(fan, d)
    failures = []
    clipped = False
    for ci, u in enumerate(local):
        pts = lattice_points(translated_polytope(p, u))
        dual = dual_cone(fan.cones[ci])
        inside = [x for x in pts if contains(dual, x)]
        if len(inside) != len(pts):
            clipped = True
        res = generates(inside, dual)
        if not res.generates:
            failures.append(
                Failure("cone", ci, f"missing semigroup generator {res.witness.coords}")
            )
    return tuple(failures), clipped


def box_parallelepiped_points(gens) -> list[Vec]:
    """Reference for `semigroups._parallelepiped_points` by a box scan.

    Every lattice point of the bounding box of {sum a_i g_i : 0 <= a_i < 1}
    is solved for its coordinates in the independent g_i and kept when they
    are all in [0, 1).  Works for any number of generators up to the rank.
    """
    n = gens[0].rank
    los = [sum(min(0, g.coords[i]) for g in gens) for i in range(n)]
    his = [sum(max(0, g.coords[i]) for g in gens) for i in range(n)]
    rows = [[g.coords[i] for g in gens] for i in range(n)]
    out = []
    for coords in product(*[range(lo, hi + 1) for lo, hi in zip(los, his)]):
        res = solve_matrix(rows, list(coords))
        if res.status != "unique":
            continue
        if all(0 <= a < 1 for a in res.solution):
            out.append(vec(coords, gens[0].ambient))
    return out


def reference_hilbert_basis(c: Cone) -> tuple[Vec, ...]:
    """Reference for `semigroups.hilbert_basis` on every cone: the lattice
    points of the fundamental parallelepiped of every simplicial piece, with
    the rays, each kept unless another candidate lies below it on every
    facet normal, in one scan of each candidate against all the others.
    Its work follows the lattice index, not the basis, and it has no cap."""
    cands = set(c.rays)
    for simplex in triangulate(c):
        inverse = integer_left_inverse(list(zip(*(g.coords for g in simplex))))
        for x in _parallelepiped_points(simplex, inverse):
            if not x.is_zero:
                cands.add(x)
    levels = {h: [pair(f, h) for f in c.facet_normals] for h in cands}
    basis = []
    for h in sorted(cands, key=lambda v: v.coords):
        top = levels[h]
        reducible = any(s != h and all(map(le, levels[s], top)) for s in cands)
        if not reducible:
            basis.append(h)
    return tuple(basis)


def subset_hull_facets(points: list[Vec]) -> list[tuple[Vec, Fraction]]:
    """Reference for the facets of `hulls.convex_hull` by a subset scan.

    Every n-subset of the points whose affine span is a hyperplane gives a
    candidate (phi, level), kept when all points lie on one side of it.
    """
    n = points[0].rank
    if affine_rank(points) != n:
        raise ValueError("points do not span the ambient space")
    amb = dual_ambient(points[0].ambient)
    found = {}
    for subset in combinations(points, n):
        base = subset[0]
        rows = [list((p - base).coords) for p in subset[1:]]
        ns = nullspace(rows, n)
        if len(ns) != 1:
            continue
        phi = primitivize(Vec(ns[0], amb))
        level = pair(phi, base)
        values = [pair(phi, q) for q in points]
        if all(v >= level for v in values):
            found[(phi.coords, level)] = (phi, level)
        elif all(v <= level for v in values):
            found[((-phi).coords, -level)] = (-phi, -level)
    return [found[k] for k in sorted(found)]


def lp_hull_vertices(points: list[Vec]) -> list[Vec]:
    """Reference for the vertices of `hulls.convex_hull`: the points that no
    LP writes as a convex combination of the others."""
    pts = sorted(set(points), key=lambda p: p.coords)
    out = []
    for i, p in enumerate(pts):
        others = [q for j, q in enumerate(pts) if j != i]
        if not others:
            out.append(p)
            continue
        rows = [[Fraction(q.coords[k]) for q in others] for k in range(p.rank)]
        rows.append([Fraction(1)] * len(others))
        rhs = [Fraction(c) for c in p.coords] + [Fraction(1)]
        if lp_feasible(rows, rhs) is None:
            out.append(p)
    return out


def lp_pointed(gens: list[Vec]) -> bool:
    """Reference for the pointedness test of `cones.cone_from_generators`:
    nonzero generators span a pointed cone iff 0 is not a convex
    combination of them."""
    rank = gens[0].rank
    rows = [[g.coords[i] for g in gens] for i in range(rank)] + [[1] * len(gens)]
    return lp_feasible(rows, [0] * rank + [1]) is None


def lp_bounded(halfspaces) -> bool:
    """Is the polytope with these halfspaces bounded when nonempty?  Its
    normals must positively span the space: every unit vector and its negative is a nonnegative
    combination of them, decided by one LP each."""
    cols = [v.coords for v, _ in halfspaces]
    rank = len(cols[0])
    for i in range(rank):
        for sign in (1, -1):
            target = [sign * int(j == i) for j in range(rank)]
            if lp_feasible([[c[k] for c in cols] for k in range(rank)], target) is None:
                return False
    return True


def subset_vertices(halfspaces) -> tuple[Vec, ...]:
    """Vertices of the polytope {u : <u, v> >= -d}: the feasible unique
    solutions of every rank-sized subsystem of <u, v> = -d, sorted."""
    rank = halfspaces[0][0].rank
    amb = dual_ambient(halfspaces[0][0].ambient)
    verts = set()
    for subset in combinations(halfspaces, rank):
        res = solve_exact([v for v, _ in subset], [-d for _, d in subset], ambient=amb)
        if res.status != "unique":
            continue
        u = res.solution
        if all(pair(u, v) >= -d for v, d in halfspaces):
            verts.add(u)
    return tuple(sorted(verts, key=lambda v: v.coords))


def extreme_rays(ineqs, eqs, ambient: str) -> tuple[Vec, ...]:
    """Sorted primitive extreme rays of the cone
    {x : f.x >= 0 for f in ineqs, e.x = 0 for e in eqs}, x in `ambient`,
    by the subset scan.

    Rows are vectors of one rank, paired with x by their coordinates.  An
    extreme ray is the one-dimensional nullspace of eqs and of
    rank - 1 - rank(eqs) inequalities tight on it, so scanning those subsets
    finds every ray; the kernel hands it over as a primitive integer vector.
    A cone containing a line has no extreme ray; the scan then returns
    nothing or one vector of that line.  It solves C(m, rank - 1 - rank(eqs))
    systems for m inequalities.
    """
    ineq_rows = [list(f.coords) for f in ineqs]
    eq_rows = [list(e.coords) for e in eqs]
    rank = len((ineq_rows or eq_rows)[0])
    k = rank - 1 - matrix_rank(eq_rows)
    if k < 0:
        return ()
    found = set()
    for subset in combinations(ineq_rows, k):
        ns = nullspace(list(subset) + eq_rows, rank)
        if len(ns) != 1:
            continue
        w = ns[0]
        values = [sum(map(mul, f, w)) for f in ineq_rows]
        if all(v >= 0 for v in values):
            found.add(Vec(w, ambient))
        elif all(v <= 0 for v in values):
            found.add(Vec(tuple(-a for a in w), ambient))
    return _sorted_vecs(found)


def reference_cone_from_generators(gens: list[Vec]) -> Cone:
    """Reference for `cones.cone_from_generators`: facet normals by the
    extreme-ray scan for every cone, simplicial ones included, pointedness by
    their rank, and each generator extreme when the normals tight on it and
    the span equations leave a one-dimensional nullspace."""
    gens = list(gens)
    if not gens:
        raise ValueError("cone needs at least one generator")
    amb = gens[0].ambient
    rank = gens[0].rank
    if any(g.ambient != amb or g.rank != rank for g in gens):
        raise ValueError("generators must share ambient and rank")
    if any(g.is_zero for g in gens):
        raise ValueError("zero generator")
    prim = sorted({primitivize(g) for g in gens}, key=lambda v: v.coords)
    eqs = perp_basis(prim)
    normals = extreme_rays(prim, eqs, dual_ambient(amb))
    if matrix_rank([list(f.coords) for f in normals]) != rank - len(eqs):
        raise NotPointed("not pointed")
    eq_rows = [list(e.coords) for e in eqs]
    extreme = []
    for g in prim:
        tight = [list(f.coords) for f in normals if pair(f, g) == 0]
        if len(nullspace(tight + eq_rows, rank)) == 1:
            extreme.append(g)
    return Cone(amb, rank, _sorted_vecs(extreme), normals, _sorted_vecs(eqs))


def reference_dual_cone(c: Cone) -> Cone:
    """Reference for `cones.dual_cone`: the dual rebuilt from c's facet
    normals by `cone_from_generators`, checked by biduality."""
    if not c.is_full_dim:
        raise ValueError("dual_cone requires a full-dimensional cone")
    d = cone_from_generators(list(c.facet_normals))
    if set(d.facet_normals) != set(c.rays):
        raise RuntimeError("internal: biduality check failed")
    return d


def zero_cone(rank: int, ambient: str) -> Cone:
    eqs = tuple(
        Vec(tuple(1 if j == i else 0 for j in range(rank)), dual_ambient(ambient))
        for i in range(rank)
    )
    return Cone(ambient, rank, (), (), eqs)


def intersect_cones(a: Cone, b: Cone) -> Cone:
    """Intersection of two pointed cones sharing an ambient lattice."""
    if a.ambient != b.ambient or a.rank != b.rank:
        raise ValueError("cones live in different ambients")
    rays = extreme_rays(
        dict.fromkeys(a.facet_normals + b.facet_normals),
        a.span_equations + b.span_equations,
        a.ambient,
    )
    if not rays:
        return zero_cone(a.rank, a.ambient)
    return cone_from_generators(list(rays))


def is_face(face_rays, c: Cone) -> bool:
    """Is cone(face_rays) a face of c?  face_rays must be a set of Vecs."""
    face_rays = set(face_rays)
    tight = [f for f in c.facet_normals if all(pair(f, r) == 0 for r in face_rays)]
    generated = {r for r in c.rays if all(pair(f, r) == 0 for f in tight)}
    return generated == face_rays


def pairwise_face_check(fan_or_cones) -> tuple[int, int] | None:
    """Reference for the face-to-face part of `fans.build_fan`: the first
    pair of maximal cones (a Fan's, or a list of Cones) whose intersection
    is not a face of both, or None."""
    cones = fan_or_cones.cones if isinstance(fan_or_cones, Fan) else list(fan_or_cones)
    for i, j in combinations(range(len(cones)), 2):
        shared = set(intersect_cones(cones[i], cones[j]).rays)
        if not (is_face(shared, cones[i]) and is_face(shared, cones[j])):
            return i, j
    return None


def reference_fan_check(rays, max_cones, rank: int) -> str | None:
    """Reference for the verdict of `fans.build_fan`, without its covering
    degree: None for a complete fan, otherwise a reason.

    Each cone must be pointed and full-dimensional on extreme rays, every
    pair must meet in a common face, and then the fan is complete when the
    relative-interior point of each facet lies in exactly two cones.
    """
    rays = list(rays)
    index_sets = [frozenset(idxs) for idxs in max_cones]
    if (
        not rays
        or any(r.rank != rank or not is_primitive(r) for r in rays)
        or len(set(rays)) != len(rays)
    ):
        return "not a fan: bad ray list"
    if not index_sets or len(set(index_sets)) != len(index_sets):
        return "not a fan: no cones or a duplicate cone"
    if set().union(*index_sets) != set(range(len(rays))):
        return "not a fan: a ray outside every cone or an unknown ray"
    cones = []
    for idxs in index_sets:
        gens = [rays[i] for i in idxs]
        try:
            c = cone_from_generators(gens) if gens else None
        except NotPointed:
            c = None
        if c is None or not c.is_full_dim or set(c.rays) != set(gens):
            return "not a fan: a cone is empty, not pointed, lower-dimensional or redundant"
        cones.append(c)
    bad = pairwise_face_check(cones)
    if bad is not None:
        return f"not a fan: cones {bad[0]} and {bad[1]} do not intersect in a common face"
    for c in cones:
        for f in c.facet_normals:
            point = sum((r for r in c.rays if pair(f, r) == 0), rays[0].scale(0))
            if sum(contains(d, point) for d in cones) != 2:
                return "fan not complete: a facet lies in no other cone"
    return None


def m_delta_contains(c: Cone, m, x: Vec) -> bool:
    """Membership in the truncation {x in c : lambda_min(x) <= m}."""
    if not contains(c, x):
        return False
    return lambda_min(c, x).value <= Fraction(m)


def simplex_lattice_points(c: Cone, m) -> tuple[Vec, ...]:
    """Lattice points x of c with minimum coefficient sum at most m."""
    m = Fraction(m)
    if m < 0:
        return ()
    rank = c.rank
    corners = [vec((0,) * rank, c.ambient)] + [m * r for r in c.rays]
    los = [min(ceil(v.coords[i]) for v in corners) for i in range(rank)]
    his = [max(floor(v.coords[i]) for v in corners) for i in range(rank)]
    out = []
    for coords in product(*[range(lo, hi + 1) for lo, hi in zip(los, his)]):
        x = vec(coords, c.ambient)
        if m_delta_contains(c, m, x):
            out.append(x)
    return tuple(out)


def semigroup_member(gens, target: Vec, bound: int) -> bool:
    """Is target a sum of at most `bound` of the given lattice points?"""
    gs = [g for g in gens if not g.is_zero]
    for g in gs:
        if not g.is_lattice:
            raise ValueError("generators must be lattice points")
    if not target.is_lattice:
        return False
    seen: dict[tuple, bool] = {}

    def reach(t: tuple, k: int) -> bool:
        if all(v == 0 for v in t):
            return True
        if k == 0:
            return False
        key = (t, k)
        if key in seen:
            return seen[key]
        seen[key] = False
        for g in gs:
            rest = tuple(a - b for a, b in zip(t, g.coords))
            if reach(rest, k - 1):
                seen[key] = True
                break
        return seen[key]

    return reach(tuple(target.coords), int(bound))


@dataclass(frozen=True)
class EdgeLength:
    """Lattice length of one edge of the divisor polytope, with its curve value."""

    wall_index: int
    value: Fraction
    length: Fraction


def edge_lengths(fan: Fan, d: Divisor) -> tuple[EdgeLength, ...]:
    """For nef divisors: each wall's curve value equals the matching edge length.

    The length is measured independently as the lattice length of the
    segment from u_sigma to u_tau.  A mismatch raises RuntimeError.
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
                raise RuntimeError("polytope edge is not parallel to the wall normal")
        if length != val:
            raise RuntimeError("edge length disagrees with the curve value")
        out.append(EdgeLength(wi, val, length))
    return tuple(out)


def flip(wall: Wall) -> Wall:
    """The same wall viewed from its other side: tau's cone, the opposite
    normal, and sigma's rays off the wall as the far side."""
    return Wall(wall.tau, wall.sigma, wall.rays, -wall.u, wall.far, wall.near)


def walls_of(fan: Fan, cone_index: int) -> list[Wall]:
    """All walls of one maximal cone in fan.walls order, each flipped if
    needed so that its sigma is that cone."""
    return [
        w if w.sigma == cone_index else flip(w)
        for w in fan.walls
        if cone_index in (w.sigma, w.tau)
    ]


@dataclass(frozen=True)
class ConeMinima:
    """Per-cone wall minima for a pair of divisors.

    first: the minimum intersection number of the first divisor over the
    cone's walls.  second: the same minimum for the sum of both divisors.
    """

    first: Fraction
    second: Fraction


def cone_minima(fan: Fan, d: Divisor, dp: Divisor, cone_index: int) -> ConeMinima:
    walls = walls_of(fan, cone_index)
    if not walls:
        raise ValueError("maximal cone has no walls")
    local_d = local_data(fan, d)
    local_sum = local_data(fan, d + dp)
    t = min(wall_value(fan, local_d, w) for w in walls)
    m = min(wall_value(fan, local_sum, w) for w in walls)
    return ConeMinima(t, m)


def reference_norm_coord(x):
    """x as an int when it is an integer, else as a Fraction."""
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


def reference_integer_row(row) -> tuple[list[int], int]:
    """(q * row, q) for q the lcm of the row's denominators."""
    fracs = [Fraction(x) for x in row]
    q = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (q // f.denominator) for f in fracs], q


def reference_enc_scalar(x):
    """A report scalar: an int, or a "p/q" string."""
    if type(x) is int:
        return x
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

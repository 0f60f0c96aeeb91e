"""Hypothesis-to-conclusion checks for adjoint positivity on toric instances.

Each check takes an Instance (complete fan, base divisor, perturbation),
evaluates its hypotheses one by one, and reports the raw conclusion data
alongside.  A failed hypothesis never aborts anything: the report is
tagged not-applicable while still carrying whatever quantities were
computable, so sharpness experiments can inspect conclusions on instances
just outside a statement's reach.

`STATEMENTS` declares each statement once: its command-line name, its check
and the options the check takes.  A check computes its hypotheses and, when
the data its conclusion needs exist, its failures and notes; `_report` alone
builds the `CheckReport` and concludes that nothing failed.  The four global
checks share their hypotheses and differ only in their threshold, the
projective-space exclusion and the failures they read off the combined
divisor's local data; the three per-cone checks take a cone index.  Every
check reads what belongs to the whole instance from `Instance`, where each
table is made once on first use: D, D' and D+D' from the instance's solves
(`intersections.solve_divisor`); each cone's wall minima of D and D+D'
from `Instance.cone_minima`, read off the per-wall values through the
fan's list of each cone's walls (`Fan.cone_walls`); D''s coefficient sums
in each dual cone from `Instance.dprime_sums`, one call to
`CoefficientSums.extremes` per cone; the coefficient range of D' and the
projective-space test from `Instance.in_range` and `Instance.is_pspace`;
and the cone table from `Instance.cone_data`.  The generation and corner
scans test shifted-polytope membership against D+D''s offset table
(`divisors.in_shifted_polytope`).  `BUILTINS` is the table of named
instance families.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import ceil
from operator import mul
from typing import Callable

from .cones import classify
from .divisors import Divisor, canonical_divisor, dprime_in_range, in_shifted_polytope
from .fans import Fan, build_fan, check_rank
from .hulls import FlatPoints, convex_hull
from .intersections import DivisorSolve, solve_divisor
from .linalg import M, N, Scalar, Vec, lattice_index, vec


@dataclass(frozen=True)
class Instance:
    fan: Fan
    d: Divisor
    dprime: Divisor
    label: str

    def __post_init__(self):
        nrays = len(self.fan.rays)
        if len(self.d.coeffs) != nrays or len(self.dprime.coeffs) != nrays:
            raise ValueError("divisor length does not match the fan's ray count")

    # Each divisor is solved once, on first use; not fields, so not hashed or compared.
    @cached_property
    def d_solve(self) -> DivisorSolve:
        return solve_divisor(self.fan, self.d)

    @cached_property
    def dprime_solve(self) -> DivisorSolve:
        return solve_divisor(self.fan, self.dprime)

    @cached_property
    def total_solve(self) -> DivisorSolve:
        return solve_divisor(self.fan, self.d + self.dprime)

    @cached_property
    def dprime_sums(self) -> tuple[tuple[Scalar | None, Scalar | None], ...]:
        """Per maximal cone, (lambda_min, lambda_max) of the perturbation's
        local point in the cone's dual; (None, None) without local data or
        outside the dual."""
        local = self.dprime_solve.local
        if local is None:
            return ((None, None),) * len(self.fan.max_cones)
        return tuple(
            sums.extremes(u) or (None, None) for sums, u in zip(self.fan.coefficient_sums, local)
        )

    @cached_property
    def cone_minima(self) -> tuple[tuple[Scalar | None, Scalar | None], ...]:
        """Per maximal cone, the least wall value t of D and m of D+D' over
        the cone's walls, the first least one in wall order; t is None when
        D has no local data, and m also when D' has none."""
        fan, d = self.fan, self.d_solve
        n = len(fan.max_cones)
        if d.local is None:
            return ((None, None),) * n
        ts = [min([d.values[wi] for wi in walls]) for walls in fan.cone_walls]
        if self.dprime_solve.local is None:
            return tuple((t, None) for t in ts)
        total = self.total_solve.values
        return tuple(
            (t, min([total[wi] for wi in walls])) for t, walls in zip(ts, fan.cone_walls)
        )

    @cached_property
    def in_range(self) -> bool:
        """Whether D''s coefficients lie between zero and the canonical divisor's."""
        return dprime_in_range(self.fan, self.dprime)

    @cached_property
    def is_pspace(self) -> bool:
        """Whether the fan is the standard projective-space fan."""
        return is_projective_space(self.fan)

    @cached_property
    def cone_data(self) -> tuple[ConeData, ...]:
        """`cone_table` of this instance, built once."""
        return cone_table(self)


@dataclass(frozen=True)
class Hypothesis:
    name: str
    holds: bool
    detail: str = ""


@dataclass(frozen=True)
class Failure:
    """One concrete conclusion violation: a cone or wall plus what went wrong."""

    kind: str
    index: int
    message: str


@dataclass(frozen=True)
class ConeData:
    """Per-cone quantities: wall minima for the pair and both coefficient
    sums of the perturbation's local point inside the dual cone."""

    cone_index: int
    t: Scalar | None
    m: Scalar | None
    lambda_min_dual: Scalar | None
    lambda_max_dual: Scalar | None


@dataclass(frozen=True)
class CheckReport:
    statement: str
    label: str
    hypotheses: tuple[Hypothesis, ...]
    conclusion: bool | None
    failures: tuple[Failure, ...]
    cone_data: tuple[ConeData, ...]
    notes: tuple[str, ...] = ()

    @property
    def applicable(self) -> bool:
        return all(h.holds for h in self.hypotheses)

    @property
    def status(self) -> str:
        if not self.applicable:
            return "not_applicable"
        if self.conclusion is None:
            raise RuntimeError("internal: applicable check produced no conclusion")
        return "pass" if self.conclusion else "fail"


def is_projective_space(fan: Fan) -> bool:
    """Recognize the standard fan on n+1 rays summing to zero.

    True iff the primitive rays sum to zero, every n of them form a lattice
    basis, and the maximal cones are exactly the n-element subsets.  This
    pins the fan down up to a lattice automorphism.
    """
    n = fan.rank
    subsets = set(combinations(range(n + 1), n))
    # build_fan stores each maximal cone's indices sorted, as combinations does.
    if len(fan.rays) != n + 1 or set(fan.max_cones) != subsets:
        return False
    if not sum(fan.rays[1:], fan.rays[0]).is_zero:
        return False
    return all(lattice_index([fan.rays[i].coords for i in s]) == 1 for s in subsets)


def _q_cartier(name: str, solved: DivisorSolve) -> Hypothesis:
    holds = solved.local is not None
    return Hypothesis(name, holds, "" if holds else f"no local data on cone {solved.missing}")


def _in_range(inst: Instance) -> Hypothesis:
    """The perturbation's coefficients lie between zero and the canonical divisor's."""
    return Hypothesis("perturbation_between_zero_and_canonical", inst.in_range)


def _perturbation_hypotheses(inst: Instance) -> list[Hypothesis]:
    """The perturbation is Q-Cartier, with coefficients between zero and the
    canonical divisor."""
    return [_q_cartier("perturbation_q_cartier", inst.dprime_solve), _in_range(inst)]


def _report(inst: Instance, statement: str, hyps, verdict, rows) -> CheckReport:
    """The one report skeleton.  `verdict` is None when the data the
    conclusion needs are missing, and (failures, notes) otherwise; the
    conclusion is that nothing failed."""
    conclusion, failures, notes = None, (), ()
    if verdict is not None:
        failures, notes = verdict
        conclusion = not failures
    return CheckReport(
        statement, inst.label, tuple(hyps), conclusion, tuple(failures), tuple(rows), tuple(notes)
    )


def cone_table(inst: Instance) -> tuple[ConeData, ...]:
    """Per cone: the wall minima t of D and m of D+D', and D''s coefficient
    sums.  Read it through `Instance.cone_data`, which builds it once."""
    return tuple(
        ConeData(ci, t, m, *sums)
        for ci, ((t, m), sums) in enumerate(zip(inst.cone_minima, inst.dprime_sums))
    )


def _shared_hypotheses(inst: Instance, threshold: int, exclude_pspace: bool):
    """Hypotheses common to the global adjoint statements."""
    hyps = []
    if exclude_pspace:
        isp = inst.is_pspace
        hyps.append(
            Hypothesis(
                "fan_is_not_projective_space",
                not isp,
                "fan is the standard projective-space fan" if isp else "",
            )
        )
    d = inst.d_solve
    hyps.append(_q_cartier("base_divisor_q_cartier", d))
    hyps.extend(_perturbation_hypotheses(inst))
    if d.local is None:
        holds, detail = False, "wall values unavailable"
    else:
        mv = min(d.values)
        holds, detail = mv >= threshold, f"minimum wall value {mv}, threshold {threshold}"
    hyps.append(Hypothesis("wall_values_meet_threshold", holds, detail))
    return hyps


def generation_scan(fan: Fan, solved: DivisorSolve) -> tuple[Failure, ...]:
    """Test on every maximal cone whether the lattice points of the solved
    divisor's shifted polytope generate the dual-cone semigroup.

    They do exactly when the shifted polytope contains the Hilbert basis of
    the dual cone, since the halfspaces of the cone's own rays already put
    the shifted polytope inside the dual cone.  A failing cone reports its
    first missing basis element in coordinate order.
    """
    failures = []
    for ci, offsets in enumerate(solved.offsets):
        for h in fan.hilbert_bases[ci]:
            if not in_shifted_polytope(fan, offsets, h):
                failures.append(Failure("cone", ci, f"missing semigroup generator {h.coords}"))
                break
    return tuple(failures)


def _global_report(
    inst: Instance, statement: str, threshold: int, exclude_pspace: bool, conclude
) -> CheckReport:
    """A global statement's report: shared hypotheses, the verdict
    conclude(inst, solve of D+D') -> (failures, notes) when D+D' has local
    data, and the cone table."""
    hyps = _shared_hypotheses(inst, threshold, exclude_pspace)
    total = inst.total_solve
    verdict = None if total.local is None else conclude(inst, total)
    return _report(inst, statement, hyps, verdict, inst.cone_data)


def _generation_conclusion(inst: Instance, total: DivisorSolve):
    failures = generation_scan(inst.fan, total)
    if not failures and all(u.is_lattice for u in total.local):
        return failures, ("combined divisor is Cartier and generates everywhere: very ample",)
    return failures, ()


def _nef_conclusion(inst: Instance, total: DivisorSolve):
    return [
        Failure("wall", wi, f"combined divisor meets curve at {val}")
        for wi, val in enumerate(total.values)
        if val < 0
    ], ()


def _corner_conclusion(inst: Instance, total: DivisorSolve):
    fan = inst.fan
    zero = vec((0,) * fan.rank, M)
    failures = []
    for ci, offsets in enumerate(total.offsets):
        for target in (zero, *fan.duals[ci].rays):
            if not in_shifted_polytope(fan, offsets, target):
                failures.append(Failure("cone", ci, f"shifted polytope misses {target.coords}"))
    return failures, ()


def check_generation(inst: Instance) -> CheckReport:
    """Wall threshold n+1 (projective space excluded) forces the shifted
    polytope of the perturbed divisor to generate every dual-cone semigroup."""
    return _global_report(
        inst, "adjoint-generation", inst.fan.rank + 1, True, _generation_conclusion
    )


def check_nef_excluding_pspace(inst: Instance) -> CheckReport:
    """Wall threshold n, projective space excluded: the perturbed divisor is nef."""
    return _global_report(inst, "adjoint-nef-sharp", inst.fan.rank, True, _nef_conclusion)


def check_nef_threshold(inst: Instance) -> CheckReport:
    """Wall threshold n+1, no exclusion: the perturbed divisor is nef."""
    return _global_report(inst, "adjoint-nef", inst.fan.rank + 1, False, _nef_conclusion)


def check_corner_containment(inst: Instance) -> CheckReport:
    """Under the generation hypotheses, each shifted polytope contains the
    origin and every primitive generator of its dual cone."""
    return _global_report(
        inst, "corner-containment", inst.fan.rank + 1, True, _corner_conclusion
    )


def check_wall_bound(inst: Instance, sigma: int, r=None) -> CheckReport:
    """Per-cone lower bound m >= t - lambda_min(u'_sigma) - r on wall minima.

    With r omitted, r = 1 and the hypothesis is the global coefficient range
    0 >= D' >= canonical.  With r supplied, the hypotheses localize: the
    perturbation is nonpositive on the cone's rays and every adjacent cone
    has an outside ray with coefficient >= -r.
    """
    fan = inst.fan
    d = inst.d_solve.checked()
    if not d.nef:
        raise ValueError("wall minimum bound requires a nef base divisor")
    inst.dprime_solve.checked()
    if not 0 <= sigma < len(fan.max_cones):
        raise ValueError("no such maximal cone")
    t, m = inst.cone_minima[sigma]

    hyps = []
    if r is None:
        rr = Fraction(1)
        hyps.append(_in_range(inst))
    else:
        rr = Fraction(r)
        if rr <= 0:
            raise ValueError("r must be positive")
        on_cone = all(inst.dprime.coeffs[i] <= 0 for i in fan.max_cones[sigma])
        hyps.append(
            Hypothesis("perturbation_nonpositive_on_cone", on_cone, "")
        )
        # Across each wall of sigma, the neighbour's rays off the wall.
        floors = all(
            any(inst.dprime.coeffs[j] >= -rr for j, _ in (w.far if w.sigma == sigma else w.near))
            for w in (fan.walls[wi] for wi in fan.cone_walls[sigma])
        )
        hyps.append(
            Hypothesis(
                "adjacent_cones_have_floor_ray",
                floors,
                f"each adjacent cone needs an outside ray with coefficient >= {-rr}",
            )
        )

    lmin, lmax = inst.dprime_sums[sigma]
    verdict = None
    if lmin is None:
        holds, detail = False, "perturbation's local point lies outside the dual cone"
    else:
        holds, detail = t >= lmin, f"t = {t}, lambda_min = {lmin}"
        bound = t - lmin - rr
        failures = []
        if m < bound:
            failures.append(Failure("cone", sigma, f"minimum {m} is below the bound {bound}"))
        verdict = failures, ()
    hyps.append(Hypothesis("threshold", holds, detail))
    return _report(inst, "wall-minimum-bound", hyps, verdict, [ConeData(sigma, t, m, lmin, lmax)])


# The most lattice points of the box [-B, B]^rank that check_interior_bound
# may ask for; a larger box is refused before any work starts.
MAX_BOX_POINTS = 1_000_000


def interior_points(normals, rank: int, bound: int):
    """The lines of [-bound, bound]^rank with <f, x> > 0 for every integer
    normal f, as (head, lo, hi): the first rank - 1 coordinates in `product`
    order and the last one's nonempty interval.  Each normal bounds the last
    coordinate given s, its pairing with the head: f_n > 0 asks
    x_n > -s / f_n, f_n < 0 asks x_n < s / -f_n, and f_n = 0 asks s > 0."""
    split = [(f[:-1], f[-1]) for f in normals]
    for head in product(range(-bound, bound + 1), repeat=rank - 1):
        lo, hi = -bound, bound
        for fh, fn in split:
            s = sum(map(mul, fh, head))
            if fn > 0:
                s = -s // fn + 1
                if s > lo:
                    lo = s
            elif fn < 0:
                s = (s - 1) // -fn
                if s < hi:
                    hi = s
            elif s <= 0:
                break
        else:
            if lo <= hi:
                yield head, lo, hi


def check_interior_bound(inst: Instance, sigma: int, bound: int = 5) -> CheckReport:
    """lambda_max of the perturbation's local point is at most lambda_max of
    every interior lattice point of the dual cone (coordinates up to `bound`).
    The points are taken one line at a time, the last coordinate running over
    the interval the facet normals leave, and `max_below_on_line` certifies
    and compares a whole line at once, at a cost of (2 * bound + 1)^(rank - 1)
    times the facet count, the pieces' rows and the cells.  The local
    point's own lambda_max comes from `Instance.dprime_sums`, and the
    coefficient range of D' from `Instance.in_range`."""
    fan = inst.fan
    if not 0 <= sigma < len(fan.max_cones):
        raise ValueError("no such maximal cone")
    if bound < 1:
        raise ValueError("interior-point bound must be at least 1")
    box = (2 * bound + 1) ** fan.rank
    if box > MAX_BOX_POINTS:
        raise ValueError(
            f"interior-point bound {bound} asks for {box} box points in rank {fan.rank}, "
            f"more than {MAX_BOX_POINTS}"
        )
    hyps = _perturbation_hypotheses(inst)
    verdict = None
    lmin, lmax = inst.dprime_sums[sigma]
    if lmax is not None:
        sums = fan.coefficient_sums[sigma]
        normals = [f.coords for f in fan.duals[sigma].facet_normals]
        failures = []
        checked = 0
        for head, lo, hi in interior_points(normals, fan.rank, bound):
            checked += hi - lo + 1
            for t in sums.max_below_on_line(head, lo, hi, lmax):
                failures.append(
                    Failure("cone", sigma, f"interior point {(*head, t)} has smaller maximum sum")
                )
        verdict = failures, [
            f"checked {checked} interior lattice points with coordinate bound {bound}"
        ]
    return _report(
        inst, "interior-point-bound", hyps, verdict, [ConeData(sigma, None, None, lmin, lmax)]
    )


def check_nonregular_bound(inst: Instance, sigma: int) -> CheckReport:
    """Non-regular cones force lambda_min of the perturbation's local point
    down to n-1 or less."""
    fan = inst.fan
    if not 0 <= sigma < len(fan.max_cones):
        raise ValueError("no such maximal cone")
    cls = classify(fan.cones[sigma])
    hyps = [
        Hypothesis(
            "cone_not_regular",
            not cls.regular,
            "cone is regular" if cls.regular else "",
        )
    ]
    hyps.extend(_perturbation_hypotheses(inst))
    verdict = None
    lmin, lmax = inst.dprime_sums[sigma]
    if lmin is not None:
        failures = []
        if lmin > fan.rank - 1:
            failures.append(Failure("cone", sigma, f"lambda_min {lmin} exceeds {fan.rank - 1}"))
        verdict = failures, ()
    return _report(
        inst, "nonregular-cone-bound", hyps, verdict, [ConeData(sigma, None, None, lmin, lmax)]
    )


@dataclass(frozen=True)
class Statement:
    """One checked statement: its command-line name, its check, and the
    options the check takes after the instance, in order.  A statement that
    takes `sigma` is checked once per maximal cone."""

    name: str
    check: Callable[..., CheckReport]
    options: tuple[str, ...] = ()

    @property
    def per_cone(self) -> bool:
        return "sigma" in self.options


STATEMENTS = {
    s.name: s
    for s in (
        Statement("generation", check_generation),
        Statement("nef-sharp", check_nef_excluding_pspace),
        Statement("nef", check_nef_threshold),
        Statement("corners", check_corner_containment),
        Statement("wall-bound", check_wall_bound, ("sigma", "r")),
        Statement("interior-bound", check_interior_bound, ("sigma", "interior_bound")),
        Statement("nonregular-bound", check_nonregular_bound, ("sigma",)),
    )
}


def _normal_fan_data(pts: list[Vec]) -> tuple[list[Vec], list[tuple[int, ...]], Divisor]:
    """Rays, sorted maximal-cone index sets and support divisor of the normal
    fan of conv(pts), read off one hull without building the fan: the
    maximal cone of a vertex is spanned by the facets through it."""
    facets, _, through = convex_hull(pts)
    return [phi for phi, _ in facets], sorted(through), Divisor(tuple(-lvl for _, lvl in facets))


def polytope_fan(points) -> tuple[Fan, Divisor]:
    """Normal fan of a full-dimensional lattice polytope plus its support divisor.

    The divisor's polytope is exactly conv(points); it is ample on the
    returned fan, so every wall value is a positive edge length.
    """
    pts = [p if isinstance(p, Vec) else vec(p, M) for p in points]
    rays, cones, base = _normal_fan_data(pts)
    return build_fan(rays, cones, pts[0].rank), base


def projective_space(n: int, t: int | None = None) -> Instance:
    if n < 2:
        raise ValueError("dimension must be at least 2")
    check_rank(n)  # before n + 1 rays of length n are built
    t = n + 1 if t is None else t
    rays = [vec((-1,) * n, N)] + [
        vec(tuple(int(i == j) for j in range(n)), N) for i in range(n)
    ]
    cones = [tuple(sorted(s)) for s in combinations(range(n + 1), n)]
    fan = build_fan(rays, cones, n)
    d = Divisor((t,) + (0,) * n)
    return Instance(fan, d, canonical_divisor(fan), f"projective_space({n},t={t})")


def _polygon_fan(rays) -> Fan:
    """The complete plane fan of `rays`, listed in order around the origin,
    with maximal cones (i, i + 1 mod k)."""
    k = len(rays)
    return build_fan([vec(r, N) for r in rays], [(i, (i + 1) % k) for i in range(k)], 2)


def weighted_112(t: int = 1) -> Instance:
    fan = _polygon_fan([(1, 1), (-1, 1), (0, -1)])
    d = Divisor((t, 0, 0))
    return Instance(fan, d, canonical_divisor(fan), f"weighted_112(t={t})")


def hirzebruch(a: int, coeffs) -> Instance:
    if a < 0:
        raise ValueError("twist must be nonnegative")
    fan = _polygon_fan([(1, 0), (0, 1), (-1, a), (0, -1)])
    cs = tuple(coeffs)
    if len(cs) != 4:
        raise ValueError("need four coefficients")
    return Instance(fan, Divisor(cs), canonical_divisor(fan), f"hirzebruch({a})")


def product_p1(a: int, b: int) -> Instance:
    fan = _polygon_fan([(1, 0), (0, 1), (-1, 0), (0, -1)])
    d = Divisor((a, b, 0, 0))
    return Instance(fan, d, canonical_divisor(fan), f"product_p1({a},{b})")


def intro_simplex(us, t: int, corner_perturbation: bool = False) -> Instance:
    """Normal fan of the simplex conv{0, u_1..u_n} with the support divisor
    scaled by t.  The default perturbation is the canonical representative;
    the corner variant puts -1 exactly on the rays of the cone dual to the
    origin vertex."""
    base_pts = [vec(u, M) if not isinstance(u, Vec) else u for u in us]
    n = base_pts[0].rank
    if len(base_pts) != n:
        raise ValueError("need exactly n spanning lattice points")
    fan, base = polytope_fan([vec((0,) * n, M)] + base_pts)
    if t < 1:
        raise ValueError("scale must be positive")
    if corner_perturbation:
        dp = Divisor(tuple(-1 if c == 0 else 0 for c in base.coeffs))
    else:
        dp = canonical_divisor(fan)
    return Instance(fan, t * base, dp, f"intro_simplex(n={n},t={t})")


def ew_simplex(t: int) -> Instance:
    inst = intro_simplex([(1, 0, 0), (0, 1, 0), (1, 1, 2)], t)
    return Instance(inst.fan, inst.d, inst.dprime, f"ew_simplex(t={t})")


# Sampling constants of random_instance: points per polytope, coordinate box
# per dimension, perturbation denominators, and draws before giving up.
_MAX_POINTS = 6
_BOX = {2: 4, 3: 2}
_MAX_DENOMINATOR = 2
_RETRIES = 60


def random_label(dim: int, seed: int) -> str:
    """The label of random_instance(dim, seed), which reproduces it."""
    return f"random(dim={dim},seed={seed})"


def random_instance(dim: int, seed: int) -> Instance:
    """Deterministic random instance: normal fan of a random lattice polytope,
    support divisor scaled until every wall value reaches dim + 1, and a
    random perturbation with coefficients in [-1, 0].

    Samples are rejected until every maximal cone is simplicial, so the random
    perturbation always has local data; a cone is simplicial when its vertex
    lies on dim facets, so draws are judged on their hull, before their fan
    is built.  A draw that does not span the space is rejected by the hull
    itself (`hulls.FlatPoints`).  The base divisor is solved once, for its
    least wall value, and D = scale * base keeps that solve scaled
    (`DivisorSolve.scaled`) as its own.
    """
    if dim not in (2, 3):
        raise ValueError("dimension must be 2 or 3")
    rng = _random.Random(f"toricva:{dim}:{seed}")
    box = _BOX[dim]
    fan = None
    for _ in range(_RETRIES):
        count = rng.randint(dim + 1, max(dim + 1, _MAX_POINTS))
        raw = [tuple(rng.randint(-box, box) for _ in range(dim)) for _ in range(count)]
        pts = [vec(p, M) for p in sorted(set(raw))]
        if len(pts) <= dim:
            continue
        try:
            rays, cones, base = _normal_fan_data(pts)
        except FlatPoints:
            continue
        if all(len(c) == dim for c in cones):
            fan = build_fan(rays, cones, dim)
            break
    if fan is None:
        raise ValueError(f"no full-dimensional sample after {_RETRIES} retries")
    solved = solve_divisor(fan, base)
    scale = max(1, ceil(Fraction(dim + 1) / min(solved.values)))
    coeffs = []
    for _ in fan.rays:
        den = rng.randint(1, _MAX_DENOMINATOR)
        num = rng.randint(-den, 0)
        coeffs.append(Fraction(num, den))
    inst = Instance(fan, scale * base, Divisor(tuple(coeffs)), random_label(dim, seed))
    inst.__dict__["d_solve"] = solved.scaled(scale)
    return inst


@dataclass(frozen=True)
class Builtin:
    """One named instance family: its signature for `toricva examples`, the
    argument counts it accepts, its constructor and the message raised for
    any other count."""

    name: str
    signature: str
    arg_counts: tuple[int, ...]
    make: Callable[..., Instance]
    usage: str


BUILTINS = {
    b.name: b
    for b in (
        Builtin(
            "projective_space", "projective_space(n[,t])", (1, 2), projective_space,
            "projective_space takes (n) or (n, t)",
        ),
        Builtin(
            "weighted_112", "weighted_112([t])", (0, 1), weighted_112,
            "weighted_112 takes at most (t)",
        ),
        Builtin(
            "hirzebruch", "hirzebruch(a,c0,c1,c2,c3)", (5,),
            lambda a, *cs: hirzebruch(a, cs),
            "hirzebruch takes (a, c0, c1, c2, c3)",
        ),
        Builtin("product_p1", "product_p1(a,b)", (2,), product_p1, "product_p1 takes (a, b)"),
        Builtin(
            "intro_simplex_2d", "intro_simplex_2d(t)", (1,),
            lambda t: intro_simplex([(1, 0), (1, 2)], t, corner_perturbation=True),
            "intro_simplex_2d takes (t)",
        ),
        Builtin(
            "intro_simplex_3d", "intro_simplex_3d(t)", (1,),
            lambda t: intro_simplex(
                [(1, 0, 0), (0, 1, 0), (1, 1, 2)], t, corner_perturbation=True
            ),
            "intro_simplex_3d takes (t)",
        ),
        Builtin("ew_simplex", "ew_simplex(t)", (1,), ew_simplex, "ew_simplex takes (t)"),
    )
}


def builtin(name: str, args: tuple = ()) -> Instance:
    """Instance registry used by the command line: name plus integer args."""
    args = tuple(args)
    entry = BUILTINS.get(name)
    if entry is None:
        raise ValueError(f"unknown builtin {name!r}")
    if len(args) not in entry.arg_counts:
        raise ValueError(entry.usage)
    return entry.make(*args)

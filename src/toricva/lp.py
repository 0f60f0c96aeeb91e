"""Exact linear programming in equality form.

Solves min/max c.x subject to A x = b, x >= 0 with Fraction arithmetic and
Bland's rule, so every answer is exact and termination is guaranteed.  Desk
scale only: tableaus here have at most a few dozen columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import pivot


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
    """Optimize cost . x over {x >= 0 : rows @ x = rhs}."""
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

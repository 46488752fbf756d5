"""Exact rational LP feasibility: the one place that decides infeasibility.

Finds x >= 0 with A x = b in Fraction arithmetic, or reports infeasibility
with a Farkas vector y satisfying y.A <= 0 and y.b > 0, checked exactly by
``separates`` before it is returned.  A caller may offer a candidate y (for
instance a rationalized float dual); when it passes the check, no pivot is
made.  Otherwise a sparse phase-1 simplex decides.  Its reduced-cost row is
kept as one more row of the tableau, so each pivot updates it with the
constraint rows.  Its pivots follow the lowest-index rule on both the
entering column and the leaving row, so the procedure terminates and is
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

SparseCol = Mapping[int, Fraction]  # row index -> coefficient


@dataclass
class FeasibilityResult:
    feasible: bool
    solution: dict[int, Fraction] | None  # column index -> value (feasible case)
    farkas: dict[int, Fraction] | None  # row index -> multiplier (infeasible case)


def _dot(y: Mapping[int, int], col: SparseCol):
    return sum((y.get(i, 0) * c for i, c in col.items()), 0)


def separates(y: Mapping[int, Fraction], columns: Iterable[SparseCol], rhs: SparseCol) -> bool:
    """Exact Farkas check: y.a_j <= 0 for every column and y.b > 0, so no
    x >= 0 solves A x = b."""
    # y times its common denominator has the same signs on every column, and
    # integer columns then sum in integer arithmetic
    y = {i: Fraction(v) for i, v in y.items()}
    den = math.lcm(*(v.denominator for v in y.values()))
    scaled = {i: v.numerator * (den // v.denominator) for i, v in y.items()}
    return _dot(scaled, rhs) > 0 and all(_dot(scaled, col) <= 0 for col in columns)


def solve_feasibility(
    columns: Sequence[SparseCol],
    rhs: Mapping[int, Fraction],
    n_rows: int,
    candidate: Mapping[int, Fraction] | None = None,
) -> FeasibilityResult:
    """Decide {x >= 0 : sum_j columns[j] * x_j = rhs} exactly.

    A candidate Farkas vector that passes ``separates`` is returned as the
    result's ``farkas`` (the same object) without a pivot; otherwise the
    phase-1 simplex runs, and its own Farkas vector must pass the same check.
    """
    if candidate is not None and separates(candidate, columns, rhs):
        return FeasibilityResult(feasible=False, solution=None, farkas=candidate)
    n_cols = len(columns)
    # rows as sparse dicts over column indices, filled in one pass over the
    # columns' entries; artificial j gets index n_cols + i
    rows: list[dict[int, Fraction]] = [{} for _ in range(n_rows)]
    for j, col in enumerate(columns):
        for i, a in col.items():
            if a:
                rows[i][j] = Fraction(a)
    b: list[Fraction] = []
    for i in range(n_rows):
        bi = Fraction(rhs.get(i, 0))
        if bi < 0:
            bi = -bi
            rows[i] = {j: -a for j, a in rows[i].items()}
        rows[i][n_cols + i] = ONE
        b.append(bi)
    basis = [n_cols + i for i in range(n_rows)]
    # the reduced-cost row for minimizing the artificial sum, cost[j] = c_j -
    # z_j, rides below the constraint rows with right-hand side minus the
    # objective value, so that every pivot updates it like any other row
    cost: dict[int, Fraction] = {}
    for row in rows:
        for j, a in row.items():
            if j < n_cols:
                cost[j] = cost.get(j, ZERO) - a
    cost = {j: v for j, v in cost.items() if v}
    rows.append(cost)
    b.append(-sum(b, ZERO))

    while True:
        entering = next((j for j in sorted(cost) if j < n_cols and cost[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best = None
        for i in range(n_rows):
            a = rows[i].get(entering)
            if a and a > 0:
                key = (b[i] / a, basis[i])
                if best is None or key < best:
                    best = key
                    leaving = i
        if leaving is None:
            # the artificial objective is bounded below by 0, so this cannot
            # happen for well-formed input; guard anyway
            raise RuntimeError("phase-1 simplex became unbounded")
        pivot = rows[leaving][entering]
        prow = {j: a / pivot for j, a in rows[leaving].items()}
        pb = b[leaving] / pivot
        rows[leaving] = prow
        b[leaving] = pb
        basis[leaving] = entering
        for i, row in enumerate(rows):
            if i == leaving:
                continue
            factor = row.get(entering)
            if not factor:
                continue
            for j, a in prow.items():
                new = row.get(j, ZERO) - factor * a
                if new:
                    row[j] = new
                else:
                    row.pop(j, None)
            b[i] -= factor * pb

    if b[n_rows] == 0:
        solution: dict[int, Fraction] = {}
        for i, j in enumerate(basis):
            if j < n_cols and b[i]:
                solution[j] = b[i]
        return FeasibilityResult(feasible=True, solution=solution, farkas=None)
    # infeasible: dual multipliers from the reduced costs at artificial columns
    farkas: dict[int, Fraction] = {}
    for i in range(n_rows):
        y = ONE - cost.get(n_cols + i, ZERO)
        # undo the sign flip applied to rows with negative rhs
        if rhs.get(i, ZERO) < 0:
            y = -y
        if y:
            farkas[i] = y
    if not separates(farkas, columns, rhs):
        raise RuntimeError("phase-1 simplex ended with a Farkas vector that fails its check")
    return FeasibilityResult(feasible=False, solution=None, farkas=farkas)

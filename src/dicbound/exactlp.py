"""Exact rational LP feasibility: the one place that decides infeasibility.

Finds x >= 0 with A x = b in Fraction arithmetic, or reports infeasibility
with a Farkas vector y satisfying y.A <= 0 and y.b > 0, checked exactly by
``separates`` before it is returned.  The columns of A are any sequence of
sparse columns, or a ``Columns`` container: an integer block, one line of
(row, sign) terms per column, followed by sparse columns.  ``separates``
scales y to integers once, each distinct value object once, and checks the
whole block in one integer array expression, in int64 when no sum can
overflow and in Python integers otherwise; the sparse columns and b are
dotted one by one, each scaled to integers by its own common denominator.
A caller may offer a candidate y (for instance a rationalized float dual); when it passes the
check, no pivot is made and no column is built as a dict.  Otherwise a
sparse phase-1 simplex decides.  Its reduced-cost row is kept as one more
row of the tableau, so each pivot updates it with the constraint rows.  Its
pivots follow the lowest-index rule on both the entering column and the
leaving row, so the procedure terminates and is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ProverError

ZERO = Fraction(0)
ONE = Fraction(1)

SparseCol = Mapping[int, Fraction]  # row index -> coefficient


@dataclass
class FeasibilityResult:
    feasible: bool
    solution: dict[int, Fraction] | None  # column index -> value (feasible case)
    farkas: dict[int, Fraction] | None  # row index -> multiplier (infeasible case)


class Columns(Sequence):
    """Columns of A: first an integer block, then sparse columns.

    Block column j has entry ``signs[j, s]`` on row ``rows[j, s]`` for each
    s, with every row in 0..size-1 and at most one non-zero sign per row;
    sign 0 marks padding, whose row may also be -1.  Items are built as
    dicts on access, so only the simplex pays for them."""

    def __init__(self, rows: np.ndarray, signs: np.ndarray, size: int, sparse: Sequence[SparseCol] = ()):
        self.rows, self.signs, self.size, self.sparse = rows, signs, size, sparse

    def __len__(self) -> int:
        return len(self.rows) + len(self.sparse)

    def __getitem__(self, j: int) -> SparseCol:
        j = range(len(self))[j]
        if j >= len(self.rows):
            return self.sparse[j - len(self.rows)]
        return {r: s for r, s in zip(self.rows[j].tolist(), self.signs[j].tolist()) if s}

    def __iter__(self):
        for rows, signs in zip(self.rows.tolist(), self.signs.tolist()):
            yield {r: s for r, s in zip(rows, signs) if s}
        yield from self.sparse

    def select(self, indices: Sequence[int]) -> Columns:
        """The columns at the given increasing indices, in that order."""
        indices = np.asarray(indices, dtype=np.int64)
        split = int(np.searchsorted(indices, len(self.rows)))
        block = indices[:split]
        sparse = [self.sparse[j] for j in (indices[split:] - len(self.rows)).tolist()]
        return Columns(self.rows[block], self.signs[block], self.size, sparse)


def _dot(y: Mapping[int, int], col: SparseCol) -> int:
    """y.col times the common denominator of col's coefficients: the sign of
    y.col, in integer arithmetic."""
    den = math.lcm(*(c.denominator for c in col.values()))
    return sum(y.get(i, 0) * (c.numerator * (den // c.denominator)) for i, c in col.items())


def _block_nonpositive(y: Mapping[int, int], columns: Columns) -> bool:
    """Exact integer check that y.a_j <= 0 for every block column."""
    # one slot past the rows, so that padding row -1 reads 0; y's entries
    # off the block's rows touch no block column
    inside = {i: v for i, v in y.items() if 0 <= i < columns.size}
    largest = max(map(abs, inside.values()), default=0)
    # every product and partial sum of a column is at most its sum of |sign|
    # times the largest |y|; int64 only while that bound fits, so that no sum
    # wraps, and Python integers through an object array otherwise
    weight = int(np.abs(columns.signs).sum(axis=1).max(initial=1))
    dtype = np.int64 if weight * largest < 2**63 else object
    values = np.zeros(columns.size + 1, dtype=dtype)
    values[list(inside)] = list(inside.values())
    return bool(((values[columns.rows] * columns.signs).sum(axis=1) <= 0).all())


def separates(y: Mapping[int, Fraction], columns: Iterable[SparseCol], rhs: SparseCol) -> bool:
    """Exact Farkas check: y.a_j <= 0 for every column and y.b > 0, so no
    x >= 0 solves A x = b.  The values of y are rationals (int or
    Fraction); a ``Columns`` block is checked in integer arrays, every
    other column, and b, by its own integer dot product."""
    # y times its common denominator has the same signs on every column, and
    # so does each column times its own, so every dot product is an integer.
    # A lifted y repeats each value of the reduced one, as the same object:
    # the lcm and the scaling run once per distinct value object
    distinct = {id(v): v for v in y.values()}
    den = math.lcm(*(v.denominator for v in distinct.values()))
    for key, v in distinct.items():
        distinct[key] = v.numerator * (den // v.denominator)
    scaled = {i: distinct[id(v)] for i, v in y.items()}
    if _dot(scaled, rhs) <= 0:
        return False
    if isinstance(columns, Columns):
        if not _block_nonpositive(scaled, columns):
            return False
        columns = columns.sparse
    return all(_dot(scaled, col) <= 0 for col in columns)


def solve_feasibility(
    columns: Sequence[SparseCol],
    rhs: Mapping[int, Fraction],
    n_rows: int,
    candidate: Mapping[int, Fraction] | None = None,
) -> FeasibilityResult:
    """Decide {x >= 0 : sum_j columns[j] * x_j = rhs} exactly.

    ``columns`` is a sequence of sparse columns or a ``Columns`` container.
    A candidate Farkas vector that passes ``separates`` is returned as the
    result's ``farkas`` (the same object) without a pivot or a column built;
    otherwise the phase-1 simplex reads every column once, and its own
    Farkas vector must pass the same check, or the call is a ``ProverError``.
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
            raise ProverError("internal error: phase-1 simplex became unbounded")
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
        raise ProverError("internal error: phase-1 simplex ended with a Farkas vector that fails its check")
    return FeasibilityResult(feasible=False, solution=None, farkas=farkas)

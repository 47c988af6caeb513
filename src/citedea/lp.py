"""A small deterministic two-phase simplex solver for dense maximization programs.

The solver targets the programs produced by the efficiency module: a few
weight variables, the normalization row and one row per frontier DMU.  Bland's
rule guards against cycling and makes every run of the same program pivot
identically.  A pivot rewrites only the rows with a nonzero factor, at the
pivot row's nonzero columns, in one vectorized step with the arithmetic of a
row loop, so each entry keeps its bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

PIVOT_TOL = 1e-9
FEASIBILITY_TOL = 1e-7


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Maximize objective . x subject to constraints @ x vs rhs and x >= lower_bounds.

    ``constraints`` is the coefficient matrix with one row per entry of
    ``rhs``; its first ``equalities`` rows hold with equality and the rest
    with <=.  The arrays are stored as read-only float copies.
    """

    objective: np.ndarray
    constraints: np.ndarray
    equalities: int
    rhs: np.ndarray
    lower_bounds: np.ndarray

    def __post_init__(self) -> None:
        size = np.size(self.objective)
        if size == 0:
            raise ValueError("objective must cover at least one variable")
        rows = np.size(self.rhs)
        shapes = {
            "objective": (size,),
            "constraints": (rows, size),
            "rhs": (rows,),
            "lower_bounds": (size,),
        }
        for name, shape in shapes.items():
            array = np.array(getattr(self, name), dtype=float)
            if array.shape != shape:
                raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        if not isinstance(self.equalities, int) or not 0 <= self.equalities <= rows:
            raise ValueError(
                f"equalities must be an integer in [0, {rows}], got {self.equalities!r}"
            )

    @property
    def variable_count(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpSolution:
    """Solver result; objective_value and variable_values are NaN/empty unless OPTIMAL."""

    status: LpStatus
    objective_value: float
    variable_values: tuple[float, ...]


def _pivot(
    tableau: np.ndarray,
    basis: np.ndarray,
    row: int,
    column: int,
    objective_row: np.ndarray | None = None,
) -> None:
    pivot_row = tableau[row]
    pivot_row /= pivot_row[column]
    # each other row with a nonzero factor f becomes row - f * pivot_row, a
    # product and a difference rounded apart as a row loop would round them;
    # entries under a zero of the pivot row keep their value.  Only that block is
    # rewritten, by flat index into the C-contiguous tableau's ravel (a view): on
    # 400 DMUs on one convex frontier ccr_all took 5.8-7.7 s, 8.4 s by np.ix_, 40 s whole.
    factors = tableau[:, column].copy()
    factors[row] = 0.0
    others = factors.nonzero()[0]
    nonzero = pivot_row.nonzero()[0]
    cells = nonzero[:, None] + others * tableau.shape[1]
    tableau.ravel()[cells] -= pivot_row[nonzero][:, None] * factors[others]
    if objective_row is not None and objective_row[column] != 0.0:
        objective_row -= objective_row[column] * pivot_row
    basis[row] = column


def _optimize(
    tableau: np.ndarray, objective_row: np.ndarray, basis: np.ndarray
) -> LpStatus:
    """Pivot until no reduced cost improves the (maximized) objective row.

    Bland's rule on both choices: the entering column is the lowest-index
    improving one, and of the rows within Harris's ratio bound the one with
    the lowest-index basic variable leaves.
    """
    reduced, rhs = objective_row[:-1], tableau[:, -1]
    # Bland's rule cannot cycle in exact arithmetic; the cap only guards
    # against float-tolerance stalls turning into a hang
    for _ in range(10_000 + 100 * len(reduced)):
        improving = reduced < -PIVOT_TOL
        entering = improving.argmax()
        if not improving[entering]:
            return LpStatus.OPTIMAL
        column = tableau[:, entering]
        candidates = (column > PIVOT_TOL).nonzero()[0]
        if not candidates.size:
            return LpStatus.UNBOUNDED
        steps, bounds = column[candidates], rhs[candidates]
        # Harris: a pivot on a row with ratio <= min((rhs + PIVOT_TOL) / step) keeps
        # every candidate's rhs >= -PIVOT_TOL; Bland: the lowest key of those leaves
        tied = candidates[bounds / steps <= ((bounds + PIVOT_TOL) / steps).min()]
        _pivot(tableau, basis, tied[basis[tied].argmin()], entering, objective_row)
    raise ArithmeticError("simplex iteration limit reached; program is ill conditioned")


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a maximization program with a two-phase dense simplex.

    Variables are shifted by their lower bounds into standard form, right
    hand sides are normalized non-negative, and artificial variables carry
    phase one.  The result is deterministic for identical input.
    """
    size, shift = lp.variable_count, lp.lower_bounds
    # each row's dot with the shift is a left fold over the columns, the same
    # sum on every platform; a matrix-vector product may sum in another order
    rhs = lp.rhs - functools.reduce(np.add, (lp.constraints * shift).T)
    flip = rhs < 0
    inequality = np.arange(len(rhs)) >= lp.equalities
    artificial = flip | ~inequality

    # columns: the variables, a slack per inequality row, an artificial per
    # row that is not <=, then the right hand side
    first_artificial = size + len(rhs) - lp.equalities
    total = first_artificial + int(np.count_nonzero(artificial))
    slack_column = size + np.cumsum(inequality) - 1
    artificial_column = first_artificial + np.cumsum(artificial) - 1
    tableau = np.zeros((len(rhs), total + 1))
    tableau[:, :size] = np.where(flip[:, None], -lp.constraints, lp.constraints)
    tableau[:, -1] = np.where(flip, -rhs, rhs)
    tableau[inequality, slack_column[inequality]] = np.where(flip[inequality], -1.0, 1.0)
    tableau[artificial, artificial_column[artificial]] = 1.0
    basis = np.where(artificial, artificial_column, slack_column)

    if artificial.any():
        # phase one maximizes minus the sum of the artificials; its reduced row is
        # that cost row less each artificial's basic row, folded in row order
        stacked = np.vstack((np.zeros(total + 1), tableau[artificial]))
        stacked[0, first_artificial:total] = 1.0
        phase_one = np.subtract.reduce(stacked)
        _optimize(tableau, phase_one, basis)
        if phase_one[-1] < -FEASIBILITY_TOL:
            return LpSolution(LpStatus.INFEASIBLE, math.nan, ())
        # pivot leftover artificials out of the basis; rows that offer no
        # pivot are redundant restatements of other rows and are dropped
        for position in (basis >= first_artificial).nonzero()[0]:
            candidates = (np.abs(tableau[position, :first_artificial]) > PIVOT_TOL).nonzero()[0]
            if candidates.size:
                _pivot(tableau, basis, position, candidates[0])
        # the rhs moves onto the first artificial column, and the copy keeps the
        # columns up to it and the rows whose basic variable is not artificial
        kept = basis < first_artificial
        tableau[:, first_artificial] = tableau[:, -1]
        tableau, basis = tableau[kept, : first_artificial + 1], basis[kept]

    # price the basic columns out of the cost row; each is a unit column, so
    # the multiplier read for a row is not changed by the rows before it
    phase_two = np.zeros(tableau.shape[1])
    phase_two[:size] = -lp.objective
    for position in phase_two[basis].nonzero()[0]:
        phase_two -= phase_two[basis[position]] * tableau[position]
    if _optimize(tableau, phase_two, basis) is LpStatus.UNBOUNDED:
        return LpSolution(LpStatus.UNBOUNDED, math.nan, ())

    shifted = np.zeros(tableau.shape[1] - 1)
    shifted[basis] = tableau[:, -1]
    values = shifted[:size] + shift
    return LpSolution(
        LpStatus.OPTIMAL, float(lp.objective @ values), tuple(values.tolist())
    )

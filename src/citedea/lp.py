"""A small deterministic two-phase simplex solver for dense maximization programs.

The solver targets the programs produced by the efficiency module: a few
weight variables and one row per DMU plus the normalization row.  It favors
robustness over speed: Bland's rule guards against cycling and makes every
run of the same program pivot identically.
"""

from __future__ import annotations

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
    tableau[row] /= tableau[row, column]
    for other in range(tableau.shape[0]):
        if other != row and tableau[other, column] != 0.0:
            tableau[other] -= tableau[other, column] * tableau[row]
    if objective_row is not None and objective_row[column] != 0.0:
        objective_row -= objective_row[column] * tableau[row]
    basis[row] = column


def _optimize(
    tableau: np.ndarray, objective_row: np.ndarray, basis: np.ndarray
) -> LpStatus:
    """Pivot until no reduced cost improves the (maximized) objective row.

    Bland's rule on both choices: the entering column is the lowest-index
    improving one, and ratio ties leave the lowest-index basic variable.
    """
    columns = tableau.shape[1] - 1
    # Bland's rule cannot cycle in exact arithmetic; the cap only guards
    # against float-tolerance stalls turning into a hang
    for _ in range(10_000 + 100 * columns):
        entering = -1
        for column in range(columns):
            if objective_row[column] < -PIVOT_TOL:
                entering = column
                break
        if entering < 0:
            return LpStatus.OPTIMAL
        leaving = -1
        best_ratio = math.inf
        for row in range(tableau.shape[0]):
            step = tableau[row, entering]
            if step > PIVOT_TOL:
                ratio = tableau[row, -1] / step
                if ratio < best_ratio - PIVOT_TOL or (
                    ratio <= best_ratio + PIVOT_TOL
                    and (leaving < 0 or basis[row] < basis[leaving])
                ):
                    best_ratio = min(ratio, best_ratio)
                    leaving = row
        if leaving < 0:
            return LpStatus.UNBOUNDED
        _pivot(tableau, basis, leaving, entering, objective_row)
    raise ArithmeticError("simplex iteration limit reached; program is ill conditioned")


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a maximization program with a two-phase dense simplex.

    Variables are shifted by their lower bounds into standard form, right
    hand sides are normalized non-negative, and artificial variables carry
    phase one.  The result is deterministic for identical input.
    """
    size = lp.variable_count
    shift = lp.lower_bounds
    # one dot per row: a single matrix-vector product may sum in another order
    rhs = lp.rhs - np.array([row @ shift for row in lp.constraints])
    flip = rhs < 0
    inequality = np.arange(len(rhs)) >= lp.equalities
    le, ge = inequality & ~flip, inequality & flip
    artificial = ~le

    # columns: the variables, a slack per inequality row, an artificial per
    # row that is not <=, then the right hand side
    first_artificial = size + int(np.count_nonzero(le | ge))
    total = first_artificial + int(np.count_nonzero(artificial))
    slack_column = size + np.cumsum(le | ge) - 1
    artificial_column = first_artificial + np.cumsum(artificial) - 1
    tableau = np.zeros((len(rhs), total + 1))
    tableau[:, :size] = np.where(flip[:, None], -lp.constraints, lp.constraints)
    tableau[:, -1] = np.where(flip, -rhs, rhs)
    tableau[le, slack_column[le]] = 1.0
    tableau[ge, slack_column[ge]] = -1.0
    tableau[artificial, artificial_column[artificial]] = 1.0
    basis = np.where(le, slack_column, artificial_column)

    if artificial.any():
        # phase one maximizes minus the sum of the artificials; its reduced
        # row is that cost row less each artificial's basic row, in row order
        phase_one = np.zeros(total + 1)
        phase_one[first_artificial:total] = 1.0
        for row in tableau[artificial]:
            phase_one -= row
        _optimize(tableau, phase_one, basis)
        if phase_one[-1] < -FEASIBILITY_TOL:
            return LpSolution(LpStatus.INFEASIBLE, math.nan, ())
        # pivot leftover artificials out of the basis; rows that offer no
        # pivot are redundant restatements of other rows and are dropped
        drop = []
        for position in np.flatnonzero(basis >= first_artificial):
            candidates = np.flatnonzero(
                np.abs(tableau[position, :first_artificial]) > PIVOT_TOL
            )
            if candidates.size:
                _pivot(tableau, basis, position, candidates[0])
            else:
                drop.append(position)
        tableau = np.delete(tableau, drop, axis=0)
        basis = np.delete(basis, drop)
        tableau = np.delete(tableau, np.s_[first_artificial:total], axis=1)

    # price the basic columns out of the cost row; each is a unit column, so
    # the multiplier read for a row is not changed by the rows before it
    phase_two = np.zeros(tableau.shape[1])
    phase_two[:size] = -lp.objective
    for position in np.flatnonzero(phase_two[basis]):
        phase_two -= phase_two[basis[position]] * tableau[position]
    if _optimize(tableau, phase_two, basis) is LpStatus.UNBOUNDED:
        return LpSolution(LpStatus.UNBOUNDED, math.nan, ())

    shifted = np.zeros(tableau.shape[1] - 1)
    shifted[basis] = tableau[:, -1]
    values = shifted[:size] + shift
    return LpSolution(
        LpStatus.OPTIMAL, float(lp.objective @ values), tuple(values.tolist())
    )

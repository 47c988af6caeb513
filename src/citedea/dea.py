"""Input-oriented CCR efficiency analysis over decision-making units.

Each DMU turns one or two positive inputs into one non-negative output: for
a researcher, career years and coauthors in and citations out.  Its efficiency
is the best weighted output it can reach with its own weighted inputs pinned
to one, while no DMU's weighted output exceeds its weighted input and every
weight stays at least ``epsilon`` from zero.  One program is solved per DMU.
It keeps the normalization row, the target's own row and the rows of the DMUs
on the per-output frontier: any other row is implied by one of those, or is
0 <= v . x_j for a DMU with no output, which always holds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .corpus import DmuAggregate
from .lp import FEASIBILITY_TOL, LinearProgram, LpStatus, solve_lp

DEFAULT_EPSILON = 1e-6


class DeaError(ValueError):
    """Raised for invalid DMU data or an unsolvable efficiency program."""


def _shape(values) -> tuple[int, ...] | str:
    try:
        return np.shape(values)
    except ValueError:  # rows of different lengths
        return "(ragged rows)"


@dataclass(frozen=True)
class DmuSet:
    """An ordered DMU collection: one or two inputs and one output per DMU, one matrix row each."""

    ids: tuple[str, ...]
    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(str(label) for label in self.ids))
        if self.size == 0:
            raise DeaError("a DMU set needs at least one DMU")
        repeated = [label for label, count in Counter(self.ids).items() if count > 1]
        if repeated:
            raise DeaError(f"duplicate DMU id {repeated[0]!r}: give each DMU its own id")
        shapes = _shape(self.inputs), _shape(self.outputs)
        if shapes[0] not in ((self.size, 1), (self.size, 2)) or shapes[1] != (self.size, 1):
            raise DeaError(
                "a DMU set holds one output and one or two inputs per DMU: "
                f"{self.size} ids, inputs of shape {shapes[0]}, outputs of shape {shapes[1]}"
            )
        inputs = np.array(self.inputs, dtype=float)
        outputs = np.array(self.outputs, dtype=float)
        if not np.all(np.isfinite(inputs)) or not np.all(np.isfinite(outputs)):
            raise DeaError("inputs and outputs must be finite")
        if np.any(inputs <= 0):
            raise DeaError("all input values must be strictly positive")
        if np.any(outputs < 0):
            raise DeaError("output values must be non-negative")
        if not np.any(outputs > 0):
            raise DeaError(
                "at least one DMU must have a strictly positive output; every "
                "researcher has 0 citations, so no one can be scored: include a "
                "researcher with citations"
            )
        inputs.setflags(write=False)
        outputs.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)

    @classmethod
    def from_aggregates(cls, aggregates: Sequence[DmuAggregate]) -> "DmuSet":
        """Build the 2-input (years, coauthors), 1-output (citations) set."""
        return cls(
            ids=tuple(item.id for item in aggregates),
            inputs=[[float(item.years), float(item.coauthors)] for item in aggregates],
            outputs=[[float(item.citations)] for item in aggregates],
        )

    @property
    def size(self) -> int:
        return len(self.ids)

    @cached_property
    def binding_rows(self) -> np.ndarray:
        """Indices, in input order, of the DMUs whose rows every program keeps.

        These are the DMUs with a positive output whose per-output point no
        other DMU dominates; every other DMU's row is implied by one of theirs.
        Sorted lexicographically, equal points sit together and no later point
        dominates, so with one or two coordinates a point is dominated exactly
        when a point before its run has a last coordinate no larger than its
        own (Kung, Luccio & Preparata 1975).
        """
        rows = np.flatnonzero(self.outputs[:, 0] > 0)
        points = self.inputs[rows] / self.outputs[rows]
        order = np.lexsort(points.T[::-1])
        ordered = points[order]
        starts = np.concatenate([[True], np.any(ordered[1:] != ordered[:-1], axis=1)])
        run_start = np.maximum.accumulate(np.where(starts, np.arange(len(rows)), 0))
        lowest = np.minimum.accumulate(ordered[:, -1])[run_start - 1]  # index -1: nothing before
        dominated = (run_start > 0) & (lowest <= ordered[:, -1])
        rows = rows[np.sort(order[~dominated])]
        rows.setflags(write=False)
        return rows


@dataclass(frozen=True)
class EfficiencyScore:
    """One DMU's efficiency with the weights that achieve it.

    A DMU with no positive output scores exactly 0: its objective is 0 for
    every choice of weights.
    """

    dmu_id: str
    score: float
    input_weights: tuple[float, ...]
    output_weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0 + FEASIBILITY_TOL:
            raise ValueError(f"score must lie in [0, 1], got {self.score!r}")


def _epsilon_bounds(epsilon: float | Sequence[float], count: int) -> tuple[float, ...]:
    """Normalize epsilon to one strictly positive lower bound per weight."""
    scalar = np.ndim(epsilon) == 0
    bounds = (float(epsilon),) * count if scalar else tuple(float(value) for value in epsilon)
    if len(bounds) != count:
        raise DeaError(f"epsilon needs one bound per weight: got {len(bounds)}, expected {count}")
    if any(not np.isfinite(bound) or bound <= 0 for bound in bounds):
        raise DeaError(f"epsilon must be strictly positive, got {epsilon!r}")
    return bounds


def build_ccr_lp(
    dmus: DmuSet, target_index: int, epsilon: float | Sequence[float] = DEFAULT_EPSILON
) -> LinearProgram:
    """The multiplier-form program whose optimum is the target DMU's efficiency.

    Variables are the output weight u followed by the input weights v_1..v_m.
    The objective is the target's weighted output, the target's weighted
    input is pinned to one, and all weights are bounded below by
    ``epsilon`` (a scalar, or one bound per weight in variable order).  The
    weighted output may not exceed the weighted input for the DMUs of
    ``dmus.binding_rows`` and the target, one ``<=`` row each in input order;
    those rows imply the same bound for every other DMU.
    """
    # a bool is no DMU position, and np.issubdtype(bool, np.integer) is False
    if not np.issubdtype(type(target_index), np.integer) or not 0 <= target_index < dmus.size:
        raise DeaError(
            f"target_index {target_index!r} out of range for {dmus.size} DMUs: "
            f"give an int from 0 to {dmus.size - 1}"
        )
    inputs = dmus.inputs[target_index]
    rows = np.union1d(dmus.binding_rows, [target_index])
    return LinearProgram(
        objective=np.concatenate([dmus.outputs[target_index], np.zeros_like(inputs)]),
        constraints=np.vstack(
            [np.concatenate([[0.0], inputs]), np.hstack([dmus.outputs[rows], -dmus.inputs[rows]])]
        ),
        equalities=1,
        rhs=np.concatenate([[1.0], np.zeros(len(rows))]),
        lower_bounds=_epsilon_bounds(epsilon, 1 + len(inputs)),
    )


def _largest_epsilon(dmus: DmuSet, target_index: int) -> float:
    """The largest common lower bound on every weight that keeps the target feasible.

    Writes each weight as t plus a non-negative part and maximizes t over the
    target's program rows, in which t's coefficient is each row's sum; t is
    positive because every input is.
    """
    ccr = build_ccr_lp(dmus, target_index)
    program = LinearProgram(
        objective=np.append(np.zeros(ccr.variable_count), 1.0),
        constraints=np.column_stack([ccr.constraints, ccr.constraints.sum(axis=1)]),
        equalities=1,
        rhs=ccr.rhs,
        lower_bounds=np.zeros(ccr.variable_count + 1),
    )
    return solve_lp(program).objective_value


def ccr_efficiency(
    dmus: DmuSet, target_index: int, epsilon: float | Sequence[float] = DEFAULT_EPSILON
) -> EfficiencyScore:
    """Solve the target DMU's program and return its efficiency and weights."""
    program = build_ccr_lp(dmus, target_index, epsilon)
    label = dmus.ids[target_index]
    # the bounds alone put the target's weighted input above 1: the solver would
    # find the program infeasible, or first overflow its shifted right hand side
    with np.errstate(over="ignore"):
        floor = program.constraints[0] @ program.lower_bounds
    try:
        solution = None if floor > 1.0 + FEASIBILITY_TOL else solve_lp(program)
    except ArithmeticError:
        raise DeaError(
            f"efficiency program for DMU {label!r} hit the simplex iteration limit; "
            "check its counts for extreme values"
        ) from None
    if solution is None or solution.status is LpStatus.INFEASIBLE:
        raise DeaError(
            f"no feasible weights for DMU {label!r} with epsilon {epsilon!r}; "
            f"lower the bound: the largest feasible epsilon for {label!r} is "
            f"{_largest_epsilon(dmus, target_index):.4g}"
        )
    if solution.status is not LpStatus.OPTIMAL:
        raise DeaError(
            f"efficiency program for DMU {label!r} ended {solution.status.value}"
        )
    # the optimum cannot exceed 1 in exact arithmetic, so anything within the
    # solver's feasibility tolerance of 1 is reported as exactly efficient
    score = solution.objective_value
    if score > 1.0 or abs(score - 1.0) <= FEASIBILITY_TOL:
        score = 1.0
    return EfficiencyScore(
        dmu_id=label,
        score=score,
        input_weights=solution.variable_values[1:],
        output_weights=solution.variable_values[:1],
    )


def ccr_all(
    dmus: DmuSet, epsilon: float | Sequence[float] = DEFAULT_EPSILON
) -> list[EfficiencyScore]:
    """One efficiency score per DMU, in input order."""
    return [ccr_efficiency(dmus, index, epsilon) for index in range(dmus.size)]


def frontier(dmus: DmuSet) -> list[str]:
    """Ids of the DMUs whose per-output input points are Pareto-minimal.

    Defined for sets whose outputs are all strictly positive: each DMU maps
    to the point (input_1 / output[, input_2 / output]), and a DMU stays on
    the frontier unless some other DMU is no worse in every coordinate and
    strictly better in at least one.  These are the DMUs of ``binding_rows``.
    """
    empty = np.flatnonzero(dmus.outputs[:, 0] <= 0)
    if empty.size:
        raise DeaError(
            f"DMU {dmus.ids[empty[0]]!r} has no output; its per-output point is "
            "undefined: remove it from the input or give it citations"
        )
    return [dmus.ids[index] for index in dmus.binding_rows.tolist()]

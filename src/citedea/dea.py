"""Input-oriented CCR efficiency analysis over decision-making units.

Each DMU turns a vector of positive inputs into a vector of non-negative
outputs.  A DMU's efficiency is the best weighted-output total it can reach
with its own weighted inputs normalized to one, subject to no DMU in the set
beating its inputs under the same weights, and with every weight held at
least ``epsilon`` away from zero.  One linear program is solved per DMU.

With one output, a DMU's row u * y_j <= v . x_j is implied, for every v >= 0,
by the row of any DMU whose per-output input point is no worse in every
coordinate, and a DMU with no output has the row 0 <= v . x_j, which always
holds.  So each program holds only the normalization row, the rows of the
DMUs on the per-output frontier, and the target's own row; a set with more
than one output keeps a row for every DMU.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .corpus import DmuAggregate
from .lp import FEASIBILITY_TOL, LinearProgram, LpStatus, solve_lp

DEFAULT_EPSILON = 1e-6


class DeaError(ValueError):
    """Raised for invalid DMU data or an unsolvable efficiency program."""


@dataclass(frozen=True)
class DmuSet:
    """An ordered DMU collection with input and output matrices, one row per DMU."""

    ids: tuple[str, ...]
    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(str(label) for label in self.ids))
        if len(self.ids) == 0:
            raise DeaError("a DMU set needs at least one DMU")
        inputs = np.array(self.inputs, dtype=float)
        outputs = np.array(self.outputs, dtype=float)
        if inputs.ndim != 2 or outputs.ndim != 2:
            raise DeaError("inputs and outputs must be two-dimensional matrices")
        if inputs.shape[0] != len(self.ids) or outputs.shape[0] != len(self.ids):
            raise DeaError(
                f"expected one matrix row per DMU: {len(self.ids)} ids, "
                f"{inputs.shape[0]} input rows, {outputs.shape[0]} output rows"
            )
        if inputs.shape[1] == 0 or outputs.shape[1] == 0:
            raise DeaError("every DMU needs at least one input and one output")
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

    @property
    def input_count(self) -> int:
        return self.inputs.shape[1]

    @property
    def output_count(self) -> int:
        return self.outputs.shape[1]

    @cached_property
    def binding_rows(self) -> np.ndarray:
        """Indices, in input order, of the DMUs whose rows every program keeps.

        For one output these are the DMUs with a positive output whose
        per-output point no other DMU dominates; every other DMU's row is
        implied by one of theirs.  With more outputs every DMU is kept.
        """
        rows = np.arange(self.size)
        if self.output_count == 1:
            output = self.outputs[:, 0]
            rows = rows[output > 0]
            points = self.inputs[rows] / output[rows, None]
            # a point's dominators all come before it in lexicographic order,
            # and each dominated point has a dominator on the frontier, so
            # every point is tested against the frontier points found before it
            kept = np.zeros(len(rows), dtype=bool)
            front = points[:0]
            for index in np.lexsort(points.T[::-1]):
                point = points[index]
                if not np.any(np.all(front <= point, axis=1) & np.any(front < point, axis=1)):
                    kept[index] = True
                    front = np.vstack([front, point])
            rows = rows[kept]
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
    if np.isscalar(epsilon):
        bounds = (float(epsilon),) * count
    else:
        bounds = tuple(float(value) for value in epsilon)
        if len(bounds) != count:
            raise DeaError(
                f"epsilon needs one bound per weight: got {len(bounds)}, expected {count}"
            )
    if any(not np.isfinite(bound) or bound <= 0 for bound in bounds):
        raise DeaError(f"epsilon must be strictly positive, got {epsilon!r}")
    return bounds


def build_ccr_lp(
    dmus: DmuSet, target_index: int, epsilon: float | Sequence[float] = DEFAULT_EPSILON
) -> LinearProgram:
    """The multiplier-form program whose optimum is the target DMU's efficiency.

    Variables are the output weights u_1..u_s followed by the input weights
    v_1..v_m.  The objective is the target's weighted output, the target's
    weighted input is pinned to one, and all weights are bounded below by
    ``epsilon`` (a scalar, or one bound per weight in variable order).  The
    weighted output may not exceed the weighted input for the DMUs of
    ``dmus.binding_rows`` and the target, one ``<=`` row each in input order;
    those rows imply the same bound for every other DMU.
    """
    if not 0 <= target_index < dmus.size:
        raise DeaError(
            f"target_index {target_index} out of range for {dmus.size} DMUs"
        )
    s = dmus.output_count
    m = dmus.input_count
    normalization = np.concatenate([np.zeros(s), dmus.inputs[target_index]])
    rows = np.union1d(dmus.binding_rows, [target_index])
    return LinearProgram(
        objective=np.concatenate([dmus.outputs[target_index], np.zeros(m)]),
        constraints=np.vstack(
            [normalization, np.hstack([dmus.outputs[rows], -dmus.inputs[rows]])]
        ),
        equalities=1,
        rhs=np.concatenate([[1.0], np.zeros(len(rows))]),
        lower_bounds=_epsilon_bounds(epsilon, s + m),
    )


def _largest_epsilon(dmus: DmuSet, target_index: int) -> float:
    """The largest common lower bound on every weight that keeps the target feasible.

    Maximizes t over the target's program rows plus t <= each weight, with
    all variables non-negative; t is positive because every input is.
    """
    ccr = build_ccr_lp(dmus, target_index)
    weights = ccr.variable_count
    caps = np.hstack([-np.eye(weights), np.ones((weights, 1))])  # t - w <= 0
    program = LinearProgram(
        objective=np.append(np.zeros(weights), 1.0),
        constraints=np.vstack([np.pad(ccr.constraints, ((0, 0), (0, 1))), caps]),
        equalities=1,
        rhs=np.append(ccr.rhs, np.zeros(weights)),
        lower_bounds=np.zeros(weights + 1),
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
    s = dmus.output_count
    return EfficiencyScore(
        dmu_id=label,
        score=score,
        input_weights=solution.variable_values[s:],
        output_weights=solution.variable_values[:s],
    )


def ccr_all(
    dmus: DmuSet, epsilon: float | Sequence[float] = DEFAULT_EPSILON
) -> list[EfficiencyScore]:
    """One efficiency score per DMU, in input order."""
    return [ccr_efficiency(dmus, index, epsilon) for index in range(dmus.size)]


def frontier(dmus: DmuSet) -> list[str]:
    """Ids of the DMUs whose per-output input points are Pareto-minimal.

    Defined for single-output sets with strictly positive outputs: each DMU
    maps to the point (input_1 / output, ..., input_m / output), and a DMU
    stays on the frontier unless some other DMU is no worse in every
    coordinate and strictly better in at least one.
    """
    if dmus.output_count != 1:
        raise DeaError("frontier is defined for single-output DMU sets")
    output = dmus.outputs[:, 0]
    for index, value in enumerate(output):
        if value <= 0:
            raise DeaError(
                f"DMU {dmus.ids[index]!r} has no output; its per-output point is "
                "undefined: remove it from the input or give it citations"
            )
    return [dmus.ids[index] for index in dmus.binding_rows.tolist()]

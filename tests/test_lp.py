"""Two-phase simplex: statuses, optima, feasibility tolerances, determinism."""

import math

import numpy as np
import pytest
from scipy.optimize import linprog

from citedea import (
    LinearProgram,
    LpStatus,
    Relation,
    solve_lp,
)


def lp(objective, constraints, lower_bounds=None):
    if lower_bounds is None:
        lower_bounds = (0.0,) * len(objective)
    return LinearProgram(
        objective=objective,
        constraints=[c for c, _, _ in constraints] or np.zeros((0, len(objective))),
        senses=[r for _, r, _ in constraints],
        rhs=[b for _, _, b in constraints],
        lower_bounds=lower_bounds,
    )


class TestStatuses:
    def test_single_variable_optimum(self):
        solution = solve_lp(lp([1.0], [((1.0,), Relation.LE, 3.0)]))
        assert solution.status is LpStatus.OPTIMAL
        assert solution.objective_value == pytest.approx(3.0)
        assert solution.variable_values == pytest.approx((3.0,))

    def test_missing_upper_constraint_is_unbounded(self):
        solution = solve_lp(lp([1.0], []))
        assert solution.status is LpStatus.UNBOUNDED
        assert math.isnan(solution.objective_value)

    def test_empty_feasible_set_is_infeasible(self):
        solution = solve_lp(lp([1.0], [((1.0,), Relation.LE, -1.0)]))
        assert solution.status is LpStatus.INFEASIBLE


class TestConstruction:
    def test_constraint_dimension_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match=r"constraints has shape \(1, 1\)"):
            lp([1.0, 1.0], [((1.0,), Relation.LE, 1.0)])

    def test_lower_bound_dimension_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="lower_bounds"):
            lp([1.0], [], lower_bounds=(0.0, 0.0))

    def test_empty_objective_is_rejected(self):
        with pytest.raises(ValueError, match="at least one variable"):
            LinearProgram(
                objective=(), constraints=(), senses=(), rhs=(), lower_bounds=()
            )


class TestMechanics:
    def test_equality_row(self):
        solution = solve_lp(lp([1.0, 1.0], [((1.0, 1.0), Relation.EQ, 1.0)]))
        assert solution.status is LpStatus.OPTIMAL
        assert solution.objective_value == pytest.approx(1.0)

    def test_ge_row(self):
        solution = solve_lp(lp([-1.0], [((1.0,), Relation.GE, 2.0)]))
        assert solution.status is LpStatus.OPTIMAL
        assert solution.objective_value == pytest.approx(-2.0)
        assert solution.variable_values == pytest.approx((2.0,))

    def test_lower_bounds_shift_the_optimum(self):
        solution = solve_lp(
            lp([-1.0], [((1.0,), Relation.LE, 3.0)], lower_bounds=(0.5,))
        )
        assert solution.variable_values == pytest.approx((0.5,))
        assert solution.objective_value == pytest.approx(-0.5)

    def test_redundant_equalities_are_tolerated(self):
        solution = solve_lp(
            lp(
                [1.0, 1.0],
                [
                    ((1.0, 1.0), Relation.EQ, 1.0),
                    ((2.0, 2.0), Relation.EQ, 2.0),
                    ((1.0, 0.0), Relation.LE, 0.25),
                ],
            )
        )
        assert solution.status is LpStatus.OPTIMAL
        assert solution.objective_value == pytest.approx(1.0)

    def test_two_variable_corner(self):
        solution = solve_lp(
            lp(
                [3.0, 5.0],
                [
                    ((1.0, 0.0), Relation.LE, 4.0),
                    ((0.0, 2.0), Relation.LE, 12.0),
                    ((3.0, 2.0), Relation.LE, 18.0),
                ],
            )
        )
        assert solution.objective_value == pytest.approx(36.0)
        assert solution.variable_values == pytest.approx((2.0, 6.0))


def random_program(rng):
    variables = rng.integers(1, 5)
    constraints = []
    for _ in range(rng.integers(1, 6)):
        coefficients = tuple(rng.integers(-4, 5) * 1.0 for _ in range(variables))
        relation = (Relation.LE, Relation.GE, Relation.EQ)[rng.integers(0, 3)]
        constraints.append((coefficients, relation, float(rng.integers(-6, 10))))
    objective = tuple(rng.integers(-5, 6) * 1.0 for _ in range(variables))
    bounds = tuple(float(rng.integers(0, 3)) * 0.5 for _ in range(variables))
    return lp(objective, constraints, bounds)


def scipy_reference(program):
    relations = program.senses
    matrix = program.constraints
    rhs = program.rhs
    le = [i for i, r in enumerate(relations) if r is Relation.LE]
    ge = [i for i, r in enumerate(relations) if r is Relation.GE]
    eq = [i for i, r in enumerate(relations) if r is Relation.EQ]
    a_ub = np.vstack([matrix[le], -matrix[ge]]) if le or ge else None
    b_ub = np.concatenate([rhs[le], -rhs[ge]]) if le or ge else None
    a_eq = matrix[eq] if eq else None
    b_eq = rhs[eq] if eq else None
    return linprog(
        c=-np.array(program.objective),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(low, None) for low in program.lower_bounds],
        method="highs",
    )


class TestAgainstScipy:
    def test_random_programs_match(self):
        rng = np.random.default_rng(20240817)
        statuses = {LpStatus.OPTIMAL: 0, LpStatus.INFEASIBLE: 0, LpStatus.UNBOUNDED: 0}
        for _ in range(60):
            program = random_program(rng)
            ours = solve_lp(program)
            reference = scipy_reference(program)
            statuses[ours.status] += 1
            if reference.status == 0:
                assert ours.status is LpStatus.OPTIMAL
                assert ours.objective_value == pytest.approx(-reference.fun, abs=1e-6)
            elif reference.status == 2:
                assert ours.status is LpStatus.INFEASIBLE
            elif reference.status == 3:
                assert ours.status is LpStatus.UNBOUNDED
        # the seed must exercise every status at least once
        assert all(count > 0 for count in statuses.values())

    def test_optimal_solutions_respect_feasibility_tolerances(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(60):
            program = random_program(rng)
            solution = solve_lp(program)
            if solution.status is not LpStatus.OPTIMAL:
                continue
            checked += 1
            values = np.array(solution.variable_values)
            assert np.all(values >= np.array(program.lower_bounds) - 1e-9)
            for row, relation, rhs in zip(
                program.constraints, program.senses, program.rhs
            ):
                activity = float(np.dot(row, values))
                if relation is Relation.LE:
                    assert activity <= rhs + 1e-7
                elif relation is Relation.GE:
                    assert activity >= rhs - 1e-7
                else:
                    assert activity == pytest.approx(rhs, abs=1e-7)
        assert checked > 10


class TestDeterminism:
    def test_identical_programs_solve_identically(self):
        program = lp(
            [2.0, 1.0, 3.0],
            [
                ((1.0, 1.0, 1.0), Relation.LE, 10.0),
                ((1.0, -1.0, 2.0), Relation.GE, 2.0),
                ((0.0, 1.0, 1.0), Relation.EQ, 4.0),
            ],
            (0.1, 0.0, 0.2),
        )
        first = solve_lp(program)
        second = solve_lp(program)
        assert first.objective_value == second.objective_value
        assert first.variable_values == second.variable_values

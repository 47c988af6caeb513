"""Two-phase simplex: statuses, optima, feasibility tolerances, determinism,
and bit-identity with the row-by-row solver it replaced."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from citedea import (
    DmuSet,
    LinearProgram,
    LpSolution,
    LpStatus,
    build_ccr_lp,
    parse_aggregates,
    solve_lp,
)
from citedea import lp as lp_module


def lp(objective, equalities=(), inequalities=(), lower_bounds=None):
    """The program with ``equalities`` rows (=) first, then ``inequalities`` rows (<=).

    Each row is a (coefficients, right-hand side) pair.
    """
    if lower_bounds is None:
        lower_bounds = (0.0,) * len(objective)
    rows = [*equalities, *inequalities]
    return LinearProgram(
        objective=objective,
        constraints=[c for c, _ in rows] or np.zeros((0, len(objective))),
        equalities=len(equalities),
        rhs=[b for _, b in rows],
        lower_bounds=lower_bounds,
    )


class TestStatuses:
    def test_single_variable_optimum(self):
        solution = solve_lp(lp([1.0], inequalities=[((1.0,), 3.0)]))
        assert solution.status is LpStatus.OPTIMAL
        assert solution.objective_value == pytest.approx(3.0)
        assert solution.variable_values == pytest.approx((3.0,))

    def test_missing_upper_constraint_is_unbounded(self):
        solution = solve_lp(lp([1.0]))
        assert solution.status is LpStatus.UNBOUNDED
        assert math.isnan(solution.objective_value)

    def test_empty_feasible_set_is_infeasible(self):
        solution = solve_lp(lp([1.0], inequalities=[((1.0,), -1.0)]))
        assert solution.status is LpStatus.INFEASIBLE


class TestConstruction:
    def test_constraint_dimension_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match=r"constraints has shape \(1, 1\)"):
            lp([1.0, 1.0], inequalities=[((1.0,), 1.0)])

    def test_lower_bound_dimension_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="lower_bounds"):
            lp([1.0], lower_bounds=(0.0, 0.0))

    def test_empty_objective_is_rejected(self):
        with pytest.raises(ValueError, match="at least one variable"):
            LinearProgram(
                objective=(), constraints=(), equalities=0, rhs=(), lower_bounds=()
            )

    @pytest.mark.parametrize("equalities", [-1, 3])
    def test_equality_count_outside_the_rows_is_rejected(self, equalities):
        with pytest.raises(ValueError, match=r"equalities must be an integer in \[0, 2\]"):
            LinearProgram(
                objective=(1.0,),
                constraints=((1.0,), (2.0,)),
                equalities=equalities,
                rhs=(1.0, 2.0),
                lower_bounds=(0.0,),
            )


class TestMechanics:
    def test_equality_row(self):
        solution = solve_lp(lp([1.0, 1.0], equalities=[((1.0, 1.0), 1.0)]))
        assert solution.status is LpStatus.OPTIMAL
        assert solution.objective_value == pytest.approx(1.0)

    def test_ge_row(self):
        # x >= 2 is held as -x <= -2
        solution = solve_lp(lp([-1.0], inequalities=[((-1.0,), -2.0)]))
        assert solution.status is LpStatus.OPTIMAL
        assert solution.objective_value == pytest.approx(-2.0)
        assert solution.variable_values == pytest.approx((2.0,))

    def test_lower_bounds_shift_the_optimum(self):
        solution = solve_lp(
            lp([-1.0], inequalities=[((1.0,), 3.0)], lower_bounds=(0.5,))
        )
        assert solution.variable_values == pytest.approx((0.5,))
        assert solution.objective_value == pytest.approx(-0.5)

    def test_redundant_equalities_are_tolerated(self):
        solution = solve_lp(
            lp(
                [1.0, 1.0],
                equalities=[((1.0, 1.0), 1.0), ((2.0, 2.0), 2.0)],
                inequalities=[((1.0, 0.0), 0.25)],
            )
        )
        assert solution.status is LpStatus.OPTIMAL
        assert solution.objective_value == pytest.approx(1.0)

    def test_two_variable_corner(self):
        solution = solve_lp(
            lp(
                [3.0, 5.0],
                inequalities=[
                    ((1.0, 0.0), 4.0),
                    ((0.0, 2.0), 12.0),
                    ((3.0, 2.0), 18.0),
                ],
            )
        )
        assert solution.objective_value == pytest.approx(36.0)
        assert solution.variable_values == pytest.approx((2.0, 6.0))


def random_program(rng):
    variables = rng.integers(1, 5)
    equalities, inequalities = [], []
    for _ in range(rng.integers(1, 6)):
        coefficients = tuple(rng.integers(-4, 5) * 1.0 for _ in range(variables))
        relation = ("<=", ">=", "=")[rng.integers(0, 3)]
        rhs = float(rng.integers(-6, 10))
        if relation == "=":
            equalities.append((coefficients, rhs))
        elif relation == ">=":
            inequalities.append((tuple(-c for c in coefficients), -rhs))
        else:
            inequalities.append((coefficients, rhs))
    objective = tuple(rng.integers(-5, 6) * 1.0 for _ in range(variables))
    bounds = tuple(float(rng.integers(0, 3)) * 0.5 for _ in range(variables))
    return lp(objective, equalities, inequalities, bounds)


def scipy_reference(program):
    split = program.equalities
    matrix = program.constraints
    rhs = program.rhs
    has_ub = split < len(rhs)
    a_ub = matrix[split:] if has_ub else None
    b_ub = rhs[split:] if has_ub else None
    a_eq = matrix[:split] if split else None
    b_eq = rhs[:split] if split else None
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
            for index, (row, rhs) in enumerate(zip(program.constraints, program.rhs)):
                activity = float(np.dot(row, values))
                if index >= program.equalities:
                    assert activity <= rhs + 1e-7
                else:
                    assert activity == pytest.approx(rhs, abs=1e-7)
        assert checked > 10


class TestNearTiedRatios:
    def test_a_near_tie_leaves_the_row_with_the_least_ratio(self):
        # row 0's ratio is 9e-10 above row 1's, within PIVOT_TOL; pivoting on
        # the lower basis key, row 0, would push row 1's slack to -9e-6
        constraints = np.array([[1e3], [1e4]])
        rhs = np.array([1e3 + 9e-7, 1e4])
        program = lp([1.0], inequalities=list(zip(constraints, rhs)))
        solution = solve_lp(program)
        assert solution.status is LpStatus.OPTIMAL
        assert solution.objective_value == -scipy_reference(program).fun == 1.0
        activity = constraints @ np.array(solution.variable_values)
        assert np.all(activity <= rhs + lp_module.FEASIBILITY_TOL)


class TestDeterminism:
    def test_identical_programs_solve_identically(self):
        program = lp(
            [2.0, 1.0, 3.0],
            equalities=[((0.0, 1.0, 1.0), 4.0)],
            inequalities=[((1.0, 1.0, 1.0), 10.0), ((-1.0, 1.0, -2.0), -2.0)],
            lower_bounds=(0.1, 0.0, 0.2),
        )
        first = solve_lp(program)
        second = solve_lp(program)
        assert first.objective_value == second.objective_value
        assert first.variable_values == second.variable_values


# The solver as it was before pivots were vectorized: one Python step per
# tableau row.  The vectorized solver must take the same pivots and return
# the same bits.


def oracle_pivot(tableau, basis, row, column, objective_row=None):
    tableau[row] /= tableau[row, column]
    for other in range(tableau.shape[0]):
        if other != row and tableau[other, column] != 0.0:
            tableau[other] -= tableau[other, column] * tableau[row]
    if objective_row is not None and objective_row[column] != 0.0:
        objective_row -= objective_row[column] * tableau[row]
    basis[row] = column


def oracle_optimize(tableau, objective_row, basis, pivots):
    columns = tableau.shape[1] - 1
    for _ in range(10_000 + 100 * columns):
        entering = -1
        for column in range(columns):
            if objective_row[column] < -lp_module.PIVOT_TOL:
                entering = column
                break
        if entering < 0:
            return LpStatus.OPTIMAL
        # Harris's bound over the candidate rows, then the lowest basis key
        # among the rows whose ratio is within it
        tol = lp_module.PIVOT_TOL
        rows = [row for row in range(tableau.shape[0]) if tableau[row, entering] > tol]
        if not rows:
            return LpStatus.UNBOUNDED
        bound = min((tableau[row, -1] + tol) / tableau[row, entering] for row in rows)
        leaving = -1
        for row in rows:
            if tableau[row, -1] / tableau[row, entering] <= bound and (
                leaving < 0 or basis[row] < basis[leaving]
            ):
                leaving = row
        pivots.append((leaving, entering))
        oracle_pivot(tableau, basis, leaving, entering, objective_row)
    raise ArithmeticError("simplex iteration limit reached")


def oracle_solve(program):
    """(solution, pivots) of the row-loop solver; pivots are (row, column) pairs."""
    pivots = []
    size = program.variable_count
    shift = program.lower_bounds
    # each row's dot with the shift, summed column by column from the left
    dots = []
    for row in program.constraints:
        dot = row[0] * shift[0]
        for coefficient, bound in zip(row[1:], shift[1:]):
            dot = dot + coefficient * bound
        dots.append(dot)
    rhs = program.rhs - np.array(dots)
    flip = rhs < 0
    inequality = np.arange(len(rhs)) >= program.equalities
    le, ge = inequality & ~flip, inequality & flip
    artificial = ~le
    first_artificial = size + int(np.count_nonzero(le | ge))
    total = first_artificial + int(np.count_nonzero(artificial))
    slack_column = size + np.cumsum(le | ge) - 1
    artificial_column = first_artificial + np.cumsum(artificial) - 1
    tableau = np.zeros((len(rhs), total + 1))
    tableau[:, :size] = np.where(flip[:, None], -program.constraints, program.constraints)
    tableau[:, -1] = np.where(flip, -rhs, rhs)
    tableau[le, slack_column[le]] = 1.0
    tableau[ge, slack_column[ge]] = -1.0
    tableau[artificial, artificial_column[artificial]] = 1.0
    basis = np.where(le, slack_column, artificial_column)
    if artificial.any():
        phase_one = np.zeros(total + 1)
        phase_one[first_artificial:total] = 1.0
        for row in tableau[artificial]:
            phase_one -= row
        oracle_optimize(tableau, phase_one, basis, pivots)
        if phase_one[-1] < -lp_module.FEASIBILITY_TOL:
            return LpSolution(LpStatus.INFEASIBLE, math.nan, ()), pivots
        drop = []
        for position in np.flatnonzero(basis >= first_artificial):
            candidates = np.flatnonzero(
                np.abs(tableau[position, :first_artificial]) > lp_module.PIVOT_TOL
            )
            if candidates.size:
                pivots.append((position, candidates[0]))
                oracle_pivot(tableau, basis, position, candidates[0])
            else:
                drop.append(position)
        tableau = np.delete(tableau, drop, axis=0)
        basis = np.delete(basis, drop)
        tableau = np.delete(tableau, np.s_[first_artificial:total], axis=1)
    phase_two = np.zeros(tableau.shape[1])
    phase_two[:size] = -program.objective
    for position in np.flatnonzero(phase_two[basis]):
        phase_two -= phase_two[basis[position]] * tableau[position]
    if oracle_optimize(tableau, phase_two, basis, pivots) is LpStatus.UNBOUNDED:
        return LpSolution(LpStatus.UNBOUNDED, math.nan, ()), pivots
    shifted = np.zeros(tableau.shape[1] - 1)
    shifted[basis] = tableau[:, -1]
    values = shifted[:size] + shift
    solution = LpSolution(
        LpStatus.OPTIMAL, float(program.objective @ values), tuple(values.tolist())
    )
    return solution, [(int(row), int(column)) for row, column in pivots]


def traced_solve(program):
    """(solution, pivots) of solve_lp, with every pivot it makes recorded."""
    pivots = []
    pivot = lp_module._pivot

    def recording(tableau, basis, row, column, objective_row=None):
        pivots.append((int(row), int(column)))
        pivot(tableau, basis, row, column, objective_row)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_module, "_pivot", recording)
        return solve_lp(program), pivots


def assert_solves_as_the_oracle(program):
    (ours, our_pivots), (oracle, oracle_pivots) = traced_solve(program), oracle_solve(program)
    assert ours.status is oracle.status
    assert our_pivots == oracle_pivots
    assert ours.objective_value.hex() == oracle.objective_value.hex()
    assert len(ours.variable_values) == len(oracle.variable_values)
    for value, expected, low in zip(
        ours.variable_values, oracle.variable_values, program.lower_bounds
    ):
        # a zero may change sign where the row loop subtracted f * 0
        if expected == 0.0 and low == 0.0:
            assert value == expected
        else:
            assert value.hex() == expected.hex()
    return ours.status


coefficients = st.one_of(st.integers(-4, 4), st.integers(-9, 9).map(lambda k: k / 7))


@st.composite
def programs(draw):
    """Programs with = and <= rows, negative right hand sides (rows the solver
    flips), copies of rows scaled by a factor, parallel rows whose ratios
    nearly tie, and zero or positive lower bounds."""
    variables = draw(st.integers(1, 4))
    row = st.tuples(
        st.lists(coefficients, min_size=variables, max_size=variables),
        st.one_of(
            st.integers(-6, 9),
            st.integers(-20, 20).map(lambda k: k / 3),
        ),
    )
    equalities = draw(st.lists(row, max_size=3))
    inequalities = draw(st.lists(row, max_size=5))
    drawn = equalities + inequalities
    for _ in range(draw(st.integers(0, 3)) if drawn else 0):
        weights, rhs = draw(st.sampled_from(drawn))
        factor = draw(st.sampled_from([1.0, 2.0, 0.5, 3.0, -1.0]))
        copy = ([factor * weight for weight in weights], factor * rhs)
        draw(st.sampled_from([equalities, inequalities])).append(copy)
    if inequalities and draw(st.booleans()):
        # parallel rows PIVOT_TOL / 1.6 apart, whose ratios tie only with their
        # neighbours; their order sets the basis keys of the tie
        weights, rhs = inequalities[0]
        for step in draw(st.permutations(range(3))):
            inequalities.append((weights, rhs + step * 6e-10))
    objective = draw(st.lists(coefficients, min_size=variables, max_size=variables))
    lower = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1 / 3, 1e-6])
    bounds = draw(st.lists(lower, min_size=variables, max_size=variables))
    return lp(objective, equalities, inequalities, bounds)


entries = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1 / 3, -1 / 7, 3.0, 1e-12])


class TestRowLoopOracle:
    """solve_lp against the row-by-row solver it replaced, pivot for pivot and bit for bit."""

    @given(arrays(float, st.tuples(st.integers(1, 6), st.integers(2, 7)), elements=entries), st.data())
    def test_a_pivot_keeps_the_bits_of_the_row_loop(self, tableau, data):
        rows, columns = tableau.shape
        objective = data.draw(arrays(float, columns, elements=entries))
        row, column = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, columns - 1))
        assume(tableau[row, column] != 0.0)
        ours, oracle = tableau.copy(), tableau.copy()
        our_objective, oracle_objective = objective.copy(), objective.copy()
        our_basis, oracle_basis = np.zeros(rows, int), np.zeros(rows, int)
        lp_module._pivot(ours, our_basis, row, column, our_objective)
        oracle_pivot(oracle, oracle_basis, row, column, oracle_objective)
        assert our_basis.tolist() == oracle_basis.tolist()
        assert our_objective.tobytes() == oracle_objective.tobytes()
        # rows with a zero factor are untouched, so even their zeros keep their
        # sign; elsewhere a zero may change sign under a zero of the pivot row
        for other in range(rows):
            for place in range(columns):
                new, old = ours[other, place], oracle[other, place]
                if tableau[other, column] != 0.0 and ours[row, place] == 0.0 == old:
                    assert new == 0.0
                else:
                    assert new.tobytes() == old.tobytes(), (other, place)

    @given(programs())
    @example(lp([1.0], inequalities=[((1.0,), -1.0)]))
    # a chain of ratio ties: each row is within PIVOT_TOL of the one before it,
    # but the first and last rows are not
    @example(
        lp([1.0], inequalities=[((1.0,), 1.0), ((1.0,), 1 - 6e-10), ((1.0,), 1 - 12e-10)])
    )
    @example(lp([1.0, 1.0], inequalities=[((1.0, -1.0), 1.0)]))
    @example(lp([1.0], inequalities=[((1e3,), 1e3 + 9e-7), ((1e4,), 1e4)]))
    @example(
        lp(
            [1.0, 2.0],
            equalities=[((1.0, 1.0), 1.0), ((2.0, 2.0), 2.0), ((1.0, 1.0), 1.0)],
            inequalities=[((1.0, 0.0), 0.25), ((2.0, 0.0), 0.5)],
            lower_bounds=(0.0, 0.1),
        )
    )
    def test_drawn_programs_solve_as_the_oracle(self, program):
        assert_solves_as_the_oracle(program)

    def test_every_status_solves_as_the_oracle(self):
        rng = np.random.default_rng(20240817)
        statuses = {assert_solves_as_the_oracle(random_program(rng)) for _ in range(60)}
        assert statuses == set(LpStatus)

    @given(
        st.sampled_from(["generate", "with_ray"]),
        st.integers(0, 2**16),
        st.integers(21, 40),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_ccr_programs_of_benchmark_corpora_solve_as_the_oracle(
        self, bench, draw_name, seed, size, data
    ):
        corpora, _ = bench
        drawn = getattr(corpora, draw_name)(np.random.default_rng([seed, 0]), size)
        dmus = DmuSet.from_aggregates(parse_aggregates(drawn.aggregates_csv()))
        target = data.draw(st.integers(0, size - 1))
        assert assert_solves_as_the_oracle(build_ccr_lp(dmus, target)) is LpStatus.OPTIMAL

    @pytest.mark.parametrize(
        "name, copies",
        # ray100 holds 20 k-fold copies of one efficient researcher, ray01..ray20
        [("ray100.csv", ("ray01", "ray02", "ray20")), ("generated100.csv", ())],
    )
    def test_ccr_programs_at_the_benchmark_size_solve_as_the_oracle(self, name, copies):
        text = (Path(__file__).parent / "data" / name).read_text()
        dmus = DmuSet.from_aggregates(parse_aggregates(text))
        # the first and last targets, every 10th, and the named ray copies
        targets = {*range(0, dmus.size, 10), dmus.size - 1, *map(dmus.ids.index, copies)}
        for target in sorted(targets):
            assert assert_solves_as_the_oracle(build_ccr_lp(dmus, target)) is LpStatus.OPTIMAL

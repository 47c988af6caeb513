"""DMU sets, the CCR efficiency programs, and the per-output frontier."""

import re

import numpy as np
import pytest

from citedea import (
    FEASIBILITY_TOL,
    DeaError,
    DmuAggregate,
    DmuSet,
    LinearProgram,
    LpStatus,
    build_ccr_lp,
    ccr_all,
    ccr_efficiency,
    frontier,
    solve_lp,
)
from citedea.dea import _largest_epsilon


def simple_set():
    return DmuSet(
        ids=("A", "B"),
        inputs=[[2.0, 4.0], [4.0, 8.0]],
        outputs=[[10.0], [10.0]],
    )


def brute_force_frontier(dmus):
    """Plain-loop definition: keep a point unless some other point is <= in
    every coordinate and < in at least one."""
    points = [tuple(dmus.inputs[i] / dmus.outputs[i, 0]) for i in range(dmus.size)]
    return [
        dmus.ids[i]
        for i, p in enumerate(points)
        if not any(
            all(a <= b for a, b in zip(q, p)) and any(a < b for a, b in zip(q, p))
            for j, q in enumerate(points)
            if j != i
        )
    ]


def all_pairs_binding_rows(dmus):
    """The DMUs with a positive output whose point no other point is <= in
    every coordinate and < in at least one, by comparing every pair."""
    rows = np.flatnonzero(dmus.outputs[:, 0] > 0)
    points = dmus.inputs[rows] / dmus.outputs[rows]
    no_worse = np.all(points[:, None] <= points[None, :], axis=2)  # [q, p]: q <= p
    better = np.any(points[:, None] < points[None, :], axis=2)
    return rows[~np.any(no_worse & better, axis=0)]


def full_ccr_lp(dmus, target, epsilon):
    """The target's program with a <= row for every DMU, in input order."""
    s, m = dmus.outputs.shape[1], dmus.inputs.shape[1]
    return LinearProgram(
        objective=np.concatenate([dmus.outputs[target], np.zeros(m)]),
        constraints=np.vstack(
            [
                np.concatenate([np.zeros(s), dmus.inputs[target]]),
                np.hstack([dmus.outputs, -dmus.inputs]),
            ]
        ),
        equalities=1,
        rhs=np.concatenate([[1.0], np.zeros(dmus.size)]),
        lower_bounds=np.full(s + m, epsilon),
    )


def capped_largest_epsilon(dmus, target):
    """The largest common weight bound from the target's rows plus t <= each weight."""
    ccr = build_ccr_lp(dmus, target)
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


def assert_feasible_weights(dmus, target, score, epsilon):
    """The weights satisfy every row of the target's full program."""
    u = np.array(score.output_weights)
    v = np.array(score.input_weights)
    assert np.all(np.concatenate([u, v]) >= epsilon - 1e-12)
    assert abs(dmus.inputs[target] @ v - 1.0) <= FEASIBILITY_TOL
    assert np.all(dmus.outputs @ u - dmus.inputs @ v <= FEASIBILITY_TOL)


class TestDmuSet:
    def test_from_aggregates(self, aggregates15):
        dmus = DmuSet.from_aggregates(aggregates15)
        assert dmus.size == 15
        assert dmus.inputs.shape == (15, 2)
        assert dmus.outputs.shape == (15, 1)
        assert dmus.inputs[6, 1] == 1127.0
        assert dmus.outputs[6, 0] == 16276.0

    def test_matrices_are_read_only(self):
        dmus = simple_set()
        with pytest.raises(ValueError):
            dmus.inputs[0, 0] = 9.0

    def test_needs_at_least_one_dmu(self):
        with pytest.raises(DeaError, match="at least one DMU"):
            DmuSet(ids=(), inputs=np.zeros((0, 2)), outputs=np.zeros((0, 1)))
        with pytest.raises(DeaError, match="at least one DMU"):
            DmuSet.from_aggregates([])

    def test_rejects_non_positive_inputs(self):
        with pytest.raises(DeaError, match="strictly positive"):
            DmuSet(ids=("A",), inputs=[[0.0, 1.0]], outputs=[[1.0]])

    def test_rejects_negative_outputs(self):
        with pytest.raises(DeaError, match="non-negative"):
            DmuSet(ids=("A",), inputs=[[1.0, 1.0]], outputs=[[-1.0]])

    def test_rejects_all_zero_outputs(self):
        with pytest.raises(DeaError, match="strictly positive output"):
            DmuSet(ids=("A", "B"), inputs=[[1.0], [2.0]], outputs=[[0.0], [0.0]])

    @pytest.mark.parametrize(
        "inputs, outputs, shapes",
        [
            ([[1.0], [2.0], [3.0]], [[1.0, 2.0]] * 3, "inputs of shape (3, 1), outputs of shape (3, 2)"),
            ([[1.0, 2.0, 3.0]] * 3, [[1.0]] * 3, "inputs of shape (3, 3), outputs of shape (3, 1)"),
            (np.ones((3, 0)), [[1.0]] * 3, "inputs of shape (3, 0), outputs of shape (3, 1)"),
            ([1.0, 2.0, 3.0], [[1.0]] * 3, "inputs of shape (3,), outputs of shape (3, 1)"),
            ([[1.0, 2.0], [3.0], [4.0, 5.0]], [[1.0]] * 3, "inputs of shape (ragged rows), outputs of shape (3, 1)"),
            ([[1.0, 2.0]] * 2, [[1.0]] * 3, "inputs of shape (2, 2), outputs of shape (3, 1)"),
        ],
        ids=["two outputs", "three inputs", "no inputs", "input vector", "ragged rows", "row count"],
    )
    def test_holds_one_output_and_one_or_two_inputs(self, inputs, outputs, shapes):
        with pytest.raises(
            DeaError,
            match=re.escape(
                f"a DMU set holds one output and one or two inputs per DMU: 3 ids, {shapes}"
            ) + "$",
        ):
            DmuSet(ids=("A", "B", "C"), inputs=inputs, outputs=outputs)

    def test_rejects_a_repeated_id(self):
        with pytest.raises(
            DeaError, match="^duplicate DMU id 'a': give each DMU its own id$"
        ):
            DmuSet(ids=("a", "b", "a", "b"), inputs=[[1, 1], [2, 2], [3, 3], [4, 4]], outputs=[[1]] * 4)


def rows_set():
    """A and B on the frontier, C = 2 x A a proportional copy, D dominated by
    A, and E with no output."""
    return DmuSet(
        ids=("A", "B", "C", "D", "E"),
        inputs=[[2.0, 4.0], [1.0, 5.0], [4.0, 8.0], [4.0, 8.0], [1.0, 1.0]],
        outputs=[[10.0], [10.0], [20.0], [10.0], [0.0]],
    )


class TestBuildCcrLp:
    def test_structure_for_two_dmus(self):
        # A's per-output point dominates B's, so only A's row binds
        dmus = simple_set()
        assert dmus.binding_rows.tolist() == [0]
        program = build_ccr_lp(dmus, 0, epsilon=1e-6)
        assert program.variable_count == 3
        # the normalization row is the one = row, then a <= row for A only
        assert program.equalities == 1
        assert program.constraints.shape == (2, 3)
        assert tuple(program.constraints[1]) == (10.0, -2.0, -4.0)
        assert tuple(program.rhs) == (1.0, 0.0)
        assert tuple(program.lower_bounds) == (1e-6, 1e-6, 1e-6)
        # objective covers only the output weights
        assert tuple(program.objective) == (10.0, 0.0, 0.0)
        # the normalization row covers only the input weights
        assert tuple(program.constraints[0]) == (0.0, 2.0, 4.0)
        # B's program keeps B's own row after A's
        program = build_ccr_lp(dmus, 1, epsilon=1e-6)
        assert program.constraints.shape == (3, 3)
        assert tuple(program.constraints[0]) == (0.0, 4.0, 8.0)
        assert [tuple(row) for row in program.constraints[1:]] == [
            (10.0, -2.0, -4.0),
            (10.0, -4.0, -8.0),
        ]
        assert tuple(program.rhs) == (1.0, 0.0, 0.0)

    def test_per_variable_epsilon(self):
        program = build_ccr_lp(simple_set(), 0, epsilon=(1e-6, 1e-4, 1e-8))
        assert tuple(program.lower_bounds) == (1e-6, 1e-4, 1e-8)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(DeaError, match="strictly positive"):
            build_ccr_lp(simple_set(), 0, epsilon=0.0)

    def test_epsilon_length_must_match(self):
        with pytest.raises(DeaError, match="one bound per weight"):
            build_ccr_lp(simple_set(), 0, epsilon=(1e-6, 1e-6))

    def test_target_index_range(self):
        with pytest.raises(DeaError, match="out of range"):
            build_ccr_lp(simple_set(), 2)

    @pytest.mark.parametrize(
        "target", [True, 1.5, np.float64(1.0), "1"], ids=["bool", "float", "numpy float", "str"]
    )
    def test_target_index_must_be_an_int(self, target):
        with pytest.raises(
            DeaError,
            match=rf"^target_index {re.escape(repr(target))} out of range for 2 DMUs: "
            r"give an int from 0 to 1$",
        ):
            ccr_efficiency(simple_set(), target)
        assert ccr_efficiency(simple_set(), np.int64(1)).score == pytest.approx(0.5, abs=1e-6)

    def test_a_zero_dimensional_epsilon_is_a_scalar(self):
        expected = build_ccr_lp(simple_set(), 1, 1e-6)
        program = build_ccr_lp(simple_set(), 1, np.array(1e-6))
        assert tuple(program.lower_bounds) == tuple(expected.lower_bounds) == (1e-6,) * 3
        assert ccr_efficiency(simple_set(), 1, np.array(1e-6)) == ccr_efficiency(simple_set(), 1, 1e-6)

    def test_dominated_and_zero_output_rows_are_left_out(self):
        dmus = rows_set()
        assert dmus.binding_rows.tolist() == [0, 1, 2]
        a, b, c, d, e = np.hstack([dmus.outputs, -dmus.inputs]).tolist()
        # C has A's per-output point, and each keeps its own row
        for target in (0, 1, 2):
            assert build_ccr_lp(dmus, target).constraints[1:].tolist() == [a, b, c]
        # a dominated target and a target with no output keep their own row,
        # in input order among the binding ones
        assert build_ccr_lp(dmus, 3).constraints[1:].tolist() == [a, b, c, d]
        assert build_ccr_lp(dmus, 4).constraints[1:].tolist() == [a, b, c, e]

    def test_the_row_set_is_computed_once_per_set(self, monkeypatch, aggregates15):
        dmus = DmuSet.from_aggregates(aggregates15)
        sorts = []
        lexsort = np.lexsort

        def counted(keys):
            sorts.append(keys)
            return lexsort(keys)

        monkeypatch.setattr(np, "lexsort", counted)
        ccr_all(dmus)
        assert frontier(dmus) == ["R6", "R7"]
        assert len(sorts) == 1
        assert dmus.binding_rows is dmus.binding_rows
        assert not dmus.binding_rows.flags.writeable

    @pytest.mark.parametrize("inputs", [1, 2], ids=["one input", "two inputs"])
    def test_the_row_set_matches_an_all_pairs_check_on_large_sets(self, inputs):
        # 2 000 DMUs drawn from 150 integer points near the line x + y = 41,
        # each scaled by 1-5: equal picks are exact duplicates, different
        # factors give equal ratios from different integers (2/10 and 1/5),
        # many points share a first coordinate, and some DMUs have no output
        rng = np.random.default_rng([2000, inputs])
        first = rng.integers(1, 40, size=150)
        pool_inputs = np.column_stack([first, 41 - first + rng.integers(0, 4, size=150)])
        pool_inputs = pool_inputs[:, :inputs]
        pool_outputs = rng.integers(1, 4, size=(150, 1))
        picks = rng.integers(0, 150, size=2000)
        factors = rng.integers(1, 6, size=(2000, 1))
        outputs = pool_outputs[picks] * factors
        outputs[rng.random(2000) < 0.05] = 0
        dmus = DmuSet(
            ids=tuple(f"D{i}" for i in range(2000)),
            inputs=(pool_inputs[picks] * factors).astype(float),
            outputs=outputs.astype(float),
        )
        expected = all_pairs_binding_rows(dmus)
        assert dmus.binding_rows.tolist() == expected.tolist()
        points = dmus.inputs[expected] / dmus.outputs[expected]
        assert len(np.unique(points, axis=0)) < len(expected) < dmus.size - 100

    def test_own_constraint_caps_the_objective_at_one(self):
        program = build_ccr_lp(simple_set(), 0)
        solution = solve_lp(program)
        assert solution.status is LpStatus.OPTIMAL
        assert solution.objective_value <= 1.0 + 1e-7


class TestCcrEfficiency:
    def test_proportional_scaling(self):
        dmus = simple_set()
        assert ccr_efficiency(dmus, 0).score == pytest.approx(1.0)
        # B consumes twice A's inputs for the same output
        assert ccr_efficiency(dmus, 1).score == pytest.approx(0.5, abs=1e-6)

    def test_single_dmu_is_efficient(self):
        dmus = DmuSet(ids=("solo",), inputs=[[3.0, 5.0]], outputs=[[7.0]])
        assert ccr_efficiency(dmus, 0).score == pytest.approx(1.0)

    def test_reference_target(self, aggregates15):
        dmus = DmuSet.from_aggregates(aggregates15)
        assert ccr_efficiency(dmus, 0).score == pytest.approx(0.848, abs=0.005)

    def test_weights_respect_epsilon(self, aggregates15):
        dmus = DmuSet.from_aggregates(aggregates15)
        score = ccr_efficiency(dmus, 1, epsilon=1e-6)
        assert all(w >= 1e-6 - 1e-12 for w in score.input_weights)
        assert all(w >= 1e-6 - 1e-12 for w in score.output_weights)

    def test_oversized_epsilon_is_reported(self):
        dmus = simple_set()
        with pytest.raises(DeaError, match="epsilon 1.0"):
            ccr_efficiency(dmus, 0, epsilon=1.0)

    def test_infeasible_epsilon_names_the_largest_feasible_one(self):
        # worked by hand: v = (49999t, t), u = t on the pinned row 40*v1 + 2000*v2 = 1
        dmus = DmuSet(
            ids=("a", "c"), inputs=[[1.0, 1.0], [40.0, 2000.0]], outputs=[[50000.0], [1.0]]
        )
        largest = 1 / 2001960
        assert _largest_epsilon(dmus, 1) == pytest.approx(largest, rel=1e-12)
        with pytest.raises(
            DeaError,
            match=r"epsilon 1e-06; lower the bound: "
            r"the largest feasible epsilon for 'c' is 4\.995e-07$",
        ):
            ccr_efficiency(dmus, 1, epsilon=1e-6)
        score = ccr_efficiency(dmus, 1, epsilon=largest)
        assert_feasible_weights(dmus, 1, score, largest)
        with pytest.raises(DeaError, match="no feasible weights"):
            ccr_efficiency(dmus, 1, epsilon=2 * largest)

    @pytest.mark.parametrize("inputs", [1, 2])
    def test_the_largest_epsilon_matches_the_program_with_cap_rows(self, inputs):
        # sets of 1 to 29 DMUs whose inputs span five orders of magnitude, some
        # with no output; every target of every set, 1 000 or more in all
        targets = 0
        for seed in range(70):
            rng = np.random.default_rng([22, inputs, seed])
            size = int(rng.integers(1, 30))
            scale = 10.0 ** rng.integers(0, 5, size=inputs)
            values = np.maximum(np.round(rng.integers(1, 2000, (size, inputs)) * scale / 100), 1)
            outputs = rng.integers(0, 50000, (size, 1)) * (rng.random((size, 1)) < 0.9)
            outputs[0, 0] = max(outputs[0, 0], 1)
            dmus = DmuSet(tuple(f"d{index}" for index in range(size)), values, outputs)
            for target in range(size):
                largest = _largest_epsilon(dmus, target)
                reference = capped_largest_epsilon(dmus, target)
                assert largest == pytest.approx(reference, rel=1e-11, abs=0.0)
                assert f"{largest:.4g}" == f"{reference:.4g}"
            targets += size
        assert targets >= 1000

    @pytest.mark.parametrize("epsilon", [1e304, 1e305, 1.7e308])
    def test_epsilon_past_the_float_range_is_reported(self, aggregates15, epsilon):
        # epsilon times the inputs would overflow the solver's shifted right hand
        # side; an overflow warning is an error under the pytest settings
        dmus = DmuSet.from_aggregates(aggregates15)
        with pytest.raises(
            DeaError,
            match=rf"^no feasible weights for DMU 'R1' with epsilon {re.escape(repr(epsilon))}; "
            r"lower the bound: the largest feasible epsilon for 'R1' is 0\.0001419$",
        ):
            ccr_efficiency(dmus, 0, epsilon=epsilon)

    @pytest.mark.parametrize(
        "excess", [-1e-6, 0.0, 5e-8, 1e-7 - 1e-15, 1e-7, 1e-7 + 1e-15, 1.5e-7, 1e-6, 1.0]
    )
    def test_the_infeasible_epsilon_precheck_agrees_with_the_solver(
        self, aggregates15, excess
    ):
        # input bounds that hold the target's weighted input at 1 + excess, and
        # an output bound small enough that no other row binds
        dmus = DmuSet.from_aggregates(aggregates15)
        for target in range(dmus.size):
            epsilon = (1e-12, *((1 + excess) / (2 * dmus.inputs[target])))
            solution = solve_lp(build_ccr_lp(dmus, target, epsilon))
            try:
                score = ccr_efficiency(dmus, target, epsilon)
            except DeaError as error:
                assert "no feasible weights" in str(error)
                assert solution.status is LpStatus.INFEASIBLE
            else:
                assert solution.status is LpStatus.OPTIMAL
                weights = score.output_weights + score.input_weights
                assert weights == solution.variable_values

    def test_zero_output_target_scores_zero(self):
        # the objective is 0 for every choice of weights, so the optimum is 0
        dmus = DmuSet(
            ids=("A", "B"), inputs=[[1.0], [1.0]], outputs=[[0.0], [5.0]]
        )
        score = ccr_efficiency(dmus, 0, epsilon=1e-6)
        assert score.score == 0.0
        assert_feasible_weights(dmus, 0, score, 1e-6)


class TestFeasibilityCertificate:
    def test_weights_satisfy_the_full_program_on_skewed_sets(self):
        # citations dwarf years + coauthors, so the shifted right hand side of
        # most rows is negative: those rows flip to >= and need an artificial
        rng = np.random.default_rng(2718)
        epsilon = 1e-6
        for _ in range(6):
            size = int(rng.integers(8, 40))
            dmus = DmuSet(
                ids=tuple(f"D{i}" for i in range(size)),
                inputs=np.column_stack(
                    [rng.integers(1, 41, size), rng.integers(1, 2001, size)]
                ).astype(float),
                outputs=np.floor(rng.lognormal(8.0, 1.5, size=(size, 1))) + 1.0,
            )
            program = full_ccr_lp(dmus, 0, epsilon)
            shifted_rhs = program.rhs - program.constraints @ program.lower_bounds
            assert np.count_nonzero(shifted_rhs < 0) > size // 2
            for target, score in enumerate(ccr_all(dmus, epsilon)):
                assert_feasible_weights(dmus, target, score, epsilon)
                if score.score != 1.0:
                    assert score.score == float(
                        dmus.outputs[target] @ np.array(score.output_weights)
                    )


class TestReducedProgram:
    @pytest.mark.parametrize("seed", range(12))
    def test_scores_and_weights_match_the_full_program(self, seed):
        # one output and 1-2 inputs, with proportional copies, exact
        # duplicates and DMUs with no output mixed in at random positions
        rng = np.random.default_rng([4099, seed])
        epsilon = 1e-6
        inputs = rng.integers(1, 60, size=(int(rng.integers(4, 30)), 1 + seed % 2))
        outputs = rng.integers(1, 900, size=(len(inputs), 1))
        copied = rng.integers(0, len(inputs), size=4)
        factors = rng.integers(2, 6, size=(4, 1))
        duplicated = rng.integers(0, len(inputs), size=3)
        uncited = rng.integers(1, 60, size=(3, inputs.shape[1]))
        inputs = np.vstack([inputs, inputs[copied] * factors, inputs[duplicated], uncited])
        outputs = np.vstack(
            [outputs, outputs[copied] * factors, outputs[duplicated], np.zeros((3, 1))]
        )
        order = rng.permutation(len(inputs))
        dmus = DmuSet(
            ids=tuple(f"D{i}" for i in range(len(inputs))),
            inputs=inputs[order].astype(float),
            outputs=outputs[order].astype(float),
        )
        assert dmus.binding_rows.size < dmus.size
        for target, score in enumerate(ccr_all(dmus, epsilon)):
            solution = solve_lp(full_ccr_lp(dmus, target, epsilon))
            assert solution.status is LpStatus.OPTIMAL
            full = solution.objective_value
            if full > 1.0 or abs(full - 1.0) <= FEASIBILITY_TOL:
                full = 1.0
            assert abs(score.score - full) <= 1e-9
            assert_feasible_weights(dmus, target, score, epsilon)


class TestCcrAll:
    def test_reference_extremes(self, aggregates15):
        scores = {s.dmu_id: s.score for s in ccr_all(DmuSet.from_aggregates(aggregates15))}
        assert scores["R6"] == pytest.approx(1.0, abs=1e-4)
        assert scores["R7"] == pytest.approx(1.0, abs=1e-4)
        assert scores["R14"] == pytest.approx(0.079, abs=0.005)

    def test_order_and_max(self, aggregates15):
        scores = ccr_all(DmuSet.from_aggregates(aggregates15))
        assert [s.dmu_id for s in scores] == [a.id for a in aggregates15]
        assert max(s.score for s in scores) == pytest.approx(1.0, abs=1e-4)

    def test_ratio_dominant_dmu_is_efficient(self):
        # D beats every other DMU on both per-output input ratios
        dmus = DmuSet(
            ids=("D", "E", "F"),
            inputs=[[1.0, 1.0], [3.0, 2.0], [2.0, 5.0]],
            outputs=[[10.0], [12.0], [11.0]],
        )
        scores = {s.dmu_id: s.score for s in ccr_all(dmus)}
        assert scores["D"] == pytest.approx(1.0)

    def test_determinism(self, aggregates15):
        dmus = DmuSet.from_aggregates(aggregates15)
        first = ccr_all(dmus)
        second = ccr_all(dmus)
        assert [s.score for s in first] == [s.score for s in second]
        assert [s.input_weights for s in first] == [s.input_weights for s in second]


class TestInvarianceProperties:
    def test_units_invariance_with_rescaled_epsilon(self, aggregates15):
        base = DmuSet.from_aggregates(aggregates15)
        for k in (0.5, 2.0):
            scaled = DmuSet(
                ids=base.ids,
                inputs=base.inputs * np.array([1.0, k]),
                outputs=base.outputs,
            )
            epsilon = (1e-6, 1e-6, 1e-6 / k)
            for index in range(base.size):
                original = ccr_efficiency(base, index, 1e-6).score
                rescaled = ccr_efficiency(scaled, index, epsilon).score
                assert rescaled == pytest.approx(original, abs=1e-6)

    def test_weakly_dominated_insertion_preserves_scores(self, aggregates15):
        base = DmuSet.from_aggregates(aggregates15)
        reference = [s.score for s in ccr_all(base)]
        # scale an existing DMU and pad its inputs: weakly dominated per ratio
        dominated_inputs = base.inputs[3] * 0.5 * 1.25
        extended = DmuSet(
            ids=base.ids + ("pad",),
            inputs=np.vstack([base.inputs, dominated_inputs]),
            outputs=np.vstack([base.outputs, base.outputs[3] * 0.5]),
        )
        for index, expected in enumerate(reference):
            assert ccr_efficiency(extended, index).score == pytest.approx(
                expected, abs=1e-6
            )


class TestFrontier:
    def test_reference_frontier(self, aggregates15):
        assert frontier(DmuSet.from_aggregates(aggregates15)) == ["R6", "R7"]

    def test_single_dmu(self):
        dmus = DmuSet(ids=("A",), inputs=[[1.0, 2.0]], outputs=[[3.0]])
        assert frontier(dmus) == ["A"]

    def test_identical_dmus_are_mutually_undominated(self):
        dmus = DmuSet(
            ids=("A", "B"), inputs=[[1.0, 2.0], [1.0, 2.0]], outputs=[[3.0], [3.0]]
        )
        assert frontier(dmus) == ["A", "B"]

    def test_zero_output_is_rejected(self):
        dmus = DmuSet(
            ids=("A", "B"), inputs=[[1.0], [1.0]], outputs=[[0.0], [5.0]]
        )
        with pytest.raises(
            DeaError,
            match="per-output point is undefined: remove it from the input or give it citations",
        ):
            frontier(dmus)
        # the first DMU with no output, in input order, is the one named
        dmus = DmuSet(
            ids=("A", "B", "C"), inputs=[[1.0], [1.0], [1.0]], outputs=[[5.0], [0.0], [0.0]]
        )
        with pytest.raises(DeaError, match="^DMU 'B' has no output"):
            frontier(dmus)

    def test_frontier_members_score_one(self, aggregates15):
        dmus = DmuSet.from_aggregates(aggregates15)
        scores = {s.dmu_id: s.score for s in ccr_all(dmus)}
        for label in frontier(dmus):
            assert scores[label] == pytest.approx(1.0, abs=1e-4)

    def test_matches_brute_force_minimality_on_random_sets(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            size = int(rng.integers(2, 9))
            dmus = DmuSet(
                ids=tuple(f"D{i}" for i in range(size)),
                inputs=rng.integers(1, 8, size=(size, 2)).astype(float),
                outputs=rng.integers(5, 40, size=(size, 1)).astype(float),
            )
            assert frontier(dmus) == brute_force_frontier(dmus)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_with_duplicates_and_ties(self, seed):
        rng = np.random.default_rng([607, seed])
        inputs = int(rng.integers(1, 3))
        pool = rng.integers(1, 6, size=(int(rng.integers(1, 8)), inputs)).astype(float)
        pool[:, 0] = rng.integers(1, 3, size=len(pool))  # ties in the first coordinate
        size = int(rng.integers(1, 80))
        picks = rng.integers(0, len(pool), size=size)  # repeated picks are duplicate points
        dmus = DmuSet(
            ids=tuple(f"D{i}" for i in range(size)),
            inputs=pool[picks],
            outputs=np.ones((size, 1)),
        )
        assert frontier(dmus) == brute_force_frontier(dmus)

    def test_efficient_dmus_stay_undominated(self):
        # the converse fails in general (an undominated point may still sit
        # inside the hull), so only this direction is asserted
        rng = np.random.default_rng(607)
        for _ in range(25):
            size = int(rng.integers(2, 7))
            dmus = DmuSet(
                ids=tuple(f"D{i}" for i in range(size)),
                inputs=rng.integers(1, 20, size=(size, 2)).astype(float),
                outputs=rng.integers(5, 200, size=(size, 1)).astype(float),
            )
            on_frontier = set(frontier(dmus))
            for entry in ccr_all(dmus):
                if entry.score == 1.0:
                    assert entry.dmu_id in on_frontier

"""DMU sets, the CCR efficiency programs, and the per-output frontier."""

import numpy as np
import pytest

from citedea import (
    FEASIBILITY_TOL,
    DeaError,
    DmuAggregate,
    DmuSet,
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
        assert dmus.input_count == 2
        assert dmus.output_count == 1
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

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(DeaError, match="one matrix row per DMU"):
            DmuSet(ids=("A", "B"), inputs=[[1.0]], outputs=[[1.0], [1.0]])


class TestBuildCcrLp:
    def test_structure_for_two_dmus(self):
        program = build_ccr_lp(simple_set(), 0, epsilon=1e-6)
        assert program.variable_count == 3
        # the normalization row is the one = row, then a <= row per DMU
        assert program.equalities == 1
        assert program.constraints.shape == (3, 3)
        assert tuple(program.lower_bounds) == (1e-6, 1e-6, 1e-6)
        # objective covers only the output weights
        assert tuple(program.objective) == (10.0, 0.0, 0.0)
        # the normalization row covers only the input weights
        assert tuple(program.constraints[0]) == (0.0, 2.0, 4.0)
        assert program.rhs[0] == 1.0

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
            program = build_ccr_lp(dmus, 0, epsilon)
            shifted_rhs = program.rhs - program.constraints @ program.lower_bounds
            assert np.count_nonzero(shifted_rhs < 0) > size // 2
            for target, score in enumerate(ccr_all(dmus, epsilon)):
                assert_feasible_weights(dmus, target, score, epsilon)
                if score.score != 1.0:
                    assert score.score == float(
                        dmus.outputs[target] @ np.array(score.output_weights)
                    )


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
        with pytest.raises(DeaError, match="per-output point"):
            frontier(dmus)

    def test_multi_output_sets_are_rejected(self):
        dmus = DmuSet(
            ids=("A",), inputs=[[1.0]], outputs=[[1.0, 2.0]]
        )
        with pytest.raises(DeaError, match="single-output"):
            frontier(dmus)

    def test_frontier_members_score_one(self, aggregates15):
        dmus = DmuSet.from_aggregates(aggregates15)
        scores = {s.dmu_id: s.score for s in ccr_all(dmus)}
        for label in frontier(dmus):
            assert scores[label] == pytest.approx(1.0, abs=1e-4)

    def test_matches_brute_force_minimality_on_random_sets(self):
        # plain-loop oracle: keep a point unless some other point is <= in
        # every coordinate and < in at least one
        def oracle(dmus):
            points = [
                tuple(dmus.inputs[i] / dmus.outputs[i, 0]) for i in range(dmus.size)
            ]
            kept = []
            for i, p in enumerate(points):
                dominated = False
                for j, q in enumerate(points):
                    if i == j:
                        continue
                    if all(a <= b for a, b in zip(q, p)) and any(
                        a < b for a, b in zip(q, p)
                    ):
                        dominated = True
                        break
                if not dominated:
                    kept.append(dmus.ids[i])
            return kept

        rng = np.random.default_rng(99)
        for _ in range(50):
            size = int(rng.integers(2, 9))
            dmus = DmuSet(
                ids=tuple(f"D{i}" for i in range(size)),
                inputs=rng.integers(1, 8, size=(size, 2)).astype(float),
                outputs=rng.integers(5, 40, size=(size, 1)).astype(float),
            )
            assert frontier(dmus) == oracle(dmus)

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

"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Criteria 1-4 and 7 replay the bundled 15-researcher corpus.  Criterion 5
substitutes a randomized index property suite for reference values whose
per-paper source data is not published.  Criterion 6 checks the embedded
solver against an independent grid-search oracle on random DMU sets.
"""

import dataclasses
import os
import subprocess
import sys
import time
from itertools import chain

import numpy as np
import pytest

import citedea
from citedea import (
    DmuSet,
    ResearcherProfile,
    ccr_all,
    ccr_efficiency,
    frontier,
    index_table,
    rank,
    rank_correlation,
)
from conftest import (
    DATA,
    EXPECTED_DEA_RANKS,
    EXPECTED_EFFICIENCY,
    EXPECTED_H_RANKS,
    EXPECTED_T_RANKS,
)


def test_criterion_1_efficiency_scores_match_reference_within_half_percent(aggregates15):
    start = time.perf_counter()
    scores = ccr_all(DmuSet.from_aggregates(aggregates15))
    elapsed = time.perf_counter() - start
    by_id = {entry.dmu_id: entry.score for entry in scores}
    assert len(by_id) == 15
    for label, expected in EXPECTED_EFFICIENCY.items():
        assert by_id[label] == pytest.approx(expected, abs=0.005), label
    assert elapsed < 1.0


def test_criterion_2_efficient_set_is_exactly_r6_and_r7(aggregates15):
    dmus = DmuSet.from_aggregates(aggregates15)
    efficient = {
        entry.dmu_id
        for entry in ccr_all(dmus)
        if abs(entry.score - 1.0) <= 1e-4
    }
    assert efficient == {"R6", "R7"}
    assert frontier(dmus) == ["R6", "R7"]


def test_criterion_3_rank_columns_reproduce_reference_exactly(aggregates15, h_values15):
    scores = ccr_all(DmuSet.from_aggregates(aggregates15))
    dea_ranks = rank([entry.score for entry in scores])
    assert dict(zip((entry.dmu_id for entry in scores), dea_ranks)) == EXPECTED_DEA_RANKS

    h_ranks = rank([float(h) for h in h_values15.values()])
    assert dict(zip(h_values15, h_ranks)) == EXPECTED_H_RANKS

    # tie patterns: two researchers share rank 1 on efficiency; the h column
    # ties at ranks 6, 8, and 13
    assert sorted(dea_ranks)[:3] == [1, 1, 3]
    assert sorted(h_ranks) == [
        1, 2, 3, 4, 5, 6, 6, 8, 8, 10, 11, 12, 13, 13, 15,
    ]


def test_criterion_4_rank_correlations_fall_in_published_bands():
    labels = list(EXPECTED_T_RANKS)

    def printed(column):
        # reconstruct a rank vector, in ``labels`` order, from a printed rank
        # column; competition ranking is idempotent on its own output, so
        # ranks are preserved
        return rank(
            [float(column[label]) for label in labels],
            higher_is_better=False,
        )

    t_column = printed(EXPECTED_T_RANKS)
    dea_column = printed(EXPECTED_DEA_RANKS)
    h_column = printed(EXPECTED_H_RANKS)
    assert rank_correlation(t_column, dea_column) == pytest.approx(0.93, abs=0.02)
    assert rank_correlation(t_column, h_column) == pytest.approx(0.82, abs=0.02)
    assert rank_correlation(dea_column, h_column) == pytest.approx(0.82, abs=0.02)


def oracle_h(citations):
    best = 0
    for candidate in range(len(citations) + 1):
        if sum(1 for c in citations if c >= candidate) >= candidate:
            best = candidate
    return best


def oracle_g(citations):
    ordered = sorted(citations, reverse=True)
    best = 0
    for candidate in range(len(citations) + 1):
        if sum(ordered[:candidate]) >= candidate * candidate:
            best = candidate
    return best


def test_criterion_5_index_invariants_hold_on_1000_random_profiles():
    rng = np.random.default_rng(20240819)
    profiles, thresholds = [], []
    for trial in range(1000):
        paper_count = int(rng.integers(1, 13))
        citations = [int(c) for c in rng.integers(0, 101, size=paper_count)]
        authors = [int(a) for a in rng.integers(1, 9, size=paper_count)]
        years = int(rng.integers(1, 41))
        profiles.append(
            ResearcherProfile(
                id=f"P{trial}", career_years=years, citations=citations, authors=authors
            )
        )
        thresholds.append(sorted(int(c) for c in rng.integers(0, 102, size=3)))

    def rows(table):
        return [dict(zip(table, values)) for values in zip(*table.values())]

    # an uncited paper changes nothing except possibly raising g
    padded = [
        dataclasses.replace(p, citations=p.citations + (0,), authors=p.authors + (3,))
        for p in profiles
    ]
    # doubling every citation count doubles the impact sums exactly
    doubled = [dataclasses.replace(p, citations=[2 * c for c in p.citations]) for p in profiles]
    base, padded, doubled = (rows(index_table(group)) for group in (profiles, padded, doubled))
    # each profile's t_thresholded at each of its thresholds
    thresholded = {}
    for c in set(chain.from_iterable(thresholds)):
        owners = [trial for trial, drawn in enumerate(thresholds) if c in drawn]
        column = index_table([profiles[trial] for trial in owners], c_star=c)["t_thresholded"]
        thresholded.update(((trial, c), value) for trial, value in zip(owners, column))

    for trial, profile in enumerate(profiles):
        values = base[trial]
        h, g, a, r = values["h"], values["g"], values["a"], values["r"]
        assert h == oracle_h(profile.citations)
        assert g == oracle_g(profile.citations)
        assert g >= h
        assert a >= h
        assert abs(r * r - h * a) <= 1e-9

        more = padded[trial]
        assert (more["h"], more["a"], more["r"]) == (h, a, r)
        assert more["g"] >= g
        assert more["si"] == values["si"]
        assert more["t"] == values["t"]

        # raising the citation threshold never raises the thresholded index
        kept = [thresholded[trial, c] for c in thresholds[trial]]
        assert all(x >= y for x, y in zip(kept, kept[1:]))
        assert values["t_thresholded"] == values["t"]

        assert doubled[trial]["si"] == 2.0 * values["si"]
        assert doubled[trial]["t"] == 2.0 * values["t"]


def grid_oracle(inputs, outputs, target, epsilon=1e-6):
    """Best CCR objective over a dense sweep of the input-weight segment.

    With two inputs and one output the normalization row pins the weights
    to a line segment, so a one-dimensional sweep covers every vertex.  The
    objective is concave along the segment; a coarse pass plus one refined
    pass around the best coarse point bounds the error well under 1e-3.
    """
    x1, x2 = inputs[target]
    c_target = outputs[target, 0]
    low = epsilon
    high = (1.0 - epsilon * x2) / x1

    def best_over(segment):
        v1 = segment[:, None]
        v2 = (1.0 - v1 * x1) / x2
        ratios = (v1 * inputs[:, 0] + v2 * inputs[:, 1]) / outputs[:, 0]
        u = ratios.min(axis=1)
        feasible = (v2[:, 0] >= epsilon) & (u >= epsilon)
        if not feasible.any():
            return -np.inf, segment[0]
        scores = np.where(feasible, c_target * u, -np.inf)
        pick = int(np.argmax(scores))
        return float(scores[pick]), float(segment[pick])

    coarse = np.linspace(low, high, 4001)
    coarse_best, coarse_point = best_over(coarse)
    step = (high - low) / 4000
    refined = np.linspace(
        max(low, coarse_point - step), min(high, coarse_point + step), 4001
    )
    refined_best, _ = best_over(refined)
    return max(coarse_best, refined_best)


def random_dmu_set(rng):
    size = int(rng.integers(2, 7))
    return DmuSet(
        ids=tuple(f"D{i}" for i in range(size)),
        inputs=rng.integers(1, 11, size=(size, 2)).astype(float),
        outputs=rng.integers(5, 51, size=(size, 1)).astype(float),
    )


def test_criterion_6_solver_matches_grid_oracle_and_invariances():
    rng = np.random.default_rng(46114)
    for _ in range(100):
        dmus = random_dmu_set(rng)

        for target in range(dmus.size):
            lp_score = ccr_efficiency(dmus, target).score
            oracle = grid_oracle(dmus.inputs, dmus.outputs, target)
            assert abs(lp_score - oracle) <= 1e-3

        # rescaling one input column with a matching weight bound rescale
        # must not move any score
        k = float(rng.choice([0.5, 2.0]))
        scaled = DmuSet(
            ids=dmus.ids,
            inputs=dmus.inputs * np.array([1.0, k]),
            outputs=dmus.outputs,
        )
        for target in range(dmus.size):
            base = ccr_efficiency(dmus, target).score
            rescaled = ccr_efficiency(scaled, target, (1e-6, 1e-6, 1e-6 / k)).score
            assert abs(rescaled - base) <= 1e-6

        # a DMU whose constraint is implied by an existing one must not
        # move any score either
        source = int(rng.integers(0, dmus.size))
        shrink = float(rng.uniform(0.3, 1.0))
        pad = float(rng.uniform(1.0, 2.0))
        extended = DmuSet(
            ids=dmus.ids + ("pad",),
            inputs=np.vstack([dmus.inputs, dmus.inputs[source] * shrink * pad]),
            outputs=np.vstack([dmus.outputs, dmus.outputs[source] * shrink]),
        )
        for target in range(dmus.size):
            base = ccr_efficiency(dmus, target).score
            inserted = ccr_efficiency(extended, target).score
            assert abs(inserted - base) <= 1e-6


def test_criterion_7_report_runs_are_byte_identical():
    command = [
        sys.executable, "-m", "citedea", "report",
        "--aggregates", str(DATA / "researchers.csv"),
        "--h-values", str(DATA / "h_values.csv"),
    ]
    # the child imports the same package this test did, installed or not
    package_root = os.path.dirname(os.path.dirname(citedea.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        result = subprocess.run(command, capture_output=True, env=env)
        assert result.returncode == 0, result.stderr.decode()
        runs.append(result.stdout)
    assert runs[0] != b""
    assert runs[0] == runs[1]

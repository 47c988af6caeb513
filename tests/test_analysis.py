"""Competition ranking, rank correlation, and report assembly."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citedea import (
    AnalysisError,
    DmuAggregate,
    PaperRecord,
    ResearcherProfile,
    build_report,
    rank,
    rank_correlation,
)
from conftest import (
    EXPECTED_DEA_RANKS,
    EXPECTED_H_RANKS,
    EXPECTED_T_RANKS,
    REFERENCE_T_SCORES,
)


def ranks_of(ranking):
    return [entry.rank for entry in ranking.entries]


class TestRank:
    def test_ties_share_rank_and_next_rank_skips(self):
        ranking = rank([("a", 10.0), ("b", 8.0), ("c", 8.0), ("d", 5.0)])
        assert ranks_of(ranking) == [1, 2, 2, 4]

    def test_lower_is_better_direction(self):
        ranking = rank(
            [("a", 10.0), ("b", 8.0), ("c", 8.0), ("d", 5.0)],
            higher_is_better=False,
        )
        assert ranks_of(ranking) == [4, 2, 2, 1]

    def test_preserves_input_order_and_scores(self):
        ranking = rank([("x", 1.0), ("y", 3.0)])
        assert [entry.id for entry in ranking.entries] == ["x", "y"]
        assert [entry.score for entry in ranking.entries] == [1.0, 3.0]

    def test_rank_of_lookup(self):
        ranking = rank([("x", 1.0), ("y", 3.0)])
        assert ranking.rank_of("y") == 1
        with pytest.raises(AnalysisError, match="no entry"):
            ranking.rank_of("z")

    def test_nan_scores_are_rejected(self):
        with pytest.raises(AnalysisError, match="NaN"):
            rank([("a", 1.0), ("b", float("nan"))])

    def test_single_entry(self):
        assert ranks_of(rank([("a", 42.0)])) == [1]

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=30), st.booleans())
    def test_rank_counts_strictly_better_scores(self, values, higher_is_better):
        scores = [(f"r{i}", float(v)) for i, v in enumerate(values)]
        ranking = rank(scores, higher_is_better=higher_is_better)
        for entry in ranking.entries:
            if higher_is_better:
                better = sum(1 for v in values if v > entry.score)
            else:
                better = sum(1 for v in values if v < entry.score)
            assert entry.rank == 1 + better
        assert min(ranks_of(ranking)) == 1
        assert max(ranks_of(ranking)) <= len(values)

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=30))
    def test_invariant_under_increasing_transforms(self, values):
        scores = [(f"r{i}", float(v)) for i, v in enumerate(values)]
        transformed = [(name, 3.0 * v + 7.0) for name, v in scores]
        assert ranks_of(rank(scores)) == ranks_of(rank(transformed))

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=30))
    def test_ranking_printed_ranks_is_idempotent(self, values):
        scores = [(f"r{i}", float(v)) for i, v in enumerate(values)]
        first = ranks_of(rank(scores))
        again = rank(
            [(f"r{i}", float(r)) for i, r in enumerate(first)],
            higher_is_better=False,
        )
        assert ranks_of(again) == first


def permutation_ranking(order):
    # scores chosen so the rank vector equals the given permutation of 1..n
    return rank([(f"p{i}", float(r)) for i, r in enumerate(order)], higher_is_better=False)


class TestRankCorrelation:
    def test_identical_rankings(self):
        a = rank([("x", 3.0), ("y", 2.0), ("z", 1.0)])
        assert rank_correlation(a, a) == pytest.approx(1.0)

    def test_reversed_rankings(self):
        a = rank([("x", 3.0), ("y", 2.0), ("z", 1.0)])
        b = rank([("x", 1.0), ("y", 2.0), ("z", 3.0)])
        assert rank_correlation(a, b) == pytest.approx(-1.0)

    def test_symmetry(self):
        a = rank([("x", 3.0), ("y", 1.0), ("z", 2.0), ("w", 2.0)])
        b = rank([("x", 5.0), ("y", 9.0), ("z", 2.0), ("w", 4.0)])
        assert rank_correlation(a, b) == rank_correlation(b, a)

    def test_alignment_is_by_id_not_position(self):
        a = rank([("x", 2.0), ("y", 1.0)])
        b = rank([("y", 1.0), ("x", 2.0)])
        assert rank_correlation(a, b) == pytest.approx(1.0)

    def test_mismatched_ids_are_rejected(self):
        a = rank([("x", 1.0), ("y", 2.0)])
        b = rank([("x", 1.0), ("q", 2.0)])
        with pytest.raises(AnalysisError, match="same researcher ids"):
            rank_correlation(a, b)

    def test_duplicate_ids_are_rejected(self):
        a = rank([("x", 1.0), ("x", 2.0)])
        b = rank([("x", 1.0), ("y", 2.0)])
        with pytest.raises(AnalysisError, match="exactly once"):
            rank_correlation(a, b)

    def test_single_entry_is_rejected(self):
        a = rank([("x", 1.0)])
        with pytest.raises(AnalysisError, match="variance"):
            rank_correlation(a, a)

    def test_all_tied_vector_is_rejected(self):
        a = rank([("x", 5.0), ("y", 5.0)])
        b = rank([("x", 1.0), ("y", 2.0)])
        with pytest.raises(AnalysisError, match="variance"):
            rank_correlation(a, b)

    @given(
        st.integers(2, 12).flatmap(
            lambda n: st.tuples(
                st.permutations(list(range(1, n + 1))),
                st.permutations(list(range(1, n + 1))),
            )
        )
    )
    def test_tie_free_case_matches_spearman_closed_form(self, orders):
        order_a, order_b = orders
        a = permutation_ranking(order_a)
        b = permutation_ranking(order_b)
        n = len(order_a)
        ranks_a = {e.id: e.rank for e in a.entries}
        ranks_b = {e.id: e.rank for e in b.entries}
        squared = sum((ranks_a[k] - ranks_b[k]) ** 2 for k in ranks_a)
        closed_form = 1.0 - 6.0 * squared / (n * (n * n - 1))
        assert rank_correlation(a, b) == pytest.approx(closed_form, abs=1e-12)

    @settings(max_examples=50)
    @given(
        st.integers(2, 10).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 20), min_size=n, max_size=n),
                st.lists(st.integers(0, 20), min_size=n, max_size=n),
            )
        )
    )
    def test_coefficient_stays_in_unit_interval(self, score_lists):
        values_a, values_b = score_lists
        if len(set(values_a)) < 2 or len(set(values_b)) < 2:
            return
        a = rank([(f"p{i}", float(v)) for i, v in enumerate(values_a)])
        b = rank([(f"p{i}", float(v)) for i, v in enumerate(values_b)])
        assert -1.0 <= rank_correlation(a, b) <= 1.0


def two_profiles():
    return [
        ResearcherProfile(
            id="A1",
            career_years=4,
            papers=[
                PaperRecord(citations=10, authors=2),
                PaperRecord(citations=8, authors=2),
                PaperRecord(citations=5, authors=1),
                PaperRecord(citations=4, authors=3),
                PaperRecord(citations=3, authors=2),
            ],
        ),
        ResearcherProfile(
            id="A2",
            career_years=10,
            papers=[
                PaperRecord(citations=20, authors=2),
                PaperRecord(citations=10, authors=1),
                PaperRecord(citations=0, authors=4),
            ],
        ),
    ]


class TestBuildReport:
    def test_per_paper_input_yields_every_column(self):
        report = build_report(profiles=two_profiles())
        assert report.ids == ("A1", "A2")
        assert report.metrics == (
            "years", "coauthors", "citations",
            "h", "g", "a", "r", "individual_h",
            "si", "si_penalized", "t", "t_thresholded", "dea",
        )
        assert report.columns["h"] == (4.0, 2.0)
        assert report.columns["citations"] == (30.0, 30.0)
        assert set(report.rankings) == {"t", "dea", "h", "g", "a", "r"}

    def test_aggregate_input_yields_efficiency_only(self, aggregates15):
        report = build_report(aggregates=aggregates15)
        assert report.metrics == ("years", "coauthors", "citations", "dea")
        assert set(report.rankings) == {"dea"}
        assert report.correlations.pairs == ()

    def test_aggregate_input_with_h_scores(self, aggregates15, h_values15):
        report = build_report(aggregates=aggregates15, h_scores=h_values15)
        assert report.metrics == ("years", "coauthors", "citations", "h", "dea")
        assert {e.id: e.rank for e in report.rankings["dea"].entries} == EXPECTED_DEA_RANKS
        assert {e.id: e.rank for e in report.rankings["h"].entries} == EXPECTED_H_RANKS
        (pair,) = report.correlations.pairs
        assert (pair.metric_a, pair.metric_b) == ("dea", "h")
        assert pair.coefficient == pytest.approx(0.82, abs=0.02)

    def test_extra_h_scores_are_ignored(self, aggregates15, h_values15):
        padded = dict(h_values15)
        padded["R99"] = 1
        report = build_report(aggregates=aggregates15, h_scores=padded)
        assert "R99" not in report.ids

    def test_missing_h_scores_are_named(self, aggregates15, h_values15):
        partial = {k: v for k, v in h_values15.items() if k not in {"R4", "R11"}}
        with pytest.raises(AnalysisError, match="R11, R4"):
            build_report(aggregates=aggregates15, h_scores=partial)

    def test_h_scores_clash_with_profiles(self):
        with pytest.raises(AnalysisError, match="aggregate input"):
            build_report(profiles=two_profiles(), h_scores={"A1": 4, "A2": 2})

    def test_exactly_one_input_required(self, aggregates15):
        with pytest.raises(AnalysisError, match="exactly one"):
            build_report()
        with pytest.raises(AnalysisError, match="exactly one"):
            build_report(profiles=two_profiles(), aggregates=aggregates15)

    def test_unknown_metric_is_rejected(self, aggregates15):
        with pytest.raises(AnalysisError, match="unknown metric 'hype'"):
            build_report(aggregates=aggregates15, metrics=["hype"])

    def test_per_paper_metric_on_aggregates_is_rejected(self, aggregates15):
        with pytest.raises(AnalysisError, match="t requires per-paper records"):
            build_report(aggregates=aggregates15, metrics=["t"])

    def test_metric_subset_keeps_canonical_order(self):
        report = build_report(profiles=two_profiles(), metrics=["t", "h", "h"])
        assert report.metrics == ("years", "coauthors", "citations", "h", "t")
        assert set(report.rankings) == {"t", "h"}

    def test_raw_columns_survive_metric_restriction(self):
        report = build_report(profiles=two_profiles(), metrics=["dea"])
        assert report.columns["years"] == (4.0, 10.0)

    def test_index_options_flow_through(self):
        plain = build_report(profiles=two_profiles())
        filtered = build_report(profiles=two_profiles(), c_star=15)
        assert filtered.columns["t_thresholded"] == (0.0, 1.0)
        assert plain.columns["t_thresholded"] == plain.columns["t"]

    def test_top_dea_rank_is_the_top_score(self, aggregates15):
        report = build_report(aggregates=aggregates15)
        scores = dict(zip(report.ids, report.columns["dea"]))
        best = max(scores.values())
        rank_one = {e.id for e in report.rankings["dea"].entries if e.rank == 1}
        assert rank_one == {label for label, s in scores.items() if s == best}

    def test_reference_t_scores_reproduce_printed_ranks(self):
        ranking = rank(list(REFERENCE_T_SCORES.items()))
        assert {e.id: e.rank for e in ranking.entries} == EXPECTED_T_RANKS

    def test_all_tied_metrics_are_skipped_in_correlations(self):
        twins = [
            DmuAggregate(id="L", years=5, coauthors=10, citations=100),
            DmuAggregate(id="M", years=5, coauthors=10, citations=100),
        ]
        report = build_report(aggregates=twins, h_scores={"L": 3, "M": 4})
        # both efficiency scores tie at 1.0, so the dea vector has no variance
        assert report.columns["dea"] == (1.0, 1.0)
        assert report.correlations.pairs == ()

"""Competition ranking, rank correlation, and report assembly."""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from citedea import (
    AnalysisError,
    CorpusError,
    DmuAggregate,
    ResearcherProfile,
    aggregate,
    build_report,
    parse_paper_columns,
    rank,
    rank_correlation,
)
from conftest import (
    EXPECTED_DEA_RANKS,
    EXPECTED_H_RANKS,
    EXPECTED_T_RANKS,
    REFERENCE_T_SCORES,
)


class TestRank:
    def test_ties_share_rank_and_next_rank_skips(self):
        assert rank([10.0, 8.0, 8.0, 5.0]) == (1, 2, 2, 4)

    def test_lower_is_better_direction(self):
        assert rank([10.0, 8.0, 8.0, 5.0], higher_is_better=False) == (4, 2, 2, 1)

    def test_ranks_follow_input_order(self):
        assert rank([1.0, 3.0]) == (2, 1)
        assert rank([3, 1]) == (1, 2)

    def test_nan_scores_are_rejected(self):
        with pytest.raises(AnalysisError, match="NaN"):
            rank([1.0, float("nan")])

    def test_single_entry(self):
        assert rank([42.0]) == (1,)

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=30), st.booleans())
    def test_rank_counts_strictly_better_scores(self, values, higher_is_better):
        ranks = rank([float(v) for v in values], higher_is_better=higher_is_better)
        for value, position in zip(values, ranks):
            if higher_is_better:
                better = sum(1 for v in values if v > value)
            else:
                better = sum(1 for v in values if v < value)
            assert position == 1 + better
        assert min(ranks) == 1
        assert max(ranks) <= len(values)

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=30))
    def test_invariant_under_increasing_transforms(self, values):
        scores = [float(v) for v in values]
        assert rank(scores) == rank([3.0 * v + 7.0 for v in scores])

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=30))
    def test_ranking_printed_ranks_is_idempotent(self, values):
        first = rank([float(v) for v in values])
        assert rank([float(r) for r in first], higher_is_better=False) == first


def permutation_ranking(order):
    # scores chosen so the rank vector equals the given permutation of 1..n
    return rank([float(r) for r in order], higher_is_better=False)


class TestRankCorrelation:
    def test_identical_rankings(self):
        a = rank([3.0, 2.0, 1.0])
        assert rank_correlation(a, a) == pytest.approx(1.0)

    def test_reversed_rankings(self):
        a = rank([3.0, 2.0, 1.0])
        b = rank([1.0, 2.0, 3.0])
        assert rank_correlation(a, b) == pytest.approx(-1.0)

    def test_symmetry(self):
        a = rank([3.0, 1.0, 2.0, 2.0])
        b = rank([5.0, 9.0, 2.0, 4.0])
        assert rank_correlation(a, b) == rank_correlation(b, a)

    def test_mismatched_lengths_are_rejected(self):
        with pytest.raises(AnalysisError, match="equal lengths, got 2 and 3"):
            rank_correlation((1, 2), (1, 2, 3))

    def test_single_entry_is_rejected(self):
        a = rank([1.0])
        with pytest.raises(AnalysisError, match="variance"):
            rank_correlation(a, a)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_a_rank_that_is_not_finite_is_rejected(self, bad):
        message = rf"^ranks must be finite, got {bad}; pass the ranks that rank\(\) returns$"
        with pytest.raises(AnalysisError, match=message):
            rank_correlation([1, bad, 3], [1, 2, 3])
        with pytest.raises(AnalysisError, match=message):
            rank_correlation([1, 2, 3], [1, bad, 3])

    def test_all_tied_vector_is_rejected(self):
        a = rank([5.0, 5.0])
        b = rank([1.0, 2.0])
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
        squared = sum((x - y) ** 2 for x, y in zip(a, b))
        # the exact value, correctly rounded
        closed_form = float(1 - Fraction(6 * squared, n * (n * n - 1)))
        assert rank_correlation(a, b) == closed_form

    def test_exact_values_are_returned_exactly(self):
        assert rank_correlation([1, 2, 3, 4], [2, 1, 3, 4]) == 0.8
        assert rank_correlation([2, 1], [2, 1]) == 1.0
        assert rank_correlation([1, 2, 3], [3, 2, 1]) == -1.0
        # tied ranks, whose variance product is not a perfect square: 3 / sqrt(12)
        assert rank_correlation([1, 1, 3], [1, 2, 3]) == pytest.approx(3 / 12**0.5, rel=1e-15)

    def test_tied_rankings_are_correctly_rounded(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(3, 40))
            a, b = (rank(rng.integers(0, 5, n).tolist()) for _ in range(2))
            if len(set(a)) < 2 or len(set(b)) < 2:
                continue
            covariance = n * sum(x * y for x, y in zip(a, b)) - sum(a) * sum(b)
            product = (n * sum(x * x for x in a) - sum(a) ** 2) * (
                n * sum(y * y for y in b) - sum(b) ** 2
            )
            with localcontext() as context:
                context.prec = 60
                exact = Decimal(covariance) / Decimal(product).sqrt()
            # float() of a decimal is correctly rounded
            assert rank_correlation(a, b) == float(exact), (a, b)
            checked += 1
        assert checked > 250

    @pytest.mark.parametrize(
        "a, b",
        [
            # averaged ties
            ([1.5, 1.5, 3.0, 4.0], [1.0, 2.0, 4.0, 3.0]),
            # squares past what int64 holds
            ([1, 2**40, 3, 2**35], [1, 2, 3, 4]),
        ],
    )
    def test_ranks_without_exact_int64_sums_fall_back_to_floats(self, a, b):
        assert rank_correlation(a, b) == pytest.approx(np.corrcoef(a, b)[0, 1], rel=1e-15)

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
        a = rank([float(v) for v in values_a])
        b = rank([float(v) for v in values_b])
        assert -1.0 <= rank_correlation(a, b) <= 1.0


def two_profiles():
    return [
        ResearcherProfile(
            id="A1",
            career_years=4,
            citations=(10, 8, 5, 4, 3),
            authors=(2, 2, 1, 3, 2),
        ),
        ResearcherProfile(
            id="A2",
            career_years=10,
            citations=(20, 10, 0),
            authors=(2, 1, 4),
        ),
    ]


class TestBuildReport:
    def test_per_paper_input_yields_every_column(self):
        report = build_report(profiles=two_profiles())
        assert report.ids == ("A1", "A2")
        assert tuple(report.columns) == (
            "years", "coauthors", "citations",
            "h", "g", "a", "r", "individual_h",
            "si", "si_penalized", "t", "t_thresholded", "dea",
        )
        assert report.columns["h"] == (4, 2)
        assert report.columns["citations"] == (30, 30)
        assert all(
            type(value) is int
            for name in ("years", "coauthors", "citations", "h", "g")
            for value in report.columns[name]
        )
        assert set(report.rankings) == {"t", "dea", "h", "g", "a", "r"}

    def test_aggregate_input_yields_efficiency_only(self, aggregates15):
        report = build_report(aggregates=aggregates15)
        assert tuple(report.columns) == ("years", "coauthors", "citations", "dea")
        assert set(report.rankings) == {"dea"}
        assert report.correlations == ()

    def test_aggregate_input_with_h_scores(self, aggregates15, h_values15):
        report = build_report(aggregates=aggregates15, h_scores=h_values15)
        assert tuple(report.columns) == ("years", "coauthors", "citations", "h", "dea")
        assert dict(zip(report.ids, report.rankings["dea"])) == EXPECTED_DEA_RANKS
        assert dict(zip(report.ids, report.rankings["h"])) == EXPECTED_H_RANKS
        (pair,) = report.correlations
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

    def test_index_options_flow_through(self):
        plain = build_report(profiles=two_profiles())
        filtered = build_report(profiles=two_profiles(), c_star=15)
        assert filtered.columns["t_thresholded"] == (0.0, 1.0)
        assert plain.columns["t_thresholded"] == plain.columns["t"]

    def test_top_dea_rank_is_the_top_score(self, aggregates15):
        report = build_report(aggregates=aggregates15)
        scores = dict(zip(report.ids, report.columns["dea"]))
        best = max(scores.values())
        ranks = dict(zip(report.ids, report.rankings["dea"]))
        rank_one = {label for label, position in ranks.items() if position == 1}
        assert rank_one == {label for label, s in scores.items() if s == best}

    def test_reference_t_scores_reproduce_printed_ranks(self):
        ranks = rank(list(REFERENCE_T_SCORES.values()))
        assert dict(zip(REFERENCE_T_SCORES, ranks)) == EXPECTED_T_RANKS

    def test_all_tied_metrics_are_skipped_in_correlations(self):
        twins = [
            DmuAggregate(id="L", years=5, coauthors=10, citations=100),
            DmuAggregate(id="M", years=5, coauthors=10, citations=100),
        ]
        report = build_report(aggregates=twins, h_scores={"L": 3, "M": 4})
        # both efficiency scores tie at 1.0, so the dea vector has no variance
        assert report.columns["dea"] == (1.0, 1.0)
        assert report.correlations == ()


def papers_csv(profiles):
    """The papers of ``profiles`` as CSV rows: every first paper, then every second, and so on."""
    rows = [
        (position, f"{profile.id},{cited},{count}\n")
        for profile in profiles
        for position, (cited, count) in enumerate(zip(profile.citations, profile.authors))
    ]
    return "".join(row for _, row in sorted(rows, key=lambda row: row[0]))


class TestPaperColumnsReport:
    """build_report reads a profile list and parse_paper_columns' columns alike."""

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 40),
                st.lists(st.tuples(st.integers(0, 60), st.integers(1, 9)), min_size=1, max_size=8),
            ),
            min_size=1,
            max_size=6,
        ),
        st.integers(0, 30),
    )
    @settings(deadline=None)
    def test_a_profile_list_and_its_columns_give_one_report(self, drawn, c_star):
        profiles = [
            ResearcherProfile(f"P{index}", years, *zip(*papers))
            for index, (years, papers) in enumerate(drawn)
        ]
        profiles_text = "".join(f"{profile.id},{profile.career_years}\n" for profile in profiles)
        columns = parse_paper_columns(papers_csv(profiles), profiles_text)
        totals = [
            DmuAggregate(
                profile.id, profile.career_years, sum(profile.authors), sum(profile.citations)
            )
            for profile in profiles
        ]
        assert columns.aggregates() == [aggregate(profile) for profile in profiles] == totals
        assume(any(any(profile.citations) for profile in profiles))  # else DEA has no output
        report = build_report(profiles=columns, c_star=c_star)
        assert report == build_report(profiles=profiles, c_star=c_star)

    def test_columns_without_career_years_are_refused(self):
        columns = parse_paper_columns(papers_csv(two_profiles()))
        with pytest.raises(CorpusError) as caught:
            build_report(profiles=columns)
        assert str(caught.value) == (
            "no career years to aggregate: read the papers text together with its "
            "profiles text, as in parse_paper_columns(papers, profiles)"
        )

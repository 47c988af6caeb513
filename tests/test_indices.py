"""Citation index values, edge conventions, and invariant properties."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citedea import (
    INDEX_NAMES,
    PaperRecord,
    PenaltyParams,
    ResearcherProfile,
    a_index,
    compute_indices,
    g_index,
    h_core,
    h_index,
    individual_h,
    paper_indices,
    r_index,
    scientific_impact,
    scientific_impact_penalized,
    t_index,
    t_index_thresholded,
)

citation_lists = st.lists(st.integers(min_value=0, max_value=20), max_size=12)
paper_lists = st.lists(
    st.builds(
        PaperRecord,
        citations=st.integers(min_value=0, max_value=20),
        authors=st.integers(min_value=1, max_value=8),
    ),
    max_size=12,
)


def oracle_h(citations):
    """Exhaustive scan: the largest h with at least h entries of h or more."""
    return max(
        (k for k in range(len(citations) + 1) if sum(1 for c in citations if c >= k) >= k),
        default=0,
    )


def oracle_g(citations):
    """Exhaustive scan over g candidates capped at the paper count."""
    ranked = sorted(citations, reverse=True)
    return max(
        (k for k in range(len(citations) + 1) if sum(ranked[:k]) >= k * k),
        default=0,
    )


def profile_of(papers, years=1):
    return ResearcherProfile(
        id="X",
        career_years=years,
        citations=[paper.citations for paper in papers],
        authors=[paper.authors for paper in papers],
    )


class TestH:
    def test_reference_list(self):
        assert h_index([10, 8, 5, 4, 3]) == 4

    def test_uncited_papers(self):
        assert h_index([0, 0, 0]) == 0

    def test_single_cited_paper(self):
        assert h_index([1]) == 1

    def test_empty(self):
        assert h_index([]) == 0

    @given(citation_lists)
    def test_matches_exhaustive_oracle(self, citations):
        assert h_index(citations) == oracle_h(citations)

    @given(citation_lists)
    def test_bounded_by_count_and_max(self, citations):
        h = h_index(citations)
        bound = min(len(citations), max(citations, default=0))
        assert 0 <= h <= bound


class TestG:
    def test_reference_list(self):
        # cumulative sums 10,18,23,27,30 against squares 1,4,9,16,25
        assert g_index([10, 8, 5, 4, 3]) == 5

    def test_zero_citations(self):
        assert g_index([0]) == 0

    @given(citation_lists)
    def test_matches_exhaustive_oracle(self, citations):
        assert g_index(citations) == oracle_g(citations)

    @given(citation_lists)
    def test_dominates_h(self, citations):
        assert g_index(citations) >= h_index(citations)


class TestA:
    def test_reference_list(self):
        assert a_index([10, 8, 5, 4, 3]) == pytest.approx(6.75)

    def test_zero_core(self):
        assert a_index([0, 0]) == 0.0

    def test_single_paper_identity(self):
        assert a_index([9]) == 9.0

    @given(citation_lists)
    def test_at_least_h_when_h_positive(self, citations):
        h = h_index(citations)
        if h >= 1:
            assert a_index(citations) >= h


class TestR:
    def test_reference_list(self):
        assert r_index([10, 8, 5, 4, 3]) == pytest.approx(math.sqrt(27))

    def test_empty_core(self):
        assert r_index([]) == 0.0

    def test_single_citation(self):
        assert r_index([1]) == 1.0

    @given(citation_lists)
    def test_squared_equals_h_times_a(self, citations):
        r = r_index(citations)
        assert r * r == pytest.approx(h_index(citations) * a_index(citations), abs=1e-9)


class TestPermutationInvariance:
    @given(citation_lists)
    def test_h_g_a_r_ignore_order(self, citations):
        shuffled = list(reversed(sorted(citations)))
        assert h_index(shuffled) == h_index(citations)
        assert g_index(shuffled) == g_index(citations)
        assert a_index(shuffled) == pytest.approx(a_index(citations))
        assert r_index(shuffled) == pytest.approx(r_index(citations))


class TestIndividualH:
    def test_reference_papers(self):
        papers = (PaperRecord(10, 2), PaperRecord(8, 2), PaperRecord(2, 1))
        assert individual_h(papers) == pytest.approx(1.0)

    def test_all_uncited(self):
        assert individual_h((PaperRecord(0, 3), PaperRecord(0, 1))) == 0.0

    def test_single_author_single_paper(self):
        assert individual_h((PaperRecord(5, 1),)) == pytest.approx(1.0)

    def test_tied_core_keeps_input_order(self):
        papers = (
            PaperRecord(3, 1),
            PaperRecord(3, 7),
            PaperRecord(2, 2),
            PaperRecord(3, 4),
        )
        # h = 3; the three 3-citation papers enter the core in input order
        assert h_core(papers) == (papers[0], papers[1], papers[3])
        assert individual_h(papers) == pytest.approx(3 / 4)


class TestScientificImpact:
    def test_reference_papers(self):
        assert scientific_impact((PaperRecord(20, 2), PaperRecord(10, 1))) == 20.0

    def test_empty(self):
        assert scientific_impact(()) == 0.0

    def test_identity_ratio(self):
        assert scientific_impact((PaperRecord(7, 7),)) == pytest.approx(1.0)


class TestScientificImpactPenalized:
    def test_penalty_applies_above_b(self):
        value = scientific_impact_penalized(
            (PaperRecord(12, 4),), PenaltyParams(a=0.5, b=2)
        )
        assert value == pytest.approx(6.0)

    def test_at_most_b_authors_contribute_undivided(self):
        value = scientific_impact_penalized(
            (PaperRecord(12, 2),), PenaltyParams(a=0.5, b=2)
        )
        assert value == pytest.approx(12.0)

    @given(paper_lists)
    def test_zero_slope_gives_plain_citation_sum(self, papers):
        value = scientific_impact_penalized(papers, PenaltyParams(a=0.0, b=1))
        assert value == pytest.approx(sum(p.citations for p in papers))

    @given(paper_lists, st.floats(min_value=0, max_value=5, allow_nan=False))
    def test_large_b_gives_plain_citation_sum(self, papers, a):
        big = max((p.authors for p in papers), default=1)
        value = scientific_impact_penalized(papers, PenaltyParams(a=a, b=big))
        assert value == pytest.approx(sum(p.citations for p in papers))

    def test_params_validation(self):
        with pytest.raises(ValueError, match="a must"):
            PenaltyParams(a=-0.1, b=1)
        with pytest.raises(ValueError, match="b must"):
            PenaltyParams(a=0.0, b=0)


class TestT:
    def test_reference_profile(self):
        profile = profile_of((PaperRecord(20, 2), PaperRecord(10, 1)), years=4)
        assert t_index(profile) == pytest.approx(5.0)

    def test_no_papers(self):
        assert t_index(profile_of((), years=10)) == 0.0

    @given(paper_lists, st.integers(min_value=1, max_value=40))
    def test_doubling_citations_doubles_t(self, papers, years):
        doubled = [PaperRecord(p.citations * 2, p.authors) for p in papers]
        assert t_index(profile_of(doubled, years)) == 2 * t_index(profile_of(papers, years))


class TestTThresholded:
    def test_reference_profile(self):
        profile = profile_of((PaperRecord(60, 2), PaperRecord(10, 1)), years=3)
        assert t_index_thresholded(profile, 50) == pytest.approx(10.0)

    def test_zero_threshold_equals_t_exactly(self):
        profile = profile_of((PaperRecord(60, 2), PaperRecord(10, 1)), years=3)
        assert t_index_thresholded(profile, 0) == t_index(profile)

    def test_threshold_above_all_citations(self):
        profile = profile_of((PaperRecord(60, 2),), years=3)
        assert t_index_thresholded(profile, 61) == 0.0

    def test_negative_threshold_is_rejected(self):
        with pytest.raises(ValueError, match="c_star"):
            t_index_thresholded(profile_of((PaperRecord(1, 1),)), -1)

    @given(paper_lists, st.integers(min_value=1, max_value=40))
    def test_non_increasing_in_threshold(self, papers, years):
        profile = profile_of(papers, years)
        values = [t_index_thresholded(profile, c) for c in range(0, 22)]
        assert all(earlier >= later for earlier, later in zip(values, values[1:]))


class TestZeroCitedPaperNeutrality:
    @given(paper_lists, st.integers(min_value=1, max_value=40))
    def test_uncited_paper_changes_nothing_but_g(self, papers, years):
        extended = list(papers) + [PaperRecord(0, 1)]
        citations = [p.citations for p in papers]
        extended_citations = citations + [0]
        assert h_index(extended_citations) == h_index(citations)
        assert g_index(extended_citations) >= g_index(citations)
        assert a_index(extended_citations) == pytest.approx(a_index(citations))
        assert r_index(extended_citations) == pytest.approx(r_index(citations))
        assert scientific_impact(extended) == pytest.approx(scientific_impact(papers))
        assert t_index(profile_of(extended, years)) == pytest.approx(
            t_index(profile_of(papers, years))
        )


class TestIndexMapping:
    """The index values compute_indices and paper_indices return, by name."""

    def test_compute_indices_covers_every_name(self):
        profile = profile_of((PaperRecord(10, 2), PaperRecord(8, 2)), years=2)
        values = compute_indices(profile, c_star=9, penalty=PenaltyParams(a=1.0, b=1))
        assert tuple(values) == INDEX_NAMES
        assert tuple(paper_indices(profile.papers)) == INDEX_NAMES[:7]
        assert values["h"] == 2
        assert values["si"] == pytest.approx(9.0)
        assert values["t"] == pytest.approx(4.5)
        assert values["t_thresholded"] == pytest.approx(2.5)
        assert values["si_penalized"] == pytest.approx(9.0)

    @given(paper_lists)
    def test_h_and_g_stay_ints_and_the_rest_are_floats(self, papers):
        values = compute_indices(profile_of(papers, 3))
        assert {name: type(value) for name, value in values.items()} == {
            name: int if name in ("h", "g") else float for name in INDEX_NAMES
        }


class TestOneShotIterables:
    """The paper-list functions read a generator once and give the list's answer."""

    @given(paper_lists, st.floats(min_value=0.0, max_value=5.0), st.integers(1, 4))
    def test_generator_gives_the_list_value(self, papers, a, b):
        params = PenaltyParams(a=a, b=b)
        assert scientific_impact(iter(papers)) == scientific_impact(papers)
        assert scientific_impact_penalized(iter(papers), params) == (
            scientific_impact_penalized(papers, params)
        )
        assert individual_h(iter(papers)) == individual_h(papers)
        assert h_core(iter(papers)) == h_core(papers)
        assert paper_indices(iter(papers), penalty=params) == paper_indices(
            papers, penalty=params
        )

    def test_generator_of_cited_papers_is_not_empty(self):
        papers = [PaperRecord(4, 2), PaperRecord(3, 1)]
        assert scientific_impact(record for record in papers) == 5.0

"""Citation index values, edge conventions, and invariant properties."""

import math
from functools import reduce
from itertools import compress
from operator import add, truediv

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from citedea import (
    INDEX_NAMES,
    CorpusError,
    PenaltyParams,
    ResearcherProfile,
    build_report,
    compute_indices,
    index_table,
    parse_paper_columns,
    parse_profiles,
)
from citedea import indices

citation_lists = st.lists(st.integers(min_value=0, max_value=20), max_size=12)
# (citations, authors) pairs, one per paper
paper_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=8)),
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
    """A profile of the ``(citations, authors)`` pairs in ``papers``."""
    return ResearcherProfile(
        id="X",
        career_years=years,
        citations=[cited for cited, _ in papers],
        authors=[count for _, count in papers],
    )


def indices_of(papers, years=1, **options):
    """Every index of one researcher with ``papers`` (see compute_indices)."""
    return compute_indices(profile_of(papers, years), **options)


def cited(citations):
    """Every index of one researcher whose papers each have one author."""
    return indices_of([(count, 1) for count in citations])


class TestH:
    def test_reference_list(self):
        assert cited([10, 8, 5, 4, 3])["h"] == 4

    def test_uncited_papers(self):
        assert cited([0, 0, 0])["h"] == 0

    def test_single_cited_paper(self):
        assert cited([1])["h"] == 1

    def test_empty(self):
        assert cited([])["h"] == 0

    @given(citation_lists)
    def test_matches_exhaustive_oracle(self, citations):
        assert cited(citations)["h"] == oracle_h(citations)

    @given(citation_lists)
    def test_bounded_by_count_and_max(self, citations):
        h = cited(citations)["h"]
        bound = min(len(citations), max(citations, default=0))
        assert 0 <= h <= bound


class TestG:
    def test_reference_list(self):
        # cumulative sums 10,18,23,27,30 against squares 1,4,9,16,25
        assert cited([10, 8, 5, 4, 3])["g"] == 5

    def test_zero_citations(self):
        assert cited([0])["g"] == 0

    @given(citation_lists)
    def test_matches_exhaustive_oracle(self, citations):
        assert cited(citations)["g"] == oracle_g(citations)

    @given(citation_lists)
    def test_dominates_h(self, citations):
        values = cited(citations)
        assert values["g"] >= values["h"]


class TestA:
    def test_reference_list(self):
        assert cited([10, 8, 5, 4, 3])["a"] == pytest.approx(6.75)

    def test_zero_core(self):
        assert cited([0, 0])["a"] == 0.0

    def test_single_paper_identity(self):
        assert cited([9])["a"] == 9.0

    @given(citation_lists)
    def test_at_least_h_when_h_positive(self, citations):
        values = cited(citations)
        if values["h"] >= 1:
            assert values["a"] >= values["h"]


class TestR:
    def test_reference_list(self):
        assert cited([10, 8, 5, 4, 3])["r"] == pytest.approx(math.sqrt(27))

    def test_empty_core(self):
        assert cited([])["r"] == 0.0

    def test_single_citation(self):
        assert cited([1])["r"] == 1.0

    @given(citation_lists)
    def test_squared_equals_h_times_a(self, citations):
        values = cited(citations)
        assert values["r"] ** 2 == pytest.approx(values["h"] * values["a"], abs=1e-9)


class TestPermutationInvariance:
    @given(citation_lists)
    def test_h_g_a_r_ignore_order(self, citations):
        shuffled, values = cited(list(reversed(sorted(citations)))), cited(citations)
        assert shuffled["h"] == values["h"]
        assert shuffled["g"] == values["g"]
        assert shuffled["a"] == pytest.approx(values["a"])
        assert shuffled["r"] == pytest.approx(values["r"])


class TestIndividualH:
    def test_reference_papers(self):
        papers = ((10, 2), (8, 2), (2, 1))
        assert indices_of(papers)["individual_h"] == pytest.approx(1.0)

    def test_all_uncited(self):
        assert indices_of(((0, 3), (0, 1)))["individual_h"] == 0.0

    def test_single_author_single_paper(self):
        assert indices_of(((5, 1),))["individual_h"] == pytest.approx(1.0)

    def test_tied_core_keeps_input_order(self):
        papers = ((3, 1), (3, 7), (2, 2), (3, 4))
        # h = 3; the three 3-citation papers enter the core in input order
        assert indices_of(papers)["individual_h"] == pytest.approx(3 / 4)
        # h = 2 of three equally cited papers: the first two in input order
        # form the core, so moving the 9-author paper changes the answer
        first_two_solo = [(2, 1), (2, 1), (2, 9)]
        assert indices_of(first_two_solo)["individual_h"] == 2.0
        assert indices_of(first_two_solo[::-1])["individual_h"] == 0.4


class TestScientificImpact:
    def test_reference_papers(self):
        assert indices_of(((20, 2), (10, 1)))["si"] == 20.0

    def test_empty(self):
        assert indices_of(())["si"] == 0.0

    def test_identity_ratio(self):
        assert indices_of(((7, 7),))["si"] == pytest.approx(1.0)


class TestScientificImpactPenalized:
    def test_penalty_applies_above_b(self):
        values = indices_of(((12, 4),), penalty=PenaltyParams(a=0.5, b=2))
        assert values["si_penalized"] == pytest.approx(6.0)

    def test_at_most_b_authors_contribute_undivided(self):
        values = indices_of(((12, 2),), penalty=PenaltyParams(a=0.5, b=2))
        assert values["si_penalized"] == pytest.approx(12.0)

    @given(paper_lists)
    def test_zero_slope_gives_plain_citation_sum(self, papers):
        values = indices_of(papers, penalty=PenaltyParams(a=0.0, b=1))
        assert values["si_penalized"] == pytest.approx(sum(cited for cited, _ in papers))

    @given(paper_lists, st.floats(min_value=0, max_value=5, allow_nan=False))
    def test_large_b_gives_plain_citation_sum(self, papers, a):
        big = max((count for _, count in papers), default=1)
        values = indices_of(papers, penalty=PenaltyParams(a=a, b=big))
        assert values["si_penalized"] == pytest.approx(sum(cited for cited, _ in papers))

    def test_params_validation(self):
        with pytest.raises(ValueError, match=r"^a must be non-negative, got -0\.1$"):
            PenaltyParams(a=-0.1, b=1)
        with pytest.raises(ValueError, match=r"^b must be a positive integer, got 0$"):
            PenaltyParams(a=0.0, b=0)
        with pytest.raises(ValueError, match=r"^b must be a positive integer, got 1\.5$"):
            PenaltyParams(a=0.0, b=1.5)
        with pytest.raises(ValueError, match=r"^b must be a positive integer, got True$"):
            PenaltyParams(a=0.0, b=True)


class TestT:
    def test_reference_profile(self):
        papers = ((20, 2), (10, 1))
        assert indices_of(papers, years=4)["t"] == pytest.approx(5.0)

    def test_no_papers(self):
        assert indices_of((), years=10)["t"] == 0.0

    @given(paper_lists, st.integers(min_value=1, max_value=40))
    def test_doubling_citations_doubles_t(self, papers, years):
        doubled = [(cited * 2, count) for cited, count in papers]
        assert indices_of(doubled, years)["t"] == 2 * indices_of(papers, years)["t"]


class TestTThresholded:
    def test_reference_profile(self):
        papers = ((60, 2), (10, 1))
        assert indices_of(papers, 3, c_star=50)["t_thresholded"] == pytest.approx(10.0)

    def test_zero_threshold_equals_t_exactly(self):
        values = indices_of(((60, 2), (10, 1)), years=3)
        assert values["t_thresholded"] == values["t"]

    def test_threshold_above_all_citations(self):
        assert indices_of(((60, 2),), 3, c_star=61)["t_thresholded"] == 0.0

    def test_negative_threshold_is_rejected(self):
        message = r"^c_star must be a non-negative integer, got -1$"
        with pytest.raises(ValueError, match=message):
            indices_of(((1, 1),), c_star=-1)
        with pytest.raises(ValueError, match=message):
            index_table([], c_star=-1)

    def test_bool_threshold_is_rejected(self):
        message = r"^c_star must be a non-negative integer, got False$"
        with pytest.raises(ValueError, match=message):
            indices_of(((1, 1),), c_star=False)
        with pytest.raises(ValueError, match=message):
            index_table([], c_star=False)

    @given(paper_lists, st.integers(min_value=1, max_value=40))
    def test_non_increasing_in_threshold(self, papers, years):
        values = [indices_of(papers, years, c_star=c)["t_thresholded"] for c in range(0, 22)]
        assert all(earlier >= later for earlier, later in zip(values, values[1:]))


class TestZeroCitedPaperNeutrality:
    @given(paper_lists, st.integers(min_value=1, max_value=40))
    def test_uncited_paper_changes_nothing_but_g(self, papers, years):
        extended = indices_of(list(papers) + [(0, 1)], years)
        values = indices_of(papers, years)
        assert extended["h"] == values["h"]
        assert extended["g"] >= values["g"]
        for name in ("a", "r", "si", "t"):
            assert extended[name] == pytest.approx(values[name])


class TestIndexMapping:
    """The index values compute_indices returns, by name."""

    def test_compute_indices_covers_every_name(self):
        profile = profile_of(((10, 2), (8, 2)), years=2)
        values = compute_indices(profile, c_star=9, penalty=PenaltyParams(a=1.0, b=1))
        assert tuple(values) == INDEX_NAMES
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


def oracle_indices(profile, c_star, penalty):
    """Every index of one profile by the per-profile formulas index_table replaced."""
    citations, authors = profile.citations, profile.authors
    ranked = sorted(citations, reverse=True)
    h = 0
    for position, count in enumerate(ranked, start=1):
        if count < position:
            break
        h = position
    g = 0
    total = 0
    for position, count in enumerate(ranked, start=1):
        total += count
        if total < position * position:
            break
        g = position
    # sorted() stays stable with reverse=True, so ties keep their input order
    core = sorted(range(len(citations)), key=citations.__getitem__, reverse=True)[:h]
    # sum() adds floats one at a time up to Python 3.11 and compensates from
    # 3.12 on; reduce keeps the one-at-a-time order on every version
    si = reduce(add, map(truediv, citations, authors), 0.0)
    penalized = (
        cited / (1.0 + penalty.a * (count - penalty.b)) if count > penalty.b else cited
        for cited, count in zip(citations, authors)
    )
    kept = [cited >= c_star for cited in citations]
    kept_si = reduce(add, map(truediv, compress(citations, kept), compress(authors, kept)), 0.0)
    return {
        "h": h,
        "g": g,
        "a": sum(ranked[:h]) / h if h else 0.0,
        "r": math.sqrt(sum(ranked[:h])),
        "individual_h": h / (sum(map(authors.__getitem__, core)) / h) if h else 0.0,
        "si": si,
        "si_penalized": reduce(add, penalized, 0.0),
        "t": si / profile.career_years,
        "t_thresholded": kept_si / profile.career_years,
    }


# small counts tie often and hold uncited papers; large ones pass 2**53, where
# float64 stops holding every integer, while 8 papers still total below 2**63
cited_counts = st.one_of(st.integers(0, 20), st.integers(0, 2**59))
author_counts = st.one_of(st.integers(1, 8), st.integers(1, 2**59))


@st.composite
def profile_lists(draw):
    profiles = []
    for number in range(draw(st.integers(0, 8))):
        papers = draw(st.integers(0, 8))
        profiles.append(
            ResearcherProfile(
                id=f"p{number}",
                career_years=draw(st.one_of(st.integers(1, 40), st.integers(1, 2**64))),
                citations=draw(st.lists(cited_counts, min_size=papers, max_size=papers)),
                authors=draw(st.lists(author_counts, min_size=papers, max_size=papers)),
            )
        )
    return profiles


class TestIndexTable:
    """index_table against the per-profile oracle, value for value under repr."""

    @given(
        profile_lists(),
        st.integers(1, 12),
        st.one_of(st.integers(0, 25), st.integers(0, 2**70)),
        st.builds(
            PenaltyParams,
            a=st.one_of(st.floats(0.0, 5.0), st.floats(min_value=0.0)),
            b=st.one_of(st.integers(1, 10), st.integers(1, 2**70)),
        ),
    )
    def test_matches_the_oracle_across_chunks(self, profiles, chunk_papers, c_star, penalty):
        # chunks of at most 1 to 12 papers: profiles of up to 8 papers spread over
        # several chunks, and some are larger than a chunk on their own
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(indices, "_CHUNK_PAPERS", chunk_papers)
            table = index_table(profiles, c_star=c_star, penalty=penalty)
        assert tuple(table) == INDEX_NAMES
        expected = [oracle_indices(profile, c_star, penalty) for profile in profiles]
        for name, column in table.items():
            assert list(map(repr, column)) == [repr(values[name]) for values in expected]

    def test_mixed_paper_counts_in_one_chunk_match_the_oracle(self, monkeypatch):
        rng = np.random.default_rng(8)

        def profiles_of(counts):
            return [
                ResearcherProfile(
                    id=f"p{number}",
                    career_years=3,
                    citations=rng.integers(0, 1000, size=count).tolist(),
                    authors=rng.integers(1, 30, size=count).tolist(),
                )
                for number, count in enumerate(counts)
            ]

        short = [0, 1, 2, 3, 5, 8, 13, 31, 32, 33, 40, 64, 65, 7, 0, 1]
        spread = profiles_of(short + [1_000, 5_000, 20_000, 2])
        assert len(spread[-2].citations) > indices._CHUNK_PAPERS
        for profile in spread[-4:-1]:
            shares = np.divide(profile.citations, profile.authors)
            # numpy's pairwise sum rounds each long researcher's shares
            # otherwise, so only a sum that adds paper after paper matches
            assert float(np.sum(shares)) != reduce(add, shares.tolist(), 0.0)
        chunks = []
        chunk_table = indices._chunk_table

        def recorded(papers, *options):
            chunks.append(papers.sizes.tolist())
            return chunk_table(papers, *options)

        monkeypatch.setattr(indices, "_chunk_table", recorded)
        penalty = PenaltyParams(a=0.3, b=3)
        # the longest researcher fills a chunk alone; in the second case the
        # first chunk holds only paper-less researchers, and so no paper at all
        for profiles, chunk_papers, chunk in [
            (spread, indices._CHUNK_PAPERS, [20_000]),
            (profiles_of([0, 0, 0, 4, 9]), 3, [0, 0, 0]),
        ]:
            chunks.clear()
            monkeypatch.setattr(indices, "_CHUNK_PAPERS", chunk_papers)
            table = index_table(profiles, c_star=100, penalty=penalty)
            assert chunk in chunks
            for position, profile in enumerate(profiles):
                expected = oracle_indices(profile, 100, penalty)
                assert {name: repr(table[name][position]) for name in INDEX_NAMES} == {
                    name: repr(value) for name, value in expected.items()
                }

    def test_paper_columns_give_the_profile_table(self, monkeypatch):
        monkeypatch.setattr(indices, "_CHUNK_PAPERS", 3)
        profiles = "a,3\nb,4\nc,2\nd,7\n"
        papers = "a,10,2\nb,3,1\na,4,3\nd,0,1\na,7,1\nd,25,5\nd,1,2\nd,9,1\n"
        options = {"c_star": 4, "penalty": PenaltyParams(a=0.5, b=1)}
        table = index_table(parse_paper_columns(papers, profiles), **options)
        assert table == index_table(parse_profiles(profiles, papers), **options)
        # without career years the t columns are left out
        alone = index_table(parse_paper_columns(papers), **options)
        assert alone == {name: table[name][:2] + table[name][3:] for name in INDEX_NAMES[:7]}

    def test_a_chunk_total_beyond_64_bits_is_not_a_researcher_total(self, monkeypatch):
        # the chunk's citations total 2**64 - 2, but each researcher's fits in int64
        monkeypatch.setattr(indices, "_CHUNK_PAPERS", 2)
        largest = 2**63 - 1
        profiles = [
            ResearcherProfile(id=label, career_years=3, citations=[largest], authors=[largest])
            for label in ("x", "y")
        ]
        table = index_table(profiles, c_star=2**62, penalty=PenaltyParams(a=0.5, b=2))
        for position, profile in enumerate(profiles):
            expected = oracle_indices(profile, 2**62, PenaltyParams(a=0.5, b=2))
            assert {name: repr(table[name][position]) for name in INDEX_NAMES} == {
                name: repr(value) for name, value in expected.items()
            }

    def test_impact_sums_add_one_paper_at_a_time(self):
        citations = [4, 18, 27, 25, 24, 2, 8, 3, 15]
        authors = [7, 4, 4, 6, 4, 7, 2, 1, 4]
        profile = ResearcherProfile(id="X", career_years=1, citations=citations, authors=authors)
        shares = list(map(truediv, citations, authors))
        # numpy's pairwise sum and the exact sum both round these nine shares differently
        assert float(np.sum(shares)) == math.fsum(shares) == 33.023809523809526
        table = index_table([profile])
        assert (table["si"], table["t"], table["t_thresholded"]) == ((33.02380952380952,),) * 3

    def test_counts_beyond_2_53_are_divided_as_ints(self):
        cited = 2**59 - 9
        profile = ResearcherProfile(id="X", career_years=1, citations=[cited], authors=[5])
        # float64 rounds the count to 2**59 - 8 first, which moves the quotient by one ulp
        assert float(np.float64(cited) / 5) != cited / 5
        assert index_table([profile])["si"] == (cited / 5,)

    def test_no_profiles_give_empty_columns(self):
        assert index_table([]) == {name: () for name in INDEX_NAMES}

    @pytest.mark.parametrize(
        "citations, authors, column, total",
        [
            ([2**62, 2**62], [1, 1], "citations", 2**63),
            ([1, 1], [2**62, 2**62 + 5], "authors", 2**63 + 5),
        ],
        ids=["citation-total", "author-total"],
    )
    def test_totals_beyond_64_bits_name_the_researcher(self, citations, authors, column, total):
        profiles = [
            ResearcherProfile(id="ok", career_years=1, citations=[3], authors=[1]),
            ResearcherProfile(id="big", career_years=1, citations=citations, authors=authors),
        ]
        with pytest.raises(CorpusError) as caught:
            index_table(profiles)
        assert str(caught.value) == (
            f"researcher 'big': {column} must total at most 9223372036854775807, got {total}"
        )

    def test_the_first_researcher_in_order_with_a_total_beyond_64_bits_is_named(self):
        # p's authors fail before q's citations, whichever column is checked first
        largest = 2**63 - 1
        profiles = [
            ResearcherProfile(id="p", career_years=1, citations=[1, 1], authors=[largest, 1]),
            ResearcherProfile(id="q", career_years=1, citations=[largest, 1], authors=[1, 1]),
        ]
        for call in (index_table, build_report):
            with pytest.raises(CorpusError) as caught:
                call(profiles)
            assert str(caught.value) == (
                f"researcher 'p': authors must total at most {largest}, got {2**63}"
            )

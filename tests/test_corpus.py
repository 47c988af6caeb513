"""Parsing, validation, aggregation, and round-trip behavior of the corpus module."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citedea import (
    CorpusError,
    DmuAggregate,
    PaperRecord,
    ResearcherProfile,
    aggregate,
    parse_aggregates,
    parse_h_values,
    parse_paper_columns,
    parse_papers,
    parse_profiles,
)

from citedea import corpus
from conftest import DATA


def paper_lists():
    return st.lists(
        st.builds(
            PaperRecord,
            citations=st.integers(min_value=0, max_value=500),
            authors=st.integers(min_value=1, max_value=12),
        ),
        min_size=1,
        max_size=12,
    )


def profile_of(id, years, papers):
    return ResearcherProfile(
        id, years, [paper.citations for paper in papers], [paper.authors for paper in papers]
    )


class TestTypes:
    def test_paper_record_rejects_negative_citations(self):
        with pytest.raises(ValueError, match="citations"):
            PaperRecord(citations=-1, authors=1)

    def test_paper_record_rejects_zero_authors(self):
        with pytest.raises(ValueError, match="authors"):
            PaperRecord(citations=3, authors=0)

    def test_paper_record_rejects_non_integer_fields(self):
        with pytest.raises(ValueError):
            PaperRecord(citations=1.5, authors=2)

    def test_profile_rejects_empty_id(self):
        with pytest.raises(ValueError, match="id"):
            ResearcherProfile(id="", career_years=1)

    def test_profile_rejects_zero_career_years(self):
        with pytest.raises(ValueError, match="career_years"):
            ResearcherProfile(id="X", career_years=0)

    def test_profile_papers_become_a_tuple(self):
        profile = ResearcherProfile(id="X", career_years=2, citations=[1], authors=[1])
        assert isinstance(profile.papers, tuple)

    def test_profile_keeps_its_papers_as_count_tuples(self):
        papers = [PaperRecord(12, 3), PaperRecord(0, 1)]
        profile = ResearcherProfile(
            id="X", career_years=2, citations=iter([12, 0]), authors=[3, 1]
        )
        assert (profile.citations, profile.authors) == ((12, 0), (3, 1))
        assert profile.papers == tuple(papers)
        assert parse_profiles("X,2", "X,12,3\nX,0,1") == [profile]

    def test_replace_builds_a_checked_profile(self):
        profile = ResearcherProfile("X", 12, (310, 95), (2, 3))
        older = dataclasses.replace(profile, career_years=13)
        assert older == ResearcherProfile("X", 13, (310, 95), (2, 3))
        assert dataclasses.asdict(older) == {
            "id": "X", "career_years": 13, "citations": (310, 95), "authors": (2, 3)
        }
        with pytest.raises(ValueError) as raised:
            dataclasses.replace(profile, citations=(310, -1))
        assert str(raised.value) == "citations must be a non-negative integer, got -1"

    def test_profile_rejects_mismatched_count_lengths(self):
        with pytest.raises(ValueError) as raised:
            ResearcherProfile("X", 1, citations=(1, 2), authors=(1,))
        assert str(raised.value) == (
            "citations and authors must hold one count per paper, got 2 and 1"
        )

    @pytest.mark.parametrize(
        "citations, authors, message",
        [
            ((4, 1.5), (1, 1), "citations must be a non-negative integer, got 1.5"),
            ((4, 2, -3), (1, 0, 1), "authors must be a positive integer, got 0"),
            ((4, 2, -3), (1, 1, 0), "citations must be a non-negative integer, got -3"),
            ((4,), ("2",), "authors must be a positive integer, got '2'"),
            ((2**63,), (1,), "citations must be at most 9223372036854775807"),
            ((1, 2), (2**63 - 1, 2**64), "authors must be at most 9223372036854775807"),
            ((True, 3), (True, 2), "citations must be a non-negative integer, got True"),
            ((4, 3), (1, True), "authors must be a positive integer, got True"),
        ],
        ids=[
            "float-citation", "zero-authors", "negative-citation", "string-authors",
            "count-beyond-64-bits", "authors-beyond-64-bits", "bool-citation",
            "bool-authors",
        ],
    )
    def test_profile_names_its_first_bad_count(self, citations, authors, message):
        with pytest.raises(ValueError) as raised:
            ResearcherProfile("X", 1, citations, authors)
        assert str(raised.value) == message
        # a paper holding the same counts is refused in the same words
        with pytest.raises(ValueError) as raised:
            for paper in zip(citations, authors):
                PaperRecord(*paper)
        assert str(raised.value) == message

    def test_paper_and_profile_accept_the_largest_64_bit_count(self):
        largest = 2**63 - 1
        assert PaperRecord(largest, largest).citations == largest
        assert ResearcherProfile("X", 1, (largest, 0), (1, largest)).authors == (1, largest)

    def test_aggregate_rejects_zero_coauthors(self):
        with pytest.raises(ValueError, match="coauthors"):
            DmuAggregate(id="X", years=1, coauthors=0, citations=5)

    def test_aggregate_rejects_negative_citations(self):
        with pytest.raises(ValueError, match="citations"):
            DmuAggregate(id="X", years=1, coauthors=1, citations=-2)

    def test_profile_rejects_bool_career_years(self):
        with pytest.raises(ValueError) as raised:
            ResearcherProfile("X", True, (3,), (2,))
        assert str(raised.value) == "career_years must be a positive integer, got True"

    def test_int_subclasses_other_than_bool_are_counts(self):
        class Count(int):
            pass

        profile = ResearcherProfile("X", Count(2), (Count(3), 4), (1, Count(2)))
        assert profile.citations == (3, 4)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((True, 1, 5), "years must be a positive integer, got True"),
            ((1, True, 5), "coauthors must be a positive integer, got True"),
            ((1, 1, False), "citations must be a non-negative integer, got False"),
        ],
        ids=["bool-years", "bool-coauthors", "bool-citations"],
    )
    def test_aggregate_rejects_bool_counts(self, fields, message):
        with pytest.raises(ValueError) as raised:
            DmuAggregate("X", *fields)
        assert str(raised.value) == message

    def test_aggregate_allows_zero_citations(self):
        assert DmuAggregate(id="X", years=1, coauthors=1, citations=0).citations == 0


class TestParseProfiles:
    def test_two_file_layout(self):
        profiles = parse_profiles("R1,5", "R1,12,3\nR1,0,1")
        assert len(profiles) == 1
        profile = profiles[0]
        assert profile.id == "R1"
        assert profile.career_years == 5
        assert [(p.citations, p.authors) for p in profile.papers] == [(12, 3), (0, 1)]

    def test_headers_and_comments_are_accepted(self):
        profiles = parse_profiles(
            "# staged\nid,career_years\nR1,5\n",
            "id,citations,authors\n# first paper\nR1,12,3\nR1,0,1\n",
        )
        assert profiles[0].career_years == 5
        assert len(profiles[0].papers) == 2

    def test_header_allows_extra_and_reordered_columns(self):
        profiles = parse_profiles(
            "id,note,career_years\nR1,keep,5\n",
            "id,authors,citations,flag\nR1,3,12,x\n",
        )
        assert profiles[0].career_years == 5
        assert profiles[0].papers[0] == PaperRecord(citations=12, authors=3)

    def test_empty_profiles_stream_reports_no_records(self):
        with pytest.raises(CorpusError, match="no records"):
            parse_profiles("", "R1,1,1")

    def test_empty_papers_stream_reports_no_records(self):
        with pytest.raises(CorpusError, match="no records"):
            parse_profiles("R1,5", "# none\n")

    def test_negative_citations_names_the_line(self):
        with pytest.raises(CorpusError, match="papers line 1"):
            parse_profiles("R1,5", "R1,-3,2")

    def test_zero_authors_names_the_line(self):
        with pytest.raises(CorpusError, match="papers line 2"):
            parse_profiles("R1,5", "R1,3,2\nR1,3,0")

    def test_wrong_column_count_names_the_line(self):
        with pytest.raises(CorpusError, match="papers line 1: expected 3 columns"):
            parse_profiles("R1,5", "R1,3")

    def test_non_integer_field_names_the_line_and_column(self):
        with pytest.raises(CorpusError, match="line 2.*career_years"):
            parse_profiles("R1,5\nR2,soon", "R1,1,1")

    def test_duplicate_researcher_id_is_rejected(self):
        with pytest.raises(CorpusError, match="duplicate researcher id 'R1'"):
            parse_profiles("R1,5\nR1,6", "R1,1,1")

    def test_unknown_researcher_in_papers_is_rejected(self):
        with pytest.raises(CorpusError, match="papers line 2: unknown researcher id"):
            parse_profiles("R1,5", "R1,1,1\nR9,2,1")

    def test_zero_paper_researchers_may_be_staged(self):
        profiles = parse_profiles("R1,5\nR2,3", "R1,1,1")
        assert profiles[1].papers == ()

    def test_physical_line_numbers_count_comments(self):
        with pytest.raises(CorpusError, match="papers line 3"):
            parse_profiles("R1,5", "# note\nR1,1,1\nR1,bad,1")


class TestParsePapers:
    def test_groups_by_first_appearance(self):
        groups = parse_papers("B,1,1\nA,2,2\nB,3,3")
        assert list(groups) == ["B", "A"]
        assert [p.citations for p in groups["B"]] == [1, 3]

    def test_empty_stream_reports_no_records(self):
        with pytest.raises(CorpusError, match="no records"):
            parse_papers((DATA / "empty.csv").read_text())

    def test_first_bad_line_in_file_order_is_reported(self):
        with pytest.raises(
            CorpusError, match="^papers line 1: non-integer value 'abc' for citations$"
        ):
            parse_papers("R1,abc,2\nR2,1,2,3")


class TestGrouping:
    INTERLEAVED = "a,1,2\nb,3,4\na,5,6\nc,9,9\nb,7,1\na,8,1\n"
    GROUPED = "a,1,2\na,5,6\na,8,1\nb,3,4\nb,7,1\nc,9,9\n"

    @pytest.mark.parametrize("chunk", [1 << 16, 8])
    def test_interleaved_rows_group_like_grouped_rows(self, chunk, monkeypatch):
        monkeypatch.setattr(corpus, "_CHUNK_CHARS", chunk)
        profiles = "c,1\na,3\nb,4\nd,2\n"
        grouped = parse_profiles(profiles, self.GROUPED)
        assert parse_profiles(profiles, self.INTERLEAVED) == grouped
        assert [(p.id, p.citations, p.authors) for p in grouped] == [
            ("c", (9,), (9,)),
            ("a", (1, 5, 8), (2, 6, 1)),
            ("b", (3, 7), (4, 1)),
            ("d", (), ()),
        ]
        assert parse_papers(self.INTERLEAVED) == parse_papers(self.GROUPED)
        assert list(parse_papers(self.INTERLEAVED)) == ["a", "b", "c"]

    def test_columns_hold_each_researcher_in_file_order(self):
        columns = parse_paper_columns(self.INTERLEAVED, "b,4\nd,2\na,3\nc,1\n")
        assert columns.ids == ["b", "d", "a", "c"]
        assert columns.years == [4, 2, 3, 1]
        assert columns.sizes.tolist() == [2, 0, 3, 1]
        assert columns.citations.tolist() == [3, 7, 1, 5, 8, 9]
        assert columns.authors.tolist() == [4, 1, 2, 6, 1, 9]
        assert parse_paper_columns(self.INTERLEAVED).years is None


class TestParseAggregates:
    def test_rows_become_aggregates(self):
        parsed = parse_aggregates("R7,39,1127,16276\nR2,7,32,193")
        assert parsed[0] == DmuAggregate(id="R7", years=39, coauthors=1127, citations=16276)
        assert parsed[1] == DmuAggregate(id="R2", years=7, coauthors=32, citations=193)

    def test_zero_coauthors_is_a_validation_error(self):
        with pytest.raises(CorpusError, match="coauthors"):
            parse_aggregates("R1,5,0,10")

    def test_duplicate_id_is_rejected(self):
        with pytest.raises(CorpusError, match="duplicate"):
            parse_aggregates("R1,5,2,10\nR1,6,2,10")

    def test_fixture_corpus_parses(self, aggregates15):
        assert len(aggregates15) == 15
        assert aggregates15[6].coauthors == 1127

    def test_header_driven_extra_columns_are_ignored(self):
        parsed = parse_aggregates(
            "id,years,coauthors,citations,efficiency\nR1,40,350,5977,0.848\n"
        )
        assert parsed[0].citations == 5977

    def test_row_width_must_match_header(self):
        with pytest.raises(CorpusError, match="expected 5 columns"):
            parse_aggregates("id,years,coauthors,citations,extra\nR1,40,350,5977\n")

    def test_leading_byte_order_mark_is_dropped(self):
        parsed = parse_aggregates("\ufeffid,years,coauthors,citations\na,1,1,5\n")
        assert parsed == [DmuAggregate(id="a", years=1, coauthors=1, citations=5)]


class TestParseHValues:
    def test_mapping(self, h_values15):
        assert h_values15["R7"] == 62
        assert len(h_values15) == 15

    def test_negative_h_is_rejected(self):
        with pytest.raises(CorpusError, match="non-negative"):
            parse_h_values("R1,-1")


@pytest.mark.parametrize(
    "parse, text, name",
    [
        (parse_papers, "a,10,2\n,5,1\n", "papers"),
        (lambda text: parse_profiles(text, "a,10,2\n"), "a,5\n,3\n", "profiles"),
        (parse_aggregates, "a,1,2,3\n,4,5,6\n", "aggregates"),
        (parse_h_values, "a,3\n,4\n", "h-values"),
    ],
    ids=["papers", "profiles", "aggregates", "h-values"],
)
def test_every_parser_rejects_a_blank_id(parse, text, name):
    with pytest.raises(CorpusError) as raised:
        parse(text)
    assert str(raised.value) == f"{name} line 2: id must be a non-empty string, got ''"


@pytest.mark.parametrize(
    "parse, text, name, column",
    [
        (parse_papers, f"a,10,2\nb,{2**63},1\n", "papers", "citations"),
        (lambda text: parse_profiles(text, "a,10,2\n"), f"a,5\nb,{2**63}\n", "profiles",
         "career_years"),
        (parse_aggregates, f"a,1,2,3\nb,4,{2**63},6\n", "aggregates", "coauthors"),
        (parse_h_values, f"a,3\nb,{10**400}\n", "h-values", "h"),
    ],
    ids=["papers", "profiles", "aggregates", "h-values"],
)
def test_every_parser_rejects_a_count_beyond_64_bits(parse, text, name, column):
    with pytest.raises(CorpusError) as raised:
        parse(text)
    assert str(raised.value) == f"{name} line 2: {column} must be at most 9223372036854775807"


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_papers, "a,10,2\nb,-1,1\n",
         "papers line 2: citations must be a non-negative integer, got -1"),
        (parse_papers, "a,10,2\nb,1,0\n",
         "papers line 2: authors must be a positive integer, got 0"),
        (lambda text: parse_profiles(text, "a,10,2\n"), "a,5\nb,0\n",
         "profiles line 2: career_years must be a positive integer, got 0"),
        (parse_aggregates, "a,1,2,3\nb,0,5,6\n",
         "aggregates line 2: years must be a positive integer, got 0"),
        (parse_h_values, "a,3\nb,-1\n",
         "h-values line 2: h must be a non-negative integer, got -1"),
    ],
    ids=["papers-citations", "papers-authors", "profiles", "aggregates", "h-values"],
)
def test_every_parser_rejects_a_count_below_its_bound(parse, text, message):
    with pytest.raises(CorpusError) as raised:
        parse(text)
    assert str(raised.value) == message


def test_the_largest_64_bit_count_is_accepted():
    assert parse_papers(f"a,{2**63 - 1},1\n")["a"] == (PaperRecord(2**63 - 1, 1),)


class TestAggregate:
    def test_sums_papers(self):
        profile = ResearcherProfile(id="X", career_years=4, citations=(10, 5), authors=(2, 3))
        assert aggregate(profile) == DmuAggregate(
            id="X", years=4, coauthors=5, citations=15
        )

    def test_zero_citation_corpus(self):
        profile = ResearcherProfile(id="X", career_years=1, citations=(0,), authors=(1,))
        assert aggregate(profile) == DmuAggregate(id="X", years=1, coauthors=1, citations=0)

    def test_totals_that_wrap_across_researchers_stay_exact(self):
        largest = 2**63 - 1
        profiles = "x,2\ny,2\nz,1\n"
        papers = f"x,{largest},{largest}\ny,{largest},{largest}\nz,{largest - 1},1\nz,1,2\n"
        assert parse_paper_columns(papers, profiles).aggregates() == [
            DmuAggregate("x", 2, largest, largest),
            DmuAggregate("y", 2, largest, largest),
            DmuAggregate("z", 1, 3, largest),
        ]
        # a researcher with no papers totals 0, wherever it stands
        columns = parse_paper_columns(papers, "e,1\nx,2\nf,1\ny,2\nz,1\ng,1\n")
        citations, authors = columns.totals()
        assert citations.tolist() == [0, largest, 0, largest, largest, 0]
        assert authors.tolist() == [0, largest, 0, largest, 3, 0]

    def test_zero_papers_is_an_error(self):
        with pytest.raises(CorpusError, match="no papers"):
            aggregate(ResearcherProfile(id="X", career_years=1))

    @given(papers=paper_lists(), years=st.integers(min_value=1, max_value=60))
    def test_permutation_invariance(self, papers, years):
        forward = aggregate(profile_of("X", years, papers))
        backward = aggregate(profile_of("X", years, list(reversed(papers))))
        assert forward == backward


class TestRoundTrip:
    @given(
        corpus=st.lists(
            st.tuples(st.integers(min_value=1, max_value=50), paper_lists()),
            min_size=1,
            max_size=6,
        )
    )
    def test_profiles_round_trip(self, corpus):
        profiles = [
            profile_of(f"P{index}", years, papers)
            for index, (years, papers) in enumerate(corpus)
        ]
        profiles_text = "id,career_years\n" + "".join(
            f"{profile.id},{profile.career_years}\n" for profile in profiles
        )
        papers_text = "id,citations,authors\n" + "".join(
            f"{profile.id},{record.citations},{record.authors}\n"
            for profile in profiles
            for record in profile.papers
        )
        assert parse_profiles(profiles_text, papers_text) == profiles

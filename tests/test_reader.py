"""The chunked column-at-a-time CSV reader gives what the per-line loop gives.

``corpus._records`` reads plain chunks column by column and hands every
other chunk to ``corpus._Reader.by_line``.  These tests run the per-line
loop on its own, directly, and check that both give the same rows or the
same first error.
"""

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citedea import CorpusError, corpus, parse_papers, parse_profiles

PAPER_BOUNDS = {"citations": 0, "authors": 1}


def chunked(text, bounds=PAPER_BOUNDS, name="papers", unique=False):
    """(rows, first error) from the chunked reader."""
    rows = []
    try:
        for numbers, ids, counts in corpus._records(text, bounds, name, unique=unique):
            rows += zip(numbers, ids, *counts)
    except CorpusError as error:
        return rows, str(error)
    return rows, None


def lines_of(text):
    """The physical lines of ``text``: only \\n, \\r\\n and \\r end one."""
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    return text.removesuffix("\n").split("\n")


def by_line(text, bounds=PAPER_BOUNDS, name="papers", unique=False):
    """(rows, first error) from the per-line loop alone over the whole text."""
    reader = corpus._Reader(bounds, name, unique)
    rows = []
    try:
        for numbers, ids, counts in reader.by_line(lines_of(text), 1):
            rows += zip(numbers, ids, *counts)
        if not reader.rows:
            raise CorpusError(f"{name}: no records")
    except CorpusError as error:
        return rows, str(error)
    return rows, None


def without_fast_path():
    """Every chunk goes to the per-line loop."""
    return mock.patch.object(corpus._Reader, "at_once", lambda self, lines, number: None)


def parsed(parse, *texts):
    try:
        return parse(*texts)
    except CorpusError as error:
        return str(error)


# valid rows that fill a plain first chunk and spill into a second one
GOOD = "id,citations,authors\n" + "".join(
    f"r{index % 997:03d},{index % 89},{1 + index % 7}\n" for index in range(56_000)
)
assert len(GOOD) > corpus._CHUNK_CHARS
GOOD_PROFILES = "".join(f"r{index:03d},{1 + index % 30}\n" for index in range(997))

EXPLICIT = {
    "bom": "\ufeffid,citations,authors\na,1,2\n",
    "crlf": "id,citations,authors\r\na,1,2\r\nb,3,4\r\n",
    "cr": "id,citations,authors\ra,1,2\rb,3,4\r",
    "form-feed-inside-a-line": "a,5,1\x0cb,3,4\n",
    "line-separator-inside-a-line": "a,5,1\u2028b,3,4\n",
    "vertical-tab-around-cells": "\x0ba,\x1c5,1\x1d\n\x1eb,3,4\x0c\n",
    "comments-and-blank-lines": "# head\n\nid,citations,authors\n# mid\na,1,2\n\n",
    "whitespace": "id , citations,authors\n a ,1 , 2\n\tb,3,4\t\n",
    "reordered-extra-columns": "id,extra,authors,citations\na,x,2,1\nb,,4,3\n",
    "no-header": "a,1,2\nb,3,4\n",
    "leading-zeros": "a,007,0001\n",
    "plus-sign": "a,+5,2\n",
    "underscore": "a,1_000,2\n",
    "arabic-indic-digit": "a,٣,2\n",
    "negative-count": "a,1,2\nb,-4,2\n",
    "zero-authors": "a,1,2\nb,4,0\n",
    "unknown-id": "a,1,2\nzz,4,1\n",
    "largest-count": f"a,{2**63 - 1},1\n",
    "count-beyond-64-bits": f"a,1,1\nb,{2**63},1\n",
    "wide-row": "a,1,2\nb,3,4,5\n",
    "empty-cell": "a,,2\n",
    "empty-id": "a,1,2\n,3,4\n",
    "header-missing-a-column": "id,citations\na,1\n",
    "no-records": "# nothing\n\n",
    "bad-line-past-a-chunk-boundary": GOOD + "r001,x,1\n",
    "zero-authors-past-a-chunk-boundary": GOOD + "r001,5,0\n",
    "unknown-id-past-a-chunk-boundary": GOOD + "zz,5,1\n",
    "comment-past-a-chunk-boundary": GOOD + "# late\nr001, 5 ,1\n",
}


@pytest.mark.parametrize("text", EXPLICIT.values(), ids=EXPLICIT.keys())
def test_reader_matches_the_per_line_loop(text):
    assert chunked(text) == by_line(text)


@pytest.mark.parametrize("text", EXPLICIT.values(), ids=EXPLICIT.keys())
def test_parsers_match_the_per_line_loop(text):
    profiles = "a,3\nb,5\n" + GOOD_PROFILES
    fast = parsed(parse_profiles, profiles, text), parsed(parse_papers, text)
    with without_fast_path():
        slow = parsed(parse_profiles, profiles, text), parsed(parse_papers, text)
    assert fast == slow


@pytest.mark.parametrize(
    "profiles",
    [
        GOOD_PROFILES + "r005,3\n",
        "".join(f"p{index:06d},3\n" for index in range(60_000)) + "p000005,3\n",
        GOOD_PROFILES + "r999,0\n",
        "id,career_years\n" + GOOD_PROFILES,
    ],
    ids=["duplicate-id", "duplicate-id-past-a-chunk-boundary", "zero-years", "header"],
)
def test_profiles_match_the_per_line_loop(profiles):
    bounds = {"career_years": 1}
    assert chunked(profiles, bounds, "profiles", True) == by_line(
        profiles, bounds, "profiles", True
    )
    fast = parsed(parse_profiles, profiles, GOOD)
    with without_fast_path():
        assert parsed(parse_profiles, profiles, GOOD) == fast


def test_plain_chunks_skip_the_per_line_loop():
    text = "".join(f"r{index},{index},1\n" for index in range(100_000))
    with mock.patch.object(
        corpus._Reader, "by_line", autospec=True, side_effect=corpus._Reader.by_line
    ) as loop:
        rows, error = chunked(text)
    assert error is None and len(rows) == 100_000
    # only the first line, which settles the column layout, is read line by line
    assert [call.args[1:] for call in loop.call_args_list] == [(["r0,0,1"], 1)]


CELLS = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(str),
    st.sampled_from(
        ["0", "007", "+5", "1_000", "٣", "-4", "", "x", " 12 ", "9" * 19,
         str(2**63 - 1), str(2**63), "1 #", "\x0b3", "4\x0c", "\x1c5\x1d", "6\x1e",
         "7\x0c8"]
    ),
)
IDS = st.sampled_from(
    ["a", "b", "c", "d", "", " a ", "é", "#a", "\x0ba", "a\x0c", "\x1cb\x1e", "c\x1d"]
)
HEADERS = st.sampled_from(
    [None, "id,citations,authors", "id,authors,citations,extra", "ID, Citations ,authors",
     "id,citations"]
)


@st.composite
def csv_texts(draw):
    header = draw(HEADERS)
    width = 3 if header is None else len(header.split(","))
    rows = st.tuples(IDS, st.lists(CELLS, min_size=width - 1, max_size=width - 1)).map(
        lambda row: ",".join([row[0], *row[1]])
    )
    other = st.sampled_from(["", "# note", "   ", "a,1", "a,1,2,3,4", "a,1,2\x0cb,3,4", "\x1e"])
    lines = draw(st.lists(st.one_of(rows, rows, rows, other), max_size=30))
    if header is not None:
        lines.insert(draw(st.integers(min_value=0, max_value=min(2, len(lines)))), header)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + ending.join(lines) + draw(st.sampled_from(["", ending]))


@given(text=csv_texts(), unique=st.booleans(), chunk=st.integers(min_value=1, max_value=40))
def test_random_texts_match_the_per_line_loop(text, unique, chunk):
    with mock.patch.object(corpus, "_CHUNK_CHARS", chunk):
        assert chunked(text, unique=unique) == by_line(text, unique=unique)

"""The chunked column-at-a-time CSV reader gives what the per-line loop gives.

``corpus._records`` reads plain chunks column by column and hands every
other chunk to ``corpus._Reader.by_line``.  These tests run the per-line
loop on its own, directly, and check that both give the same rows or the
same first error.
"""

import json
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citedea import (
    CorpusError,
    corpus,
    parse_aggregates,
    parse_h_values,
    parse_paper_columns,
    parse_papers,
    parse_profiles,
)

PAPER_BOUNDS = {"citations": 0, "authors": 1}


def gather(blocks, runs):
    """Append each block's runs to ``runs`` as [first line, id, rows], joining a run
    that goes on past the end of a block."""
    for numbers, ids, lengths, counts in blocks:
        assert sum(lengths.tolist()) == len(counts[0])
        rows = zip(*(column.tolist() for column in counts))
        for number, researcher, length in zip(numbers, ids, lengths.tolist()):
            taken = list(islice(rows, length))
            if runs and runs[-1][1] == researcher:
                runs[-1][2] += taken
            else:
                runs.append([number, researcher, taken])


def chunked(text, bounds=PAPER_BOUNDS, name="papers", unique=False):
    """(runs, first error) from the chunked reader."""
    runs = []
    try:
        gather(corpus._records(text, bounds, name, unique=unique), runs)
    except CorpusError as error:
        return runs, str(error)
    return runs, None


def lines_of(text):
    """The physical lines of ``text``: only \\n, \\r\\n and \\r end one."""
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    return text.removesuffix("\n").split("\n")


def by_line(text, bounds=PAPER_BOUNDS, name="papers", unique=False):
    """(runs, first error) from the per-line loop alone over the whole text."""
    reader = corpus._Reader(bounds, name, unique)
    runs = []
    try:
        gather(reader.by_line(lines_of(text), 1), runs)
        if not reader.rows:
            raise CorpusError(f"{name}: no records; add {','.join(reader.columns)} rows")
    except CorpusError as error:
        return runs, str(error)
    return runs, None


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
    "non-ascii-ids": "é,1,2\né,3,4\nré1,5,6\nrésumé,7,8\nrésumé,9,1\n",
    "arabic-indic-digit-in-authors": "a,1,2\nb,3,٣\n",
    "nineteen-nines": f"a,1,2\nb,{'9' * 19},1\n",
    "largest-count-in-authors": f"a,1,{2**63 - 1}\n",
    "count-beyond-64-bits-in-authors": f"a,1,1\nb,1,{2**63}\n",
    "zero-padded-to-20-characters": f"a,{'0' * 19}7,1\nb,1,{'0' * 19}1\n",
    "ids-of-8-bytes": "abcdefgh,1,2\nabcdefgh,3,4\nabcdefgi,5,6\nbbcdefgh,7,8\nrésumé,9,1\n",
    "ids-of-9-bytes-and-more": "abcdefghi,1,2\nabcdefghi,3,4\nbbcdefghi,5,6\nabcdefghij,7,8\n"
    + "x" * 40 + ",1,1\n" + "x" * 40 + ",2,2\ny" + "x" * 39 + ",3,3\n" + "x" * 39 + "y,4,4\n",
    "lone-surrogate-id": "a,1,2\n\udc80,3,4\n",
    "comment-of-full-width": "a,1,2\n#b,3,4\nc,5,6\n",
    "wide-then-narrow-row": "a,1,2\nb,3,4,5\n6,7\n",
    "run-past-a-chunk-boundary": "id,citations,authors\n" + "r001,5,1\n" * 8000 + "r002,1,1\n",
    **{
        f"{kind}-{name}": text.format(space)
        for name, space in {
            "no-break-space": "\u00a0",
            "line-separator": "\u2028",
            "next-line": "\u0085",
            "ideographic-space": "\u3000",
        }.items()
        for kind, text in {
            "before-an-id": "a,1,2\n{}b,3,4\n",
            "after-an-id": "a,1,2\nb{},3,4\n",
            "inside-an-id": "a{0}b,1,2\na{0}b,3,4\nb,5,6\n",
            "around-counts": "a,1,2\nb,{0}3,4{0}\n",
            "inside-a-count": "a,1,2\nb,3{}4,5\n",
        }.items()
    },
}
PROFILES = "a,3\nb,5\né,4\nrésumé,6\nabcdefgh,2\nabcdefghi,2\n" + GOOD_PROFILES


def columns_of(papers, profiles=None):
    """Every field of parse_paper_columns' result, as plain values."""
    read = parse_paper_columns(papers, profiles)
    arrays = read.sizes, read.citations, read.authors
    return read.ids, [(column.dtype.str, column.tolist()) for column in arrays], read.years


@pytest.mark.parametrize("text", EXPLICIT.values(), ids=EXPLICIT.keys())
def test_reader_matches_the_per_line_loop(text):
    assert chunked(text) == by_line(text)


@pytest.mark.parametrize("text", EXPLICIT.values(), ids=EXPLICIT.keys())
def test_parsers_match_the_per_line_loop(text):
    def every_parse():
        return [
            parsed(parse_profiles, PROFILES, text),
            parsed(parse_papers, text),
            parsed(columns_of, text, PROFILES),
            parsed(columns_of, text),
        ]

    fast = every_parse()
    with without_fast_path():
        assert every_parse() == fast


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


# every file layout: its integer columns with their bounds, its name, and
# whether an id may repeat
LAYOUTS = {
    "papers": (PAPER_BOUNDS, "papers", False),
    "profiles": ({"career_years": 1}, "profiles", True),
    "aggregates": ({"years": 1, "coauthors": 1, "citations": 0}, "aggregates", True),
    "h-values": ({"h": 0}, "h-values", True),
}
# cells int() reads, then counts one past either end of int64 and past 19 digits
INT64_CELLS = [
    "007", "+5", "1_0", "-0", "٣", "\u00a05", "5\u3000", str(2**63 - 1), str(2**63),
    str(-(2**63) - 1), "9" * 19, "0" * 19 + "7",
]


@pytest.mark.parametrize("cell", INT64_CELLS)
@pytest.mark.parametrize(
    "layout, column",
    [(layout, column) for layout, (bounds, _, _) in LAYOUTS.items() for column in bounds],
)
def test_integer_cells_read_alike_column_by_column_and_line_by_line(layout, column, cell):
    bounds, name, unique = LAYOUTS[layout]
    rows = [[f"r{index}", *("2" for _ in bounds)] for index in range(3)]
    rows[1][1 + list(bounds).index(column)] = cell
    lines = [",".join(row) for row in rows]
    text = "\n".join(lines) + "\n"
    assert chunked(text, bounds, name, unique) == by_line(text, bounds, name, unique)
    # only 1 to 19 ASCII digits, at or above the column's bound and at most
    # 2**63-1, stay on the column path; "+5", "1_0" and "-0" go line by line
    block = corpus._Reader(bounds, name, unique).at_once(text, 1)
    digits = cell.isascii() and cell.isdigit() and len(cell) <= 19
    assert (block is None) == (not (digits and bounds[column] <= int(cell) <= 2**63 - 1))


@pytest.mark.parametrize("prefix", ["", "# read line by line\n"], ids=["columns", "lines"])
def test_parsers_return_python_ints(prefix):
    values = [
        value
        for item in parse_aggregates(prefix + "a,1,2,3\n")
        for value in (item.years, item.coauthors, item.citations)
    ]
    values += parse_h_values(prefix + "a,4\n").values()
    for profile in parse_profiles(prefix + "a,5\n", prefix + "a,6,7\na,8,9\n"):
        values += [profile.career_years, *profile.citations, *profile.authors]
    for papers in parse_papers(prefix + "a,6,7\n").values():
        values += [value for paper in papers for value in paper]
    assert {type(value) for value in values} == {int}
    json.dumps(values)  # np.int64 is not JSON serializable


CELLS = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(str),
    st.sampled_from(
        ["0", "007", "+5", "1_000", "٣", "-4", "", "x", " 12 ", "9" * 19,
         str(2**63 - 1), str(2**63), "1 #", "\x0b3", "4\x0c", "\x1c5\x1d", "6\x1e",
         "7\x0c8", "٣3", "\u00a07", "8\u2028", "\x859", "1\u30002", "0" * 19 + "1",
         str(2**63 - 1).zfill(20)]
    ),
)
IDS = st.sampled_from(
    ["a", "b", "c", "d", "", " a ", "é", "#a", "\x0ba", "a\x0c", "\x1cb\x1e", "c\x1d",
     "ré", "résumé", "abcdefgh", "abcdefghi", "bbcdefghi", "\u00a0a", "a\u2028", "\x85b",
     "c\u3000", "a\u00a0b", "\udc80"]
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


def test_a_run_that_crosses_chunk_boundaries_reads_as_one_researcher():
    text = "id,citations,authors\n" + "".join(f"résumé,{index},1\n" for index in range(50))
    text += "b,1,1\n"
    with mock.patch.object(corpus, "_CHUNK_CHARS", 64):
        blocks = list(corpus._records(text, PAPER_BOUNDS, "papers", unique=False))
        assert chunked(text) == by_line(text)
        fast = columns_of(text)
        with without_fast_path():
            assert columns_of(text) == fast
    assert len(blocks) > 3
    ids, ((_, sizes), *_), _ = fast
    assert (ids, sizes) == (["résumé", "b"], [50, 1])


@given(text=csv_texts(), unique=st.booleans(), chunk=st.integers(min_value=1, max_value=40))
def test_random_texts_match_the_per_line_loop(text, unique, chunk):
    with mock.patch.object(corpus, "_CHUNK_CHARS", chunk):
        assert chunked(text, unique=unique) == by_line(text, unique=unique)

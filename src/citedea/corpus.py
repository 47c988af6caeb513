"""Data model, CSV ingestion, and aggregation for researcher publication data.

Only ``\\n``, ``\\r\\n`` and ``\\r`` end a line.  The CSV reader cuts a file
into chunks of about 64 KiB, split at newlines, and reads a plain chunk
column by column: one split into lines, one split into cells, a width check
by comma count and one ``map(int, ...)``, ``max`` and ``min`` per integer
column.  A chunk holding anything else (non-ASCII text, comments, blank
lines, whitespace, a bad cell, a count out of range, an empty or repeated
id) is re-read by the per-line loop ``_Reader.by_line``.  That loop is the
only source of error text, so the first bad line in file order is the one
reported.  A count below its bound is reported as ``<column> must be a
positive integer, got <value>`` (or ``non-negative``), by the reader and by
the constructors of the public types alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, repeat
from typing import Iterator, Sequence

_MAX_COUNT = 2**63 - 1  # the largest count any cell may hold
# parse time is flat from 16 KiB to 512 KiB chunks; larger ones only raise peak memory
_CHUNK_CHARS = 1 << 16
# ASCII whitespace that str.strip() removes from a cell, and the comment mark;
# a chunk holding any of them is read line by line
_NOT_PLAIN = " \t\x0b\x0c\x1c\x1d\x1e\x1f#"

# line numbers, ids, then one integer column per bounded column
_Block = tuple[Sequence[int], list[str], list[Sequence[int]]]


class CorpusError(ValueError):
    """Raised for malformed input data or a violated corpus invariant."""


def _check_id(value: object) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"id must be a non-empty string, got {value!r}")


def _check_count(name: str, value: object, low: int) -> None:
    """Raise ValueError unless ``value`` is an int of at least ``low`` (0 or 1)."""
    if not isinstance(value, int) or value < low:
        kind = "positive" if low else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


@dataclass(frozen=True)
class PaperRecord:
    """One publication: its citation count and its number of authors."""

    citations: int
    authors: int

    def __post_init__(self) -> None:
        _check_count("citations", self.citations, 0)
        _check_count("authors", self.authors, 1)


@dataclass(frozen=True)
class ResearcherProfile:
    """A researcher's id, career length in years, and publication list.

    ``citations`` and ``authors`` hold one count per paper, in publication
    order, and are stored as tuples; ``papers`` builds the same list as
    PaperRecord items on each access.
    """

    id: str
    career_years: int
    citations: tuple[int, ...] = ()
    authors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_id(self.id)
        _check_count("career_years", self.career_years, 1)
        citations, authors = tuple(self.citations), tuple(self.authors)
        object.__setattr__(self, "citations", citations)
        object.__setattr__(self, "authors", authors)
        if len(citations) != len(authors):
            raise ValueError(
                f"citations and authors must hold one count per paper, got "
                f"{len(citations)} and {len(authors)}"
            )
        # whole-tuple passes; only a profile that fails one is walked paper by paper
        if citations and not (
            all(map(isinstance, citations, repeat(int)))
            and all(map(isinstance, authors, repeat(int)))
            and min(citations) >= 0
            and min(authors) >= 1
        ):
            for cited, count in zip(citations, authors):
                PaperRecord(cited, count)

    @property
    def papers(self) -> tuple[PaperRecord, ...]:
        return tuple(map(PaperRecord, self.citations, self.authors))


@dataclass(frozen=True)
class DmuAggregate:
    """Career totals for one researcher: years and coauthors in, citations out."""

    id: str
    years: int
    coauthors: int
    citations: int

    def __post_init__(self) -> None:
        _check_id(self.id)
        _check_count("years", self.years, 1)
        _check_count("coauthors", self.coauthors, 1)
        _check_count("citations", self.citations, 0)


class _Reader:
    """One file's read so far: its column layout, the ids seen and the rows read.

    ``bounds`` maps each integer column, after the leading "id", to the
    least value it may hold.  A header is recognized when the first data
    line's first cell is "id" (case-insensitive).  With a header, the
    required columns may appear in any position, extra columns are ignored,
    and each row must match the header width.  Without one, rows must hold
    exactly the required columns in their documented order.  An empty id is
    rejected, and ``unique`` rejects a repeated one.
    """

    def __init__(self, bounds: dict[str, int], name: str, unique: bool) -> None:
        self.bounds = bounds
        self.columns = ("id", *bounds)
        self.name = name
        self.unique = unique
        self.positions = list(range(len(self.columns)))
        self.width = len(self.columns)
        self.header: list[str] | None = None  # set by the first data line
        self.seen: set[str] = set()
        self.rows = 0

    def by_line(self, lines: Sequence[str], number: int) -> Iterator[_Block]:
        """Read ``lines``, the first being line ``number``, one line at a time.

        Blank lines and lines starting with "#" are skipped; line numbers
        count them.  The rows read are yielded as one block; at a bad line,
        the rows before it are yielded first and then the error is raised.
        """
        numbers, ids, rows = [], [], []
        error = None
        try:
            for number, line in enumerate(lines, start=number):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                cells = [cell.strip() for cell in line.split(",")]
                if self.header is None:
                    self.header = [cell.lower() for cell in cells]
                    if self.header[0] == "id":
                        missing = [column for column in self.columns if column not in self.header]
                        if missing:
                            raise ValueError(f"header is missing column(s) {', '.join(missing)}")
                        self.positions = [self.header.index(column) for column in self.columns]
                        self.width = len(self.header)
                        continue
                if len(cells) != self.width:
                    raise ValueError(f"expected {self.width} columns, got {len(cells)}")
                researcher = cells[self.positions[0]]
                _check_id(researcher)
                if self.unique:
                    if researcher in self.seen:
                        raise ValueError(f"duplicate researcher id {researcher!r}")
                    self.seen.add(researcher)
                values = []
                for column, position in zip(self.bounds, self.positions[1:]):
                    try:
                        values.append(int(cells[position]))
                    except ValueError:
                        raise ValueError(
                            f"non-integer value {cells[position]!r} for {column}"
                        ) from None
                for (column, low), value in zip(self.bounds.items(), values):
                    if value > _MAX_COUNT:
                        raise ValueError(f"{column} must be at most {_MAX_COUNT}")
                    _check_count(column, value, low)
                numbers.append(number)
                ids.append(researcher)
                rows.append(values)
        except ValueError as fault:
            error = CorpusError(f"{self.name} line {number}: {fault}")
        if rows:
            self.rows += len(rows)
            yield numbers, ids, [list(column) for column in zip(*rows)]
        if error is not None:
            raise error

    def at_once(self, lines: list[str], number: int) -> _Block | None:
        """Read plain data ``lines`` column by column; None if any needs ``by_line``."""
        text = ",".join(lines)
        if not text.isascii() or any(mark in text for mark in _NOT_PLAIN):
            return None
        # a blank line has no comma, so it fails the width check too
        if set(map(str.count, lines, repeat(","))) != {self.width - 1}:
            return None
        cells = text.split(",")
        ids = cells[self.positions[0] :: self.width]
        if "" in ids:
            return None
        if self.unique:
            distinct = set(ids)
            if len(distinct) < len(ids) or not distinct.isdisjoint(self.seen):
                return None
        try:
            # a cell with no whitespace gives int() what by_line gives it
            columns = [
                list(map(int, cells[position :: self.width])) for position in self.positions[1:]
            ]
        except ValueError:
            return None
        if max(map(max, columns)) > _MAX_COUNT or any(
            min(column) < low for column, low in zip(columns, self.bounds.values())
        ):
            return None
        if self.unique:
            self.seen |= distinct
        self.rows += len(lines)
        return range(number, number + len(lines)), ids, columns


def _records(
    text: str, bounds: dict[str, int], name: str, *, unique: bool = True
) -> Iterator[_Block]:
    """Yield blocks of (line numbers, ids, integer columns in ``bounds`` order).

    Blocks come in file order, so a caller that checks each block before
    asking for the next one reports the first bad line in file order.
    """
    reader = _Reader(bounds, name, unique)
    # a UTF-8 byte order mark would otherwise glue itself to the first cell
    text = text.removeprefix("\ufeff")
    # line ends as universal newlines reads them; the test skips a scan for
    # "\r\n" that takes 8 ms on a 4.5 MB file with none (2-vCPU VM, Python 3.11)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    number = 1
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS)
        end = len(text) if end < 0 else end + 1
        lines = text[start:end].removesuffix("\n").split("\n")
        head = 0
        while reader.header is None and head < len(lines):
            yield from reader.by_line(lines[head : head + 1], number + head)
            head += 1
        rest = lines[head:]
        if rest:
            block = reader.at_once(rest, number + head)
            yield from reader.by_line(rest, number + head) if block is None else (block,)
        number += len(lines)
        start = end
    if not reader.rows:
        raise CorpusError(f"{name}: no records")


def _paper_columns(
    text: str, declared: dict[str, int] | None = None
) -> dict[str, tuple[list[int], list[int]]]:
    """Group ``id,citations,authors`` rows into (citations, authors) lists per researcher.

    Researchers appear in first-occurrence order, after the keys of
    ``declared`` when it is given; then every id must be one of its keys.
    Each researcher's papers keep their file order.
    """
    groups = {researcher: ([], []) for researcher in declared or ()}
    bounds = {"citations": 0, "authors": 1}
    for numbers, ids, (citations, authors) in _records(text, bounds, "papers", unique=False):
        if declared is not None and not declared.keys() >= set(ids):
            number, researcher = next(
                row for row in zip(numbers, ids) if row[1] not in declared
            )
            raise CorpusError(f"papers line {number}: unknown researcher id {researcher!r}")
        start = 0
        # a researcher's rows are usually contiguous, so copy them a run at a time
        for researcher, run in groupby(ids):
            end = start + len(list(run))
            cited, counts = groups.setdefault(researcher, ([], []))
            cited += citations[start:end]
            counts += authors[start:end]
            start = end
    return groups


def parse_papers(text: str) -> dict[str, tuple[PaperRecord, ...]]:
    """Parse ``id,citations,authors`` CSV text, grouping papers by researcher.

    Researchers appear in first-occurrence order; each researcher's papers
    keep their file order.
    """
    return {
        researcher: tuple(map(PaperRecord, citations, authors))
        for researcher, (citations, authors) in _paper_columns(text).items()
    }


def parse_profiles(profiles_text: str, papers_text: str) -> list[ResearcherProfile]:
    """Parse the text of the two-file per-paper corpus into researcher profiles.

    ``profiles_text`` holds one ``id,career_years`` row per researcher;
    ``papers_text`` holds ``id,citations,authors`` rows in publication
    order.  Every paper row must name a researcher declared in the profiles
    text.  Researchers with no paper rows are kept (they can be staged but
    not aggregated).
    """
    declared: dict[str, int] = {}
    for _, ids, (years,) in _records(profiles_text, {"career_years": 1}, "profiles"):
        declared.update(zip(ids, years))
    papers = _paper_columns(papers_text, declared)
    return [
        ResearcherProfile(researcher, years, *papers[researcher])
        for researcher, years in declared.items()
    ]


def parse_aggregates(text: str) -> list[DmuAggregate]:
    """Parse ``id,years,coauthors,citations`` CSV text into DMU aggregates."""
    bounds = {"years": 1, "coauthors": 1, "citations": 0}
    return [
        DmuAggregate(researcher, *values)
        for _, ids, counts in _records(text, bounds, "aggregates")
        for researcher, *values in zip(ids, *counts)
    ]


def parse_h_values(text: str) -> dict[str, int]:
    """Parse ``id,h`` CSV text into a researcher-to-h mapping."""
    values: dict[str, int] = {}
    for _, ids, (column,) in _records(text, {"h": 0}, "h-values"):
        values.update(zip(ids, column))
    return values


def aggregate(profile: ResearcherProfile) -> DmuAggregate:
    """Collapse a profile into its (years, coauthors, citations) DMU triple."""
    if not profile.citations:
        raise CorpusError(
            f"researcher {profile.id!r} has no papers to aggregate; add paper rows "
            f"for {profile.id!r} or remove it from the profiles file"
        )
    return DmuAggregate(
        id=profile.id,
        years=profile.career_years,
        coauthors=sum(profile.authors),
        citations=sum(profile.citations),
    )

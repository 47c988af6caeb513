"""Data model, CSV ingestion, and aggregation for researcher publication data.

The CSV reader cuts a file into chunks of about 64 KiB, split at
newlines, and reads a plain chunk column by column: one ``splitlines``, one
split into cells, a width check by comma count and one ``map(int, ...)`` per
integer column.  A chunk holding anything else (non-ASCII text, comments,
blank lines, whitespace, a bad cell, an empty or repeated id) is re-read by
the per-line loop ``_Reader.by_line``.  That loop is the only source of
error text, so the first bad line in file order is the one reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, repeat
from typing import Iterable, Iterator, Sequence

_MAX_COUNT = 2**63 - 1  # the largest count any cell may hold
# parse time is flat from 16 KiB to 512 KiB chunks; larger ones only raise peak memory
_CHUNK_CHARS = 1 << 16

# line numbers, ids, then one integer column per column after "id"
_Block = tuple[Sequence[int], list[str], list[Sequence[int]]]


class CorpusError(ValueError):
    """Raised for malformed input data or a violated corpus invariant."""


@dataclass(frozen=True)
class PaperRecord:
    """One publication: its citation count and its number of authors."""

    citations: int
    authors: int

    def __post_init__(self) -> None:
        if not isinstance(self.citations, int) or self.citations < 0:
            raise ValueError(
                f"citations must be a non-negative integer, got {self.citations!r}"
            )
        if not isinstance(self.authors, int) or self.authors < 1:
            raise ValueError(
                f"authors must be a positive integer, got {self.authors!r}"
            )


@dataclass(frozen=True, init=False)
class ResearcherProfile:
    """A researcher's id, career length in years, and publication list.

    ``citations`` and ``authors`` hold one count per paper, in publication
    order; ``papers`` builds the same list as PaperRecord items on each access.
    """

    id: str
    career_years: int
    citations: tuple[int, ...]
    authors: tuple[int, ...]

    def __init__(
        self, id: str, career_years: int, papers: Iterable[PaperRecord] = ()
    ) -> None:
        papers = tuple(papers)
        self._assign(id, career_years, (), ())
        for record in papers:
            if not isinstance(record, PaperRecord):
                raise ValueError(f"papers must hold PaperRecord items, got {record!r}")
        object.__setattr__(self, "citations", tuple(record.citations for record in papers))
        object.__setattr__(self, "authors", tuple(record.authors for record in papers))

    @classmethod
    def _of_counts(
        cls, id: str, career_years: int, citations: tuple[int, ...], authors: tuple[int, ...]
    ) -> "ResearcherProfile":
        """A profile over count tuples that were already checked column by column."""
        profile = cls.__new__(cls)
        profile._assign(id, career_years, citations, authors)
        return profile

    def _assign(self, id, career_years, citations, authors) -> None:
        assign = object.__setattr__
        assign(self, "id", id)
        assign(self, "career_years", career_years)
        assign(self, "citations", citations)
        assign(self, "authors", authors)
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"id must be a non-empty string, got {self.id!r}")
        if not isinstance(self.career_years, int) or self.career_years < 1:
            raise ValueError(
                f"career_years must be a positive integer, got {self.career_years!r}"
            )

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
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"id must be a non-empty string, got {self.id!r}")
        if not isinstance(self.years, int) or self.years < 1:
            raise ValueError(f"years must be a positive integer, got {self.years!r}")
        if not isinstance(self.coauthors, int) or self.coauthors < 1:
            raise ValueError(
                f"coauthors must be a positive integer, got {self.coauthors!r}"
            )
        if not isinstance(self.citations, int) or self.citations < 0:
            raise ValueError(
                f"citations must be a non-negative integer, got {self.citations!r}"
            )


class _Reader:
    """One file's read so far: its column layout, the ids seen and the rows read.

    ``columns`` starts with "id"; every other column holds an integer.  A
    header is recognized when the first data line's first cell is "id"
    (case-insensitive).  With a header, the required columns may appear in
    any position, extra columns are ignored, and each row must match the
    header width.  Without one, rows must hold exactly the required columns
    in their documented order.  An empty id is rejected, and ``unique``
    rejects a repeated one.
    """

    def __init__(self, columns: tuple[str, ...], name: str, unique: bool) -> None:
        self.columns = columns
        self.name = name
        self.unique = unique
        self.positions = list(range(len(columns)))
        self.width = len(columns)
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
                            raise CorpusError(
                                f"{self.name} line {number}: header is missing "
                                f"column(s) {', '.join(missing)}"
                            )
                        self.positions = [self.header.index(column) for column in self.columns]
                        self.width = len(self.header)
                        continue
                if len(cells) != self.width:
                    raise CorpusError(
                        f"{self.name} line {number}: expected {self.width} columns, "
                        f"got {len(cells)}"
                    )
                researcher = cells[self.positions[0]]
                if not researcher:
                    raise CorpusError(
                        f"{self.name} line {number}: id must be a non-empty string, got ''"
                    )
                if self.unique:
                    if researcher in self.seen:
                        raise CorpusError(
                            f"{self.name} line {number}: duplicate researcher id "
                            f"{researcher!r}"
                        )
                    self.seen.add(researcher)
                values = []
                for column, position in zip(self.columns[1:], self.positions[1:]):
                    try:
                        values.append(int(cells[position]))
                    except ValueError:
                        raise CorpusError(
                            f"{self.name} line {number}: non-integer value "
                            f"{cells[position]!r} for {column}"
                        ) from None
                for column, value in zip(self.columns[1:], values):
                    if value > _MAX_COUNT:
                        raise CorpusError(
                            f"{self.name} line {number}: {column} must be at most {_MAX_COUNT}"
                        )
                numbers.append(number)
                ids.append(researcher)
                rows.append(values)
        except CorpusError as raised:
            error = raised
        if rows:
            self.rows += len(rows)
            yield numbers, ids, [list(column) for column in zip(*rows)]
        if error is not None:
            raise error

    def at_once(self, lines: list[str], number: int) -> _Block | None:
        """Read plain data ``lines`` column by column; None if any needs ``by_line``."""
        text = ",".join(lines)
        if not text.isascii() or any(mark in text for mark in " \t\x1f#"):
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
        if max(map(max, columns)) > _MAX_COUNT:
            return None
        if self.unique:
            self.seen |= distinct
        self.rows += len(lines)
        return range(number, number + len(lines)), ids, columns


def _records(
    text: str, columns: tuple[str, ...], name: str, *, unique: bool = True
) -> Iterator[_Block]:
    """Yield blocks of (line numbers, ids, integer columns in ``columns`` order).

    Blocks come in file order, so a caller that checks each block before
    asking for the next one reports the first bad line in file order.
    """
    reader = _Reader(columns, name, unique)
    # a UTF-8 byte order mark would otherwise glue itself to the first cell
    text = text.removeprefix("\ufeff")
    number = 1
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS)
        end = len(text) if end < 0 else end + 1
        lines = text[start:end].splitlines()
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


def _build(kind, name: str, number: int, *args):
    """``kind(*args)``, with a validation error re-raised under its line number."""
    try:
        return kind(*args)
    except ValueError as error:
        raise CorpusError(f"{name} line {number}: {error}") from None


def _paper_blocks(
    text: str, declared: dict[str, object] | None = None
) -> Iterator[tuple[list[str], Sequence[int], Sequence[int]]]:
    """Yield (ids, citations, authors) blocks of ``id,citations,authors`` rows.

    With ``declared``, every id must be one of its keys.  Each block is
    checked column by column; one that fails is walked row by row, so the
    error names its first bad line.
    """
    columns = ("id", "citations", "authors")
    for numbers, ids, (citations, authors) in _records(text, columns, "papers", unique=False):
        if (
            min(citations) < 0
            or min(authors) < 1
            or (declared is not None and not declared.keys() >= set(ids))
        ):
            for number, researcher, cited, count in zip(numbers, ids, citations, authors):
                _build(PaperRecord, "papers", number, cited, count)
                if declared is not None and researcher not in declared:
                    raise CorpusError(
                        f"papers line {number}: unknown researcher id {researcher!r}"
                    )
        yield ids, citations, authors


def parse_papers(text: str) -> dict[str, tuple[PaperRecord, ...]]:
    """Parse ``id,citations,authors`` CSV text, grouping papers by researcher.

    Researchers appear in first-occurrence order; each researcher's papers
    keep their file order.
    """
    groups: dict[str, list[PaperRecord]] = {}
    for ids, citations, authors in _paper_blocks(text):
        for researcher, record in zip(ids, map(PaperRecord, citations, authors)):
            groups.setdefault(researcher, []).append(record)
    return {researcher: tuple(records) for researcher, records in groups.items()}


def parse_profiles(profiles_text: str, papers_text: str) -> list[ResearcherProfile]:
    """Parse the text of the two-file per-paper corpus into researcher profiles.

    ``profiles_text`` holds one ``id,career_years`` row per researcher;
    ``papers_text`` holds ``id,citations,authors`` rows in publication
    order.  Every paper row must name a researcher declared in the profiles
    text.  Researchers with no paper rows are kept (they can be staged but
    not aggregated).
    """
    declared: dict[str, tuple[int, int]] = {}
    for numbers, ids, (years,) in _records(profiles_text, ("id", "career_years"), "profiles"):
        declared.update(zip(ids, zip(numbers, years)))
    papers: dict[str, tuple[list[int], list[int]]] = {
        researcher: ([], []) for researcher in declared
    }
    for ids, citations, authors in _paper_blocks(papers_text, declared):
        start = 0
        # a researcher's rows are usually contiguous, so copy them a run at a time
        for researcher, run in groupby(ids):
            end = start + len(list(run))
            cited, counts = papers[researcher]
            cited += citations[start:end]
            counts += authors[start:end]
            start = end
    return [
        _build(
            ResearcherProfile._of_counts, "profiles", number,
            researcher, years, tuple(cited), tuple(counts),
        )
        for (researcher, (number, years)), (cited, counts) in zip(
            declared.items(), papers.values()
        )
    ]


def parse_aggregates(text: str) -> list[DmuAggregate]:
    """Parse ``id,years,coauthors,citations`` CSV text into DMU aggregates."""
    columns = ("id", "years", "coauthors", "citations")
    return [
        _build(DmuAggregate, "aggregates", number, researcher, *values)
        for numbers, ids, counts in _records(text, columns, "aggregates")
        for number, researcher, *values in zip(numbers, ids, *counts)
    ]


def parse_h_values(text: str) -> dict[str, int]:
    """Parse ``id,h`` CSV text into a researcher-to-h mapping."""
    values: dict[str, int] = {}
    for numbers, ids, (column,) in _records(text, ("id", "h"), "h-values"):
        for number, researcher, value in zip(numbers, ids, column):
            if value < 0:
                raise CorpusError(f"h-values line {number}: h must be non-negative")
            values[researcher] = value
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

"""Data model, CSV ingestion, and aggregation for researcher publication data.

Only ``\\n``, ``\\r\\n`` and ``\\r`` end a line.  The CSV reader cuts a file
into chunks of about 64 KiB, split at newlines, and reads each chunk's UTF-8
bytes with a few whole-array numpy operations: one ``flatnonzero`` finds the
separators, the width check compares their kinds, each integer cell is summed
from its digit bytes in uint64, and only the first id of each run of rows with
equal id bytes is decoded.  A chunk stays on this column path when every id,
in any script, is non-empty, does not start with "#" and is unchanged by
``str.strip()``, and every integer cell is 1 to 19 ASCII digits within bounds.
Any other chunk (a comment or blank line, a wrong width, whitespace in or
around a count, a sign, "_" or a non-ASCII digit, a count out of range, a
repeated id where ids are unique, text that UTF-8 cannot encode) is re-read by
the per-line loop ``_Reader.by_line``.  The column path never reports a fault,
it only declines a chunk, so that loop is the only source of error text and
the first bad line in file order is the one reported.  Both paths yield int64
columns.  A count below its bound is reported as ``<column> must be a positive
integer, got <value>`` (or ``non-negative``), by the reader and by the
constructors of the public types alike; a count above 2**63-1 as ``<column>
must be at most 9223372036854775807``, by the reader and by the paper and
profile types.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

_MAX_COUNT = 2**63 - 1  # the largest count any cell may hold
# parse time is flat from 16 KiB to 512 KiB chunks; larger ones only raise peak memory
_CHUNK_CHARS = 1 << 16
_POWERS = np.array([10**place for place in range(19)], dtype=np.uint64)

# per run of rows with one id (by_line's runs are one row): its first line number,
# id and row count; then one int64 column per bounded column, one entry per row
_Block = tuple[Sequence[int], list[str], np.ndarray, list[np.ndarray]]


class CorpusError(ValueError):
    """Raised for malformed input data or a violated corpus invariant."""


def _check_id(value: object) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"id must be a non-empty string, got {value!r}")


def _check_count(name: str, value: object, low: int, high: int | None = None) -> None:
    """Raise ValueError unless ``value`` is an int from ``low`` (0 or 1) to ``high``, if given.

    A bool is refused: it is an int to Python, but no reader takes one.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        kind = "positive" if low else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}")


@dataclass(frozen=True)
class PaperRecord:
    """One publication: its citation count and its number of authors."""

    citations: int
    authors: int

    def __post_init__(self) -> None:
        _check_count("citations", self.citations, 0, _MAX_COUNT)
        _check_count("authors", self.authors, 1, _MAX_COUNT)


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
        # whole-tuple passes; only a profile that fails one, say by holding a
        # bool or another int subclass, is walked paper by paper
        if citations and not (
            {*map(type, citations), *map(type, authors)} == {int}
            and 0 <= min(citations) <= max(citations) <= _MAX_COUNT
            and 1 <= min(authors) <= max(authors) <= _MAX_COUNT
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
                    _check_count(column, value, low, _MAX_COUNT)
                numbers.append(number)
                ids.append(researcher)
                rows.append(values)
        except ValueError as fault:
            error = CorpusError(f"{self.name} line {number}: {fault}")
        if rows:
            self.rows += len(rows)
            columns = [np.array(column, dtype=np.int64) for column in zip(*rows)]
            yield numbers, ids, np.ones(len(ids), dtype=np.int64), columns
        if error is not None:
            raise error

    def at_once(self, chunk: str, number: int) -> _Block | None:
        """Read ``chunk``, whole lines from line ``number`` on; None if any needs ``by_line``."""
        try:
            raw = chunk.encode()
        except UnicodeEncodeError:  # a lone surrogate
            return None
        data = np.frombuffer(raw, dtype=np.uint8)
        newline = data == ord("\n")
        marks = np.flatnonzero(newline | (data == ord(",")))
        rows, width = np.count_nonzero(newline), self.width
        # every width-th separator, and no other, ends a line; a blank line fails too
        if len(marks) != rows * width or not newline[marks[width - 1 :: width]].all():
            return None
        ends = marks.reshape(rows, width)
        starts = np.concatenate(([0], marks[:-1] + 1)).reshape(rows, width)
        # the id is each line's first cell, as a header starts with "id"; by_line
        # strips each cell and skips a line that then starts with "#", so such a
        # line, an empty id and an id that strip() changes are left to it
        begin, end = starts[:, 0], ends[:, 0]
        sizes = end - begin
        if not sizes.all() or (data[begin] == ord("#")).any():
            return None
        # a row starts a run unless its id has the size and the bytes of the row
        # before's, compared 8 bytes at a time from the end: words[e] holds the
        # 8 bytes before offset e as one little-endian integer
        words = np.ndarray((len(raw) + 1,), "<u8", bytes(8) + raw, strides=(1,))
        fresh = np.ones(rows, dtype=bool)
        row = np.flatnonzero(sizes[1:] == sizes[:-1]) + 1
        cut, left = end[row], sizes[row]
        while row.size:
            shift = (8 * np.maximum(8 - left, 0)).astype(np.uint64)
            same = (words[cut] >> shift) == (words[cut - end[row] + end[row - 1]] >> shift)
            fresh[row[same & (left <= 8)]] = False
            more = same & (left > 8)
            row, cut, left = row[more], cut[more] - 8, left[more] - 8
        heads = np.flatnonzero(fresh)
        ids = [raw[a:b].decode() for a, b in zip(begin[heads].tolist(), end[heads].tolist())]
        if any(map(str.__ne__, ids, map(str.strip, ids))):
            return None
        # each integer cell is 1 to 19 ASCII digits, summed as digit * 10**place
        # in uint64, which holds every 19-digit number
        begin, end = starts[:, self.positions[1:]].T.ravel(), ends[:, self.positions[1:]].T.ravel()
        sizes = end - begin
        if not (sizes.all() and sizes.max() <= 19):
            return None
        cells = np.cumsum(sizes) - sizes  # where each cell's digits start in ``at``
        at = np.arange(cells[-1] + sizes[-1]) + np.repeat(begin - cells, sizes)
        digits = data[at] - ord("0")  # wraps below "0", so every other byte reads above 9
        values = np.add.reduceat(_POWERS[np.repeat(end, sizes) - at - 1] * digits, cells)
        # a value above 2**63-1 wraps to a negative int64, below every bound
        columns = values.astype(np.int64).reshape(-1, rows)
        if digits.max() > 9 or (columns.min(axis=1) < list(self.bounds.values())).any():
            return None
        if self.unique:
            distinct = set(ids)
            if len(distinct) < rows or not distinct.isdisjoint(self.seen):
                return None
            self.seen |= distinct
        self.rows += rows
        return (heads + number).tolist(), ids, np.diff(heads, append=rows), list(columns)


def _records(
    text: str, bounds: dict[str, int], name: str, *, unique: bool = True
) -> Iterator[_Block]:
    """Yield blocks of id runs and integer columns in ``bounds`` order (see _Block).

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
    if not text.endswith("\n"):
        text += "\n"  # so that every line, and so every chunk, ends with one
    number = 1
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS)
        end = len(text) if end < 0 else end + 1
        while reader.header is None and start < end:
            stop = text.index("\n", start)
            yield from reader.by_line([text[start:stop]], number)
            number, start = number + 1, stop + 1
        if start < end:
            chunk = text[start:end]
            block = reader.at_once(chunk, number)
            yield from (block,) if block else reader.by_line(chunk[:-1].split("\n"), number)
            number += chunk.count("\n")
        start = end
    if not reader.rows:
        raise CorpusError(f"{name}: no records; add {','.join(reader.columns)} rows")


@dataclass(frozen=True)
class PaperColumns:
    """Every researcher's papers as flat int64 columns, grouped by researcher.

    Researcher ``ids[i]`` has ``sizes[i]`` papers.  ``citations`` and
    ``authors`` hold one count per paper, researcher after researcher, each
    researcher's papers in file order.  ``years`` holds each researcher's
    career years, or is None when only paper rows were read.
    """

    ids: list[str]
    sizes: np.ndarray
    citations: np.ndarray
    authors: np.ndarray
    years: list[int] | None = None

    @classmethod
    def of(cls, researchers: Iterable[ResearcherProfile] | PaperColumns) -> PaperColumns:
        """``researchers`` as columns: a PaperColumns as it is, profiles flattened in order."""
        if isinstance(researchers, PaperColumns):
            return researchers
        profiles = list(researchers)
        citations, authors = (
            np.array(list(chain.from_iterable(map(attrgetter(field), profiles))), dtype=np.int64)
            for field in ("citations", "authors")
        )
        sizes = np.array([len(profile.citations) for profile in profiles], dtype=np.int64)
        years = [profile.career_years for profile in profiles]
        return cls([profile.id for profile in profiles], sizes, citations, authors, years)

    def __getitem__(self, researchers: slice) -> PaperColumns:
        """The researchers in ``researchers``, a slice with no step, and their papers."""
        first, last, _ = researchers.indices(len(self.ids))
        begin, end = (int(self.sizes[:stop].sum()) for stop in (first, last))
        years = None if self.years is None else self.years[first:last]
        papers = self.citations[begin:end], self.authors[begin:end]
        return PaperColumns(self.ids[first:last], self.sizes[first:last], *papers, years)

    def split(self, column: np.ndarray) -> list[list[int]]:
        """``column``, one of the paper columns, cut into one int list per researcher."""
        values = column.tolist()
        ends = np.cumsum(self.sizes).tolist()
        return [values[end - size : end] for size, end in zip(self.sizes.tolist(), ends)]

    def totals(self) -> tuple[np.ndarray, np.ndarray]:
        """Each researcher's citation total and author total, as two int64 columns.

        CorpusError names the first researcher, in order, whose citations or
        authors total above 2**63-1; below that, running sums within a
        researcher are exact in int64.  The largest count times the paper
        count bounds every total, so counts are summed in Python only past it.
        """
        columns = {"citations": self.citations, "authors": self.authors}
        bounds = [int(counts.max()) * len(counts) for counts in columns.values() if len(counts)]
        if max(bounds, default=0) > _MAX_COUNT:
            for researcher, *owned in zip(self.ids, *map(self.split, columns.values())):
                for name, total in zip(columns, map(sum, owned)):
                    if total > _MAX_COUNT:
                        fault = f"{name} must total at most {_MAX_COUNT}, got {total}"
                        raise CorpusError(f"researcher {researcher!r}: {fault}")
        ends = np.cumsum(self.sizes)
        # the running sums wrap alike in int64, so their differences are exact
        citations, authors = (
            np.diff(np.concatenate(([0], np.cumsum(counts)))[ends], prepend=0)
            for counts in columns.values()
        )
        return citations, authors

    def aggregates(self) -> list[DmuAggregate]:
        """One DmuAggregate per researcher, in order: career years, author and citation totals.

        CorpusError names the first researcher, in order, with no papers or
        with a total above 2**63-1 (see ``totals``).
        """
        if self.years is None:
            raise CorpusError(
                "no career years to aggregate: read the papers text together with "
                "its profiles text, as in parse_paper_columns(papers, profiles)"
            )
        empty = np.flatnonzero(self.sizes == 0)
        if empty.size:
            self[: empty[0]].totals()  # a total above 2**63-1 before it comes first
            researcher = self.ids[empty[0]]
            raise CorpusError(
                f"researcher {researcher!r} has no papers to aggregate; add paper rows "
                f"for {researcher!r} or remove it from the profiles file"
            )
        citations, authors = self.totals()
        return list(map(DmuAggregate, self.ids, self.years, authors.tolist(), citations.tolist()))


def parse_paper_columns(papers_text: str, profiles_text: str | None = None) -> PaperColumns:
    """Parse paper CSV text, and profile CSV text if given, into one PaperColumns.

    Researchers appear in profile order when ``profiles_text`` is given, and
    then every paper row must name one of them; otherwise in first-occurrence
    order.  Each researcher's papers keep their file order.  ``index_table``
    and ``build_report`` read this form, with no profile built per researcher.
    """
    ids: list[str] = []
    years = None
    if profiles_text is not None:
        years = []
        for _, block, _, (column,) in _records(profiles_text, {"career_years": 1}, "profiles"):
            ids += block
            years += column.tolist()
    codes = {researcher: code for code, researcher in enumerate(ids)}
    owners, lengths, citations, authors = [], [], [], []
    papers = _records(papers_text, {"citations": 0, "authors": 1}, "papers", unique=False)
    for numbers, block, runs, (cited, counts) in papers:
        for number, researcher in zip(numbers, block):
            if years is not None and researcher not in codes:
                raise CorpusError(f"papers line {number}: unknown researcher id {researcher!r}")
            owners.append(codes.setdefault(researcher, len(codes)))
        lengths.append(runs)
        citations.append(cited)
        authors.append(counts)
    lengths = np.concatenate(lengths)
    citations, authors = np.concatenate(citations), np.concatenate(authors)
    if np.any(np.diff(owners) < 0):  # rows not grouped by researcher in code order
        order = np.argsort(np.repeat(owners, lengths), kind="stable")
        citations, authors = citations[order], authors[order]
    sizes = np.zeros(len(codes), dtype=np.int64)
    np.add.at(sizes, owners, lengths)
    return PaperColumns(list(codes), sizes, citations, authors, years)


def parse_papers(text: str) -> dict[str, tuple[PaperRecord, ...]]:
    """Parse ``id,citations,authors`` CSV text, grouping papers by researcher.

    Researchers appear in first-occurrence order; each researcher's papers
    keep their file order.
    """
    papers = parse_paper_columns(text)
    pairs = zip(papers.ids, papers.split(papers.citations), papers.split(papers.authors))
    return {researcher: tuple(map(PaperRecord, *counts)) for researcher, *counts in pairs}


def parse_profiles(profiles_text: str, papers_text: str) -> list[ResearcherProfile]:
    """Parse the text of the two-file per-paper corpus into researcher profiles.

    ``profiles_text`` holds one ``id,career_years`` row per researcher;
    ``papers_text`` holds ``id,citations,authors`` rows in publication
    order.  Every paper row must name a researcher declared in the profiles
    text.  Researchers with no paper rows are kept (they can be staged but
    not aggregated).
    """
    papers = parse_paper_columns(papers_text, profiles_text)
    counts = papers.split(papers.citations), papers.split(papers.authors)
    return list(map(ResearcherProfile, papers.ids, papers.years, *counts))


def parse_aggregates(text: str) -> list[DmuAggregate]:
    """Parse ``id,years,coauthors,citations`` CSV text into DMU aggregates."""
    bounds = {"years": 1, "coauthors": 1, "citations": 0}
    return [
        DmuAggregate(researcher, *values)
        for _, ids, _, counts in _records(text, bounds, "aggregates")
        for researcher, *values in zip(ids, *(column.tolist() for column in counts))
    ]


def parse_h_values(text: str) -> dict[str, int]:
    """Parse ``id,h`` CSV text into a researcher-to-h mapping."""
    values: dict[str, int] = {}
    for _, ids, _, (column,) in _records(text, {"h": 0}, "h-values"):
        values.update(zip(ids, column.tolist()))
    return values


def aggregate(profile: ResearcherProfile) -> DmuAggregate:
    """A profile's (years, coauthors, citations) DMU triple: row 0 of its aggregates."""
    return PaperColumns.of([profile]).aggregates()[0]

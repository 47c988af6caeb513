"""Data model, CSV ingestion, and aggregation for researcher publication data."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


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


@dataclass(frozen=True)
class ResearcherProfile:
    """A researcher's id, career length in years, and publication list."""

    id: str
    career_years: int
    papers: tuple[PaperRecord, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "papers", tuple(self.papers))
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"id must be a non-empty string, got {self.id!r}")
        if not isinstance(self.career_years, int) or self.career_years < 1:
            raise ValueError(
                f"career_years must be a positive integer, got {self.career_years!r}"
            )
        for record in self.papers:
            if not isinstance(record, PaperRecord):
                raise ValueError(f"papers must hold PaperRecord items, got {record!r}")


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


def _records(
    text: str, columns: tuple[str, ...], name: str, *, unique: bool = True
) -> Iterator[tuple[int, str, list[int]]]:
    """Yield (line number, id, integer cells in ``columns`` order) for each data row.

    ``columns`` starts with "id"; every other column holds an integer.  Blank
    lines and lines starting with "#" are skipped; line numbers count them.  A
    header is recognized when the first data line's first cell is "id"
    (case-insensitive).  With a header, the required columns may appear in
    any position, extra columns are ignored, and each row must match the
    header width.  Without one, rows must hold exactly the required columns
    in their documented order.  Rows are checked as they are read, so the
    first bad line in file order is the one reported; an empty id is
    rejected, and ``unique`` rejects a repeated one.
    """
    positions = list(range(len(columns)))
    width = len(columns)
    header = None
    seen: set[str] = set()
    # a UTF-8 byte order mark would otherwise glue itself to the first cell
    for number, line in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = [cell.strip() for cell in line.split(",")]
        if header is None:
            header = [cell.lower() for cell in cells]
            if header[0] == "id":
                missing = [column for column in columns if column not in header]
                if missing:
                    raise CorpusError(
                        f"{name} line {number}: header is missing "
                        f"column(s) {', '.join(missing)}"
                    )
                positions = [header.index(column) for column in columns]
                width = len(header)
                continue
        if len(cells) != width:
            raise CorpusError(
                f"{name} line {number}: expected {width} columns, got {len(cells)}"
            )
        researcher = cells[positions[0]]
        if not researcher:
            raise CorpusError(
                f"{name} line {number}: id must be a non-empty string, got ''"
            )
        if unique and researcher in seen:
            raise CorpusError(
                f"{name} line {number}: duplicate researcher id {researcher!r}"
            )
        seen.add(researcher)
        values = []
        for column, position in zip(columns[1:], positions[1:]):
            try:
                values.append(int(cells[position]))
            except ValueError:
                raise CorpusError(
                    f"{name} line {number}: non-integer value {cells[position]!r} "
                    f"for {column}"
                ) from None
        yield number, researcher, values
    if not seen:
        raise CorpusError(f"{name}: no records")


def _build(kind, name: str, number: int, *args):
    """``kind(*args)``, with a validation error re-raised under its line number."""
    try:
        return kind(*args)
    except ValueError as error:
        raise CorpusError(f"{name} line {number}: {error}") from None


def _paper_rows(text: str) -> Iterator[tuple[int, str, PaperRecord]]:
    """Yield (line number, researcher id, record) for each ``id,citations,authors`` row."""
    columns = ("id", "citations", "authors")
    for number, researcher, values in _records(text, columns, "papers", unique=False):
        yield number, researcher, _build(PaperRecord, "papers", number, *values)


def parse_papers(text: str) -> dict[str, tuple[PaperRecord, ...]]:
    """Parse ``id,citations,authors`` CSV text, grouping papers by researcher.

    Researchers appear in first-occurrence order; each researcher's papers
    keep their file order.
    """
    groups: dict[str, list[PaperRecord]] = {}
    for _, researcher, record in _paper_rows(text):
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
    declared = {
        researcher: (number, career_years)
        for number, researcher, (career_years,) in _records(
            profiles_text, ("id", "career_years"), "profiles"
        )
    }
    papers: dict[str, list[PaperRecord]] = {researcher: [] for researcher in declared}
    for number, researcher, record in _paper_rows(papers_text):
        if researcher not in papers:
            raise CorpusError(
                f"papers line {number}: unknown researcher id {researcher!r}"
            )
        papers[researcher].append(record)
    return [
        _build(ResearcherProfile, "profiles", number, researcher, years, papers[researcher])
        for researcher, (number, years) in declared.items()
    ]


def parse_aggregates(text: str) -> list[DmuAggregate]:
    """Parse ``id,years,coauthors,citations`` CSV text into DMU aggregates."""
    columns = ("id", "years", "coauthors", "citations")
    return [
        _build(DmuAggregate, "aggregates", number, researcher, *values)
        for number, researcher, values in _records(text, columns, "aggregates")
    ]


def parse_h_values(text: str) -> dict[str, int]:
    """Parse ``id,h`` CSV text into a researcher-to-h mapping."""
    values: dict[str, int] = {}
    for number, researcher, (value,) in _records(text, ("id", "h"), "h-values"):
        if value < 0:
            raise CorpusError(f"h-values line {number}: h must be non-negative")
        values[researcher] = value
    return values


def aggregate(profile: ResearcherProfile) -> DmuAggregate:
    """Collapse a profile into its (years, coauthors, citations) DMU triple."""
    if not profile.papers:
        raise CorpusError(
            f"researcher {profile.id!r} has no papers to aggregate; add paper rows "
            f"for {profile.id!r} or remove it from the profiles file"
        )
    return DmuAggregate(
        id=profile.id,
        years=profile.career_years,
        coauthors=sum(record.authors for record in profile.papers),
        citations=sum(record.citations for record in profile.papers),
    )

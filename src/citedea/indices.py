"""Per-researcher citation indices."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .corpus import PaperRecord, ResearcherProfile


@dataclass(frozen=True)
class PenaltyParams:
    """Co-author penalty: slope ``a`` charged per author above the customary count ``b``."""

    a: float = 0.0
    b: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        if math.isnan(self.a) or self.a < 0:
            raise ValueError(f"a must be non-negative, got {self.a!r}")
        if not isinstance(self.b, int) or self.b < 1:
            raise ValueError(f"b must be a positive integer, got {self.b!r}")


# every index compute_indices returns, in its order; paper_indices returns the first seven
INDEX_NAMES = (
    "h", "g", "a", "r", "individual_h", "si", "si_penalized", "t", "t_thresholded",
)


def h_index(citations: Sequence[int]) -> int:
    """Largest h such that at least h entries are h or more."""
    best = 0
    for position, count in enumerate(sorted(citations, reverse=True), start=1):
        if count >= position:
            best = position
    return best


def g_index(citations: Sequence[int]) -> int:
    """Largest g, at most the paper count, whose top g papers total g**2 citations."""
    best = 0
    total = 0
    for position, count in enumerate(sorted(citations, reverse=True), start=1):
        total += count
        if total >= position * position:
            best = position
    return best


def a_index(citations: Sequence[int]) -> float:
    """Mean citation count over the h most cited papers; 0 when h is 0."""
    h = h_index(citations)
    if h == 0:
        return 0.0
    return sum(sorted(citations, reverse=True)[:h]) / h


def r_index(citations: Sequence[int]) -> float:
    """Square root of the citation sum over the h most cited papers."""
    h = h_index(citations)
    return math.sqrt(sum(sorted(citations, reverse=True)[:h]))


def h_core(papers: Sequence[PaperRecord]) -> tuple[PaperRecord, ...]:
    """The h most cited papers; equally cited papers keep their input order."""
    # sorted() is stable, so the negated key breaks citation ties by position;
    # h_index's own sort is then a linear pass over the descending counts
    ranked = sorted(papers, key=lambda record: -record.citations)
    return tuple(ranked[: h_index([record.citations for record in ranked])])


def individual_h(papers: Sequence[PaperRecord]) -> float:
    """h divided by the mean author count of the h-core papers; 0 when h is 0."""
    core = h_core(papers)
    if not core:
        return 0.0
    mean_authors = sum(record.authors for record in core) / len(core)
    return len(core) / mean_authors


def scientific_impact(papers: Sequence[PaperRecord]) -> float:
    """Citation sum with every paper's count divided by its author count."""
    return float(sum(record.citations / record.authors for record in papers))


def scientific_impact_penalized(
    papers: Sequence[PaperRecord], params: PenaltyParams
) -> float:
    """Citation sum where authors above ``b`` are charged at slope ``a``.

    Papers with at most ``b`` authors contribute their citations undivided;
    the rest contribute citations / (1 + a * (authors - b)).
    """
    total = 0.0
    for record in papers:
        if record.authors > params.b:
            total += record.citations / (1.0 + params.a * (record.authors - params.b))
        else:
            total += record.citations
    return total


def t_index(profile: ResearcherProfile) -> float:
    """Scientific impact averaged over the researcher's career years."""
    return scientific_impact(profile.papers) / profile.career_years


def t_index_thresholded(profile: ResearcherProfile, c_star: int) -> float:
    """Like t_index, but only papers with at least ``c_star`` citations count."""
    if not isinstance(c_star, int) or c_star < 0:
        raise ValueError(f"c_star must be a non-negative integer, got {c_star!r}")
    qualifying = [record for record in profile.papers if record.citations >= c_star]
    return scientific_impact(qualifying) / profile.career_years


def paper_indices(
    papers: Sequence[PaperRecord], *, penalty: PenaltyParams | None = None
) -> dict[str, float]:
    """The indices a paper list alone determines, keyed in INDEX_NAMES order.

    h and g are ints; the rest are floats.
    """
    penalty = PenaltyParams() if penalty is None else penalty
    # sorted once here, so each function's own sort is a linear pass
    citations = sorted((record.citations for record in papers), reverse=True)
    return {
        "h": h_index(citations),
        "g": g_index(citations),
        "a": a_index(citations),
        "r": r_index(citations),
        "individual_h": individual_h(papers),
        "si": scientific_impact(papers),
        "si_penalized": scientific_impact_penalized(papers, penalty),
    }


def compute_indices(
    profile: ResearcherProfile,
    *,
    c_star: int = 0,
    penalty: PenaltyParams | None = None,
) -> dict[str, float]:
    """Every index for one researcher, keyed in INDEX_NAMES order (see paper_indices)."""
    values = paper_indices(profile.papers, penalty=penalty)
    # t_index is the si value over the career years; reuse the sum
    values["t"] = values["si"] / profile.career_years
    values["t_thresholded"] = t_index_thresholded(profile, c_star)
    return values

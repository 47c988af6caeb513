"""Per-researcher citation indices."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
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


class IndexName(Enum):
    """The citation indices this package computes."""

    H = "h"
    G = "g"
    A = "a"
    R = "r"
    INDIVIDUAL_H = "individual_h"
    SI = "si"
    SI_PENALIZED = "si_penalized"
    T = "t"
    T_THRESHOLDED = "t_thresholded"


@dataclass(frozen=True)
class IndexValue:
    """A named index value; h and g are integer-valued."""

    name: IndexName
    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        if math.isnan(self.value) or self.value < 0:
            raise ValueError(f"index value must be non-negative, got {self.value!r}")
        if self.name in (IndexName.H, IndexName.G) and not self.value.is_integer():
            raise ValueError(f"{self.name.value} must be an integer, got {self.value!r}")


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
) -> tuple[IndexValue, ...]:
    """The indices a paper list alone determines, in IndexName declaration order."""
    penalty = PenaltyParams() if penalty is None else penalty
    # sorted once here, so each function's own sort is a linear pass
    citations = sorted((record.citations for record in papers), reverse=True)
    return (
        IndexValue(IndexName.H, float(h_index(citations))),
        IndexValue(IndexName.G, float(g_index(citations))),
        IndexValue(IndexName.A, a_index(citations)),
        IndexValue(IndexName.R, r_index(citations)),
        IndexValue(IndexName.INDIVIDUAL_H, individual_h(papers)),
        IndexValue(IndexName.SI, scientific_impact(papers)),
        IndexValue(IndexName.SI_PENALIZED, scientific_impact_penalized(papers, penalty)),
    )


def compute_indices(
    profile: ResearcherProfile,
    *,
    c_star: int = 0,
    penalty: PenaltyParams | None = None,
) -> tuple[IndexValue, ...]:
    """Every index for one researcher, in IndexName declaration order."""
    values = paper_indices(profile.papers, penalty=penalty)
    # t_index is the si value over the career years; reuse the sum
    si = next(value.value for value in values if value.name is IndexName.SI)
    return values + (
        IndexValue(IndexName.T, si / profile.career_years),
        IndexValue(IndexName.T_THRESHOLDED, t_index_thresholded(profile, c_star)),
    )

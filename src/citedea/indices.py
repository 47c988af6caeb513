"""Per-researcher citation indices."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import add, truediv
from typing import Iterable, Sequence

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
        if count < position:
            break  # the counts only fall from here on
        best = position
    return best


def g_index(citations: Sequence[int]) -> int:
    """Largest g, at most the paper count, whose top g papers total g**2 citations."""
    best = 0
    total = 0
    for position, count in enumerate(sorted(citations, reverse=True), start=1):
        total += count
        if total < position * position:
            break  # total - position**2 moves by count - (2 * position - 1), which only falls
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


def _core(citations: Sequence[int], h: int) -> list[int]:
    """Positions of the ``h`` most cited papers; equally cited papers keep their input order."""
    # sorted() stays stable with reverse=True, so ties keep their input order
    return sorted(range(len(citations)), key=citations.__getitem__, reverse=True)[:h]


def _counts(papers: Iterable[PaperRecord]) -> tuple[list[int], list[int]]:
    """The citation and author counts of ``papers``, as two aligned lists."""
    papers = tuple(papers)  # a one-shot iterable is read once
    return [record.citations for record in papers], [record.authors for record in papers]


def h_core(papers: Iterable[PaperRecord]) -> tuple[PaperRecord, ...]:
    """The h most cited papers; equally cited papers keep their input order."""
    papers = tuple(papers)
    citations = _counts(papers)[0]
    return tuple(papers[position] for position in _core(citations, h_index(citations)))


def _individual_h(citations: Sequence[int], authors: Sequence[int], h: int) -> float:
    if h == 0:
        return 0.0
    mean_authors = sum(map(authors.__getitem__, _core(citations, h))) / h
    return h / mean_authors


def individual_h(papers: Iterable[PaperRecord]) -> float:
    """h divided by the mean author count of the h-core papers; 0 when h is 0."""
    citations, authors = _counts(papers)
    return _individual_h(citations, authors, h_index(citations))


def _impact(citations: Iterable[int], authors: Iterable[int]) -> float:
    # summed in paper order, so the float is the same for every caller
    return float(sum(map(truediv, citations, authors)))


def scientific_impact(papers: Iterable[PaperRecord]) -> float:
    """Citation sum with every paper's count divided by its author count."""
    return _impact(*_counts(papers))


def _impact_penalized(
    citations: Iterable[int], authors: Iterable[int], params: PenaltyParams
) -> float:
    a, b = params.a, params.b
    terms = (
        cited / (1.0 + a * (count - b)) if count > b else cited
        for cited, count in zip(citations, authors)
    )
    # summed one term at a time from 0.0, in paper order
    return reduce(add, terms, 0.0)


def scientific_impact_penalized(
    papers: Iterable[PaperRecord], params: PenaltyParams
) -> float:
    """Citation sum where authors above ``b`` are charged at slope ``a``.

    Papers with at most ``b`` authors contribute their citations undivided;
    the rest contribute citations / (1 + a * (authors - b)).
    """
    return _impact_penalized(*_counts(papers), params)


def t_index(profile: ResearcherProfile) -> float:
    """Scientific impact averaged over the researcher's career years."""
    return _impact(profile.citations, profile.authors) / profile.career_years


def t_index_thresholded(profile: ResearcherProfile, c_star: int) -> float:
    """Like t_index, but only papers with at least ``c_star`` citations count."""
    if not isinstance(c_star, int) or c_star < 0:
        raise ValueError(f"c_star must be a non-negative integer, got {c_star!r}")
    qualifying = [cited >= c_star for cited in profile.citations]
    citations = compress(profile.citations, qualifying)
    authors = compress(profile.authors, qualifying)
    return _impact(citations, authors) / profile.career_years


def _paper_indices(
    citations: Sequence[int], authors: Sequence[int], penalty: PenaltyParams | None
) -> dict[str, float]:
    penalty = PenaltyParams() if penalty is None else penalty
    # sorted once here, so each function's own sort is a linear pass
    ranked = sorted(citations, reverse=True)
    h = h_index(ranked)
    return {
        "h": h,
        "g": g_index(ranked),
        "a": a_index(ranked),
        "r": r_index(ranked),
        "individual_h": _individual_h(citations, authors, h),
        "si": _impact(citations, authors),
        "si_penalized": _impact_penalized(citations, authors, penalty),
    }


def paper_indices(
    papers: Iterable[PaperRecord], *, penalty: PenaltyParams | None = None
) -> dict[str, float]:
    """The indices a paper list alone determines, keyed in INDEX_NAMES order.

    h and g are ints; the rest are floats.
    """
    return _paper_indices(*_counts(papers), penalty)


def compute_indices(
    profile: ResearcherProfile,
    *,
    c_star: int = 0,
    penalty: PenaltyParams | None = None,
) -> dict[str, float]:
    """Every index for one researcher, keyed in INDEX_NAMES order (see paper_indices)."""
    values = _paper_indices(profile.citations, profile.authors, penalty)
    # t_index is the si value over the career years; reuse the sum
    values["t"] = values["si"] / profile.career_years
    values["t_thresholded"] = t_index_thresholded(profile, c_star)
    return values

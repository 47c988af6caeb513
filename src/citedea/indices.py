"""Per-researcher citation indices.

``index_table`` is the one definition of every index in INDEX_NAMES: it
computes them for a whole list of profiles, a bounded chunk of papers at a
time.  Every other function here builds a one-researcher table and selects
a value from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import truediv
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import _MAX_COUNT, CorpusError, PaperRecord, ResearcherProfile, _check_count

# papers per chunk: enough to spread numpy's per-call cost, few enough that
# the arrays stay small beside the profiles themselves
_CHUNK_PAPERS = 1 << 14
# float64 holds every integer below this exactly
_EXACT_IN_FLOAT = 1 << 53
# the researcher id a bare paper or citation list is reported under
_LIST_ID = "paper list"


@dataclass(frozen=True)
class PenaltyParams:
    """Co-author penalty: slope ``a`` charged per author above the customary count ``b``."""

    a: float = 0.0
    b: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        if math.isnan(self.a) or self.a < 0:
            raise ValueError(f"a must be non-negative, got {self.a!r}")
        _check_count("b", self.b, 1)


# every index index_table and compute_indices return, in their order;
# paper_indices returns the first seven
INDEX_NAMES = (
    "h", "g", "a", "r", "individual_h", "si", "si_penalized", "t", "t_thresholded",
)


def _chunks(profiles: Iterable[ResearcherProfile]) -> Iterator[list[ResearcherProfile]]:
    """Runs of consecutive profiles with at most _CHUNK_PAPERS papers, or one larger profile."""
    chunk: list[ResearcherProfile] = []
    papers = 0
    for profile in profiles:
        if chunk and papers + len(profile.citations) > _CHUNK_PAPERS:
            yield chunk
            chunk, papers = [], 0
        chunk.append(profile)
        papers += len(profile.citations)
    if chunk:
        yield chunk


def _counts(chunk: list[ResearcherProfile], field: str) -> np.ndarray:
    """The ``field`` counts of ``chunk`` as one int64 array, researcher after researcher.

    Each researcher's total must be at most 2**63-1, so a researcher's
    running sums are exact in int64 even where a sum over the chunk wraps.
    """
    owned = [getattr(profile, field) for profile in chunk]
    flat = list(chain.from_iterable(owned))
    if sum(flat) > _MAX_COUNT:
        for profile, counts in zip(chunk, owned):
            total = sum(counts)
            if total > _MAX_COUNT:
                raise CorpusError(
                    f"researcher {profile.id!r}: {field} must total at most {_MAX_COUNT}, "
                    f"got {total}"
                )
    return np.array(flat, dtype=np.int64)


def _within(sums: np.ndarray, starts: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Running sums over the chunk turned into running sums within each researcher."""
    # both terms wrap alike in int64, so their difference is exact
    return sums - np.concatenate(([0], sums))[starts][owner]


def _in_paper_order(terms: np.ndarray, sizes: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each column of ``terms`` summed per researcher, one paper at a time from 0.0.

    np.sum and np.add.reduceat add pairwise, which changes the last bits, so
    step k adds paper k of every researcher with more than k papers.
    """
    order = np.argsort(-sizes)  # most papers first
    # active[k]: how many researchers have more than k papers
    active = np.searchsorted(-sizes[order], -np.arange(sizes.max(initial=0)))
    papers = starts[order]  # each researcher's next paper
    totals = np.zeros((len(sizes), terms.shape[1]))
    for count in active.tolist():
        totals[:count] += terms.take(papers[:count], axis=0)
        papers += 1
    sums = np.empty_like(totals)
    sums[order] = totals
    return sums


def _chunk_table(
    chunk: list[ResearcherProfile], c_star: int, penalty: PenaltyParams
) -> tuple[dict[str, list], np.ndarray]:
    """Every index of ``chunk``'s profiles, and the ranking that defines each h-core.

    The ranking lists paper positions researcher by researcher, most cited
    first; equally cited papers keep their input order.
    """
    sizes = np.array([len(profile.citations) for profile in chunk], dtype=np.int64)
    cited = _counts(chunk, "citations")
    authors = _counts(chunk, "authors")
    owner = np.repeat(np.arange(len(chunk)), sizes)
    starts = np.cumsum(sizes) - sizes
    ranking = np.lexsort((-cited, owner))  # a stable sort
    ranked = cited[ranking]
    position = np.arange(1, len(ranked) + 1) - starts[owner]  # 1 at each researcher's top paper
    ranked_sums = _within(np.cumsum(ranked), starts, owner)
    # each test holds on a prefix of a researcher's ranked papers, so the
    # papers that pass it count h or g
    h = np.bincount(owner[ranked >= position], minlength=len(chunk))
    g = np.bincount(owner[ranked_sums >= position * position], minlength=len(chunk))
    cored = h > 0
    last = (starts + h - 1)[cored]
    core_citations = np.zeros(len(chunk), dtype=np.int64)
    core_citations[cored] = ranked_sums[last]
    core_authors = np.zeros(len(chunk), dtype=np.int64)
    core_authors[cored] = _within(np.cumsum(authors[ranking]), starts, owner)[last]

    shares = cited / authors
    inexact = (cited >= _EXACT_IN_FLOAT) | (authors >= _EXACT_IN_FLOAT)
    if inexact.any():
        # float64 would round these counts before dividing; Python rounds only the quotient
        shares[inexact] = list(map(truediv, cited[inexact].tolist(), authors[inexact].tolist()))
    penalized = cited.astype(np.float64)
    b = min(penalty.b, _MAX_COUNT)  # no count is larger, so a larger b charges no paper either
    charged = authors > b
    with np.errstate(over="ignore"):  # a huge slope makes the divisor inf, as in Python
        penalized[charged] /= 1.0 + penalty.a * (authors[charged] - b)
    # adding 0.0 leaves a non-negative sum as it was, so dropped papers add 0.0
    kept_shares = np.where(cited >= c_star, shares, 0.0)
    si, si_penalized, kept = _in_paper_order(
        np.stack((shares, penalized, kept_shares), axis=1), sizes, starts
    ).T.tolist()

    # the last divisions and roots run on Python ints, as a per-profile loop would
    years = [profile.career_years for profile in chunk]
    h_values = h.tolist()
    core_citations = core_citations.tolist()
    values = {
        "h": h_values,
        "g": g.tolist(),
        "a": [total / count if count else 0.0 for total, count in zip(core_citations, h_values)],
        "r": list(map(math.sqrt, core_citations)),
        "individual_h": [
            count / (total / count) if count else 0.0
            for total, count in zip(core_authors.tolist(), h_values)
        ],
        "si": si,
        "si_penalized": si_penalized,
        "t": list(map(truediv, si, years)),
        "t_thresholded": list(map(truediv, kept, years)),
    }
    return values, ranking


def index_table(
    profiles: Iterable[ResearcherProfile],
    *,
    c_star: int = 0,
    penalty: PenaltyParams | None = None,
) -> dict[str, tuple]:
    """Every index of every profile, as columns aligned with ``profiles``.

    The keys are INDEX_NAMES, in order; h and g are ints, the rest are
    floats.  ``c_star`` is the citation threshold of t_thresholded and
    ``penalty`` shapes si_penalized (no penalty by default).  A
    researcher's citations and authors must each total at most 2**63-1;
    a larger total raises CorpusError naming the researcher.
    """
    _check_count("c_star", c_star, 0)
    penalty = PenaltyParams() if penalty is None else penalty
    columns: dict[str, list] = {name: [] for name in INDEX_NAMES}
    for chunk in _chunks(profiles):
        for name, values in _chunk_table(chunk, c_star, penalty)[0].items():
            columns[name] += values
    return {name: tuple(values) for name, values in columns.items()}


def _row(profile: ResearcherProfile, **options) -> dict[str, float]:
    return {name: column[0] for name, column in index_table([profile], **options).items()}


def _of_papers(papers: Iterable[PaperRecord]) -> ResearcherProfile:
    papers = tuple(papers)  # a one-shot iterable is read once
    citations = [record.citations for record in papers]
    return ResearcherProfile(_LIST_ID, 1, citations, [record.authors for record in papers])


def _of_citations(citations: Iterable[int]) -> ResearcherProfile:
    citations = tuple(citations)
    return ResearcherProfile(_LIST_ID, 1, citations, (1,) * len(citations))


def h_index(citations: Sequence[int]) -> int:
    """Largest h such that at least h entries are h or more."""
    return _row(_of_citations(citations))["h"]


def g_index(citations: Sequence[int]) -> int:
    """Largest g, at most the paper count, whose top g papers total g**2 citations."""
    return _row(_of_citations(citations))["g"]


def a_index(citations: Sequence[int]) -> float:
    """Mean citation count over the h most cited papers; 0 when h is 0."""
    return _row(_of_citations(citations))["a"]


def r_index(citations: Sequence[int]) -> float:
    """Square root of the citation sum over the h most cited papers."""
    return _row(_of_citations(citations))["r"]


def h_core(papers: Iterable[PaperRecord]) -> tuple[PaperRecord, ...]:
    """The h most cited papers; equally cited papers keep their input order."""
    papers = tuple(papers)
    values, ranking = _chunk_table([_of_papers(papers)], 0, PenaltyParams())
    return tuple(papers[position] for position in ranking[: values["h"][0]].tolist())


def individual_h(papers: Iterable[PaperRecord]) -> float:
    """h divided by the mean author count of the h-core papers; 0 when h is 0."""
    return _row(_of_papers(papers))["individual_h"]


def scientific_impact(papers: Iterable[PaperRecord]) -> float:
    """Citation sum with every paper's count divided by its author count."""
    return _row(_of_papers(papers))["si"]


def scientific_impact_penalized(
    papers: Iterable[PaperRecord], params: PenaltyParams
) -> float:
    """Citation sum where authors above ``b`` are charged at slope ``a``.

    Papers with at most ``b`` authors contribute their citations undivided;
    the rest contribute citations / (1 + a * (authors - b)).
    """
    return _row(_of_papers(papers), penalty=params)["si_penalized"]


def t_index(profile: ResearcherProfile) -> float:
    """Scientific impact averaged over the researcher's career years."""
    return _row(profile)["t"]


def t_index_thresholded(profile: ResearcherProfile, c_star: int) -> float:
    """Like t_index, but only papers with at least ``c_star`` citations count."""
    return _row(profile, c_star=c_star)["t_thresholded"]


def paper_indices(
    papers: Iterable[PaperRecord], *, penalty: PenaltyParams | None = None
) -> dict[str, float]:
    """The indices a paper list alone determines, keyed in INDEX_NAMES order.

    h and g are ints; the rest are floats.
    """
    values = _row(_of_papers(papers), penalty=penalty)
    return {name: values[name] for name in INDEX_NAMES[:7]}


def compute_indices(
    profile: ResearcherProfile,
    *,
    c_star: int = 0,
    penalty: PenaltyParams | None = None,
) -> dict[str, float]:
    """Every index for one researcher, keyed in INDEX_NAMES order (see index_table)."""
    return _row(profile, c_star=c_star, penalty=penalty)

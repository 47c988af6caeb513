"""Per-researcher citation indices.

``index_table`` is the one definition of every index in INDEX_NAMES.  It
reads a corpus as flat int64 columns (``corpus.PaperColumns``); a list of
profiles is flattened into that form first.  It works a chunk of
researchers at a time, cut by ``searchsorted`` on the running paper counts
so that each chunk holds a bounded number of papers.  A researcher's float
sums (si, si_penalized and the thresholded sum) add its papers' terms one
after another in input order, starting from 0.0, so each matches a
per-profile loop bit for bit.  ``compute_indices`` reads one row of a
one-researcher table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import truediv
from typing import Iterable

import numpy as np

from .corpus import PaperColumns, ResearcherProfile, _check_count

# papers per chunk: enough to spread numpy's per-call cost, few enough to stay
# small; one chunk slowed index_table on 10 000 researchers from 70-78 to 99-116 ms
_CHUNK_PAPERS = 1 << 14
# float64 holds every integer below this exactly
_EXACT_IN_FLOAT = 1 << 53


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


# every index index_table and compute_indices return, in their order; a
# PaperColumns without career years gives the first seven
INDEX_NAMES = (
    "h", "g", "a", "r", "individual_h", "si", "si_penalized", "t", "t_thresholded",
)


def _running(values: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Running sums of ``values`` within each researcher, whose papers start at ``first``."""
    sums = np.cumsum(values)
    # both terms wrap alike in int64, so their difference is exact
    return sums - (sums - values)[first]


def _chunk_table(papers: PaperColumns, c_star: int, penalty: PenaltyParams) -> dict[str, list]:
    """Every index of ``papers``' researchers, as lists keyed in INDEX_NAMES order.

    Without career years, only the first seven indices are computed.
    """
    papers.totals()  # raises for a total above 2**63-1; below it, running sums are exact
    sizes, cited, authors = papers.sizes, papers.citations, papers.authors
    researchers = len(sizes)
    owner = np.repeat(np.arange(researchers), sizes)
    starts = np.cumsum(sizes) - sizes
    # paper positions researcher by researcher, most cited first; the sort is
    # stable, so equally cited papers enter the h-core in input order
    ranking = np.lexsort((-cited, owner))
    ranked = cited[ranking]
    first = starts[owner]  # the position of each paper's researcher's first paper
    position = np.arange(1, len(ranked) + 1) - first  # 1 at each researcher's top paper
    ranked_sums = _running(ranked, first)
    # each test holds on a prefix of a researcher's ranked papers, so the
    # papers that pass it count h or g
    h = np.bincount(owner[ranked >= position], minlength=researchers)
    g = np.bincount(owner[ranked_sums >= position * position], minlength=researchers)
    cored = h > 0
    last = (starts + h - 1)[cored]
    core_citations = np.zeros(researchers, dtype=np.int64)
    core_citations[cored] = ranked_sums[last]
    core_authors = np.zeros(researchers, dtype=np.int64)
    core_authors[cored] = _running(authors[ranking], first)[last]

    shares = cited / authors
    inexact = (cited >= _EXACT_IN_FLOAT) | (authors >= _EXACT_IN_FLOAT)
    if inexact.any():
        # float64 would round these counts before dividing; Python rounds only the quotient
        shares[inexact] = list(map(truediv, cited[inexact].tolist(), authors[inexact].tolist()))
    penalized = cited.astype(np.float64)
    # no int64 count is larger, so a larger b charges no paper either
    b = min(penalty.b, np.iinfo(np.int64).max)
    charged = authors > b
    with np.errstate(over="ignore"):  # a huge slope makes the divisor inf, as in Python
        penalized[charged] /= 1.0 + penalty.a * (authors[charged] - b)
    # bincount adds each researcher's terms paper after paper from 0.0, as a
    # per-profile loop would; np.sum and np.add.reduceat add pairwise, which
    # changes the last bits.  A chunk with no papers gives int zeros, hence
    # the cast.  Adding 0.0 leaves a non-negative sum as it was, so dropped
    # papers add 0.0.
    si, si_penalized, kept = (
        np.bincount(owner, terms, researchers).astype(np.float64).tolist()
        for terms in (shares, penalized, np.where(cited >= c_star, shares, 0.0))
    )

    # the last divisions and roots run on Python ints, as a per-profile loop would
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
    }
    if papers.years is not None:
        values["t"] = list(map(truediv, si, papers.years))
        values["t_thresholded"] = list(map(truediv, kept, papers.years))
    return values


def index_table(
    researchers: Iterable[ResearcherProfile] | PaperColumns,
    *,
    c_star: int = 0,
    penalty: PenaltyParams | None = None,
) -> dict[str, tuple]:
    """Every index of every researcher, as columns aligned with ``researchers``.

    ``researchers`` is a list of profiles or a PaperColumns (see
    ``parse_paper_columns``).  The keys are INDEX_NAMES, in order, or the
    first seven when a PaperColumns holds no career years; h and g are
    ints, the rest are floats.  Over one researcher's papers: h is the
    largest h with h papers cited at least h times; g the largest g, at most
    the paper count, whose g most cited papers total g**2 citations; a and r
    the mean and the square root of the citation sum over the h-core, the h
    most cited papers (equally cited ones in input order); individual_h is h
    over the core's mean author count; si sums citations / authors;
    si_penalized sums citations / (1 + a * (authors - b)) for papers with
    more than b authors and plain citations for the rest, with a and b from
    ``penalty`` (no penalty by default); t is si per career year, and
    t_thresholded counts only papers with at least ``c_star`` citations.
    The float sums behind si, si_penalized, t and t_thresholded add the
    researcher's papers one after another in input order, starting from
    0.0, so their last bits are those of a plain loop.  A
    researcher's citations and authors must each total at most 2**63-1; a
    larger total raises CorpusError naming the researcher.
    """
    _check_count("c_star", c_star, 0)
    penalty = PenaltyParams() if penalty is None else penalty
    papers = PaperColumns.of(researchers)
    names = INDEX_NAMES if papers.years is not None else INDEX_NAMES[:7]
    columns: dict[str, list] = {name: [] for name in names}
    ends = np.cumsum(papers.sizes)
    first = 0
    while first < len(ends):
        begin = int(ends[first] - papers.sizes[first])
        # the researchers whose papers end within _CHUNK_PAPERS, or one larger one
        last = max(first + 1, int(np.searchsorted(ends, begin + _CHUNK_PAPERS, side="right")))
        for name, values in _chunk_table(papers[first:last], c_star, penalty).items():
            columns[name] += values
        first = last
    return {name: tuple(values) for name, values in columns.items()}


def compute_indices(
    profile: ResearcherProfile,
    *,
    c_star: int = 0,
    penalty: PenaltyParams | None = None,
) -> dict[str, float]:
    """Every index for one researcher, keyed in INDEX_NAMES order (see index_table)."""
    table = index_table([profile], c_star=c_star, penalty=penalty)
    return {name: column[0] for name, column in table.items()}

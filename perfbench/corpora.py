"""Seeded synthetic corpora for the benchmark workloads.

One generator feeds every workload.  Citations per paper are the floor of a
log-normal draw, so uncited papers appear at the rate the distribution gives
them; paper counts per researcher are log-normal (right-skewed); authors per
paper are 1 + Poisson.  Nothing is filtered after drawing: a researcher whose
papers are all uncited stays in the corpus, and so does any other case the
program may mishandle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAPERS_MU, PAPERS_SIGMA = 3.51, 0.6  # mean about 40 papers per researcher
CITATIONS_MU, CITATIONS_SIGMA = 1.6, 1.4  # about 13% of papers uncited
AUTHORS_EXTRA_MEAN = 2.5
PAPERS_PER_YEAR_MU, PAPERS_PER_YEAR_SIGMA = 0.7, 0.4
MAX_YEARS = 50
RAY_COPIES = 20


@dataclass(frozen=True, eq=False)
class Corpus:
    """Researchers with per-paper records, stored as flat arrays.

    ``owner[i]`` is the researcher index of paper row ``i``; rows of one
    researcher are contiguous and in publication order.
    """

    ids: tuple[str, ...]
    years: np.ndarray
    owner: np.ndarray
    citations: np.ndarray
    authors: np.ndarray

    @property
    def size(self) -> int:
        return len(self.ids)

    def coauthors(self) -> np.ndarray:
        return np.bincount(self.owner, weights=self.authors, minlength=self.size).astype(np.int64)

    def total_citations(self) -> np.ndarray:
        return np.bincount(self.owner, weights=self.citations, minlength=self.size).astype(np.int64)

    def profiles_csv(self) -> str:
        return "id,career_years\n" + "".join(
            f"{label},{int(value)}\n" for label, value in zip(self.ids, self.years)
        )

    def papers_csv(self) -> str:
        labels = self.ids
        return "id,citations,authors\n" + "".join(
            f"{labels[owner]},{cited},{count}\n"
            for owner, cited, count in zip(
                self.owner.tolist(), self.citations.tolist(), self.authors.tolist()
            )
        )

    def aggregates_csv(self) -> str:
        return "id,years,coauthors,citations\n" + "".join(
            f"{label},{int(y)},{int(c)},{int(t)}\n"
            for label, y, c, t in zip(
                self.ids, self.years, self.coauthors(), self.total_citations()
            )
        )


def generate(rng: np.random.Generator, size: int, prefix: str = "r") -> Corpus:
    """Draw ``size`` researchers from the shared distributions."""
    papers = np.maximum(1, np.rint(rng.lognormal(PAPERS_MU, PAPERS_SIGMA, size))).astype(np.int64)
    rate = rng.lognormal(PAPERS_PER_YEAR_MU, PAPERS_PER_YEAR_SIGMA, size)
    years = np.clip(np.rint(papers / rate), 1, MAX_YEARS).astype(np.int64)
    rows = int(papers.sum())
    return Corpus(
        ids=tuple(f"{prefix}{index:05d}" for index in range(size)),
        years=years,
        owner=np.repeat(np.arange(size), papers),
        citations=np.floor(rng.lognormal(CITATIONS_MU, CITATIONS_SIGMA, rows)).astype(np.int64),
        authors=1 + rng.poisson(AUTHORS_EXTRA_MEAN, rows).astype(np.int64),
    )


def with_ray(rng: np.random.Generator, size: int) -> Corpus:
    """``size - RAY_COPIES`` drawn researchers plus k-fold copies (k = 1..20) of one.

    The copied profile has one career year and its drawn citations scaled
    up until its years-per-citation is below everyone else's, which puts it
    on the efficient frontier.  Copy k has k years and every paper k times,
    so all copies share one ratio point: a degenerate frontier where every
    copy scores exactly 1 and its row binds in every program.
    """
    drawn = generate(rng, size - RAY_COPIES)
    base = generate(rng, 1, prefix="ray")
    best_ratio = float(np.min(drawn.years / np.maximum(drawn.total_citations(), 1)))
    scale = int(np.ceil(1.25 / (best_ratio * max(int(base.citations.sum()), 1))))
    base_citations = base.citations * max(scale, 1)
    owner = [drawn.owner]
    citations = [drawn.citations]
    authors = [drawn.authors]
    for copy in range(1, RAY_COPIES + 1):
        index = drawn.size + copy - 1
        owner.append(np.full(copy * len(base_citations), index))
        citations.append(np.tile(base_citations, copy))
        authors.append(np.tile(base.authors, copy))
    return Corpus(
        ids=drawn.ids + tuple(f"ray{copy:02d}" for copy in range(1, RAY_COPIES + 1)),
        years=np.concatenate([drawn.years, np.arange(1, RAY_COPIES + 1)]),
        owner=np.concatenate(owner),
        citations=np.concatenate(citations),
        authors=np.concatenate(authors),
    )

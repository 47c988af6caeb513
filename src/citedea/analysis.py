"""Ranking, rank correlation, and assembled per-researcher metric reports."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import DmuAggregate, PaperColumns, ResearcherProfile
from .dea import DEFAULT_EPSILON, DmuSet, ccr_all
from .indices import PenaltyParams, index_table


class AnalysisError(ValueError):
    """Raised for inconsistent ranking or report requests."""


@dataclass(frozen=True)
class CorrelationPair:
    metric_a: str
    metric_b: str
    coefficient: float


@dataclass(frozen=True)
class MetricReport:
    """Per-researcher metric columns plus their competition ranks and rank correlations.

    ``columns`` maps each metric, in output order, to its values aligned with
    ``ids``; counts and h/g stay ints.  ``rankings`` maps each rankable
    metric, in the order correlation pairs are formed, to its ranks aligned
    with ``ids``.
    """

    ids: tuple[str, ...]
    columns: Mapping[str, tuple[float, ...]]
    rankings: Mapping[str, tuple[int, ...]]
    correlations: tuple[CorrelationPair, ...]


def rank(scores: Sequence[float], higher_is_better: bool = True) -> tuple[int, ...]:
    """Competition ranks of ``scores``, in input order.

    A score's rank is one plus the number of strictly better scores, so
    equal scores share a rank and the next distinct score's rank jumps by
    the size of the tied group.
    """
    values = [float(value) for value in scores]
    if any(math.isnan(value) for value in values):
        raise AnalysisError("cannot rank NaN scores")
    # negation is exact, so "better" is "smaller key" in both directions
    sign = -1.0 if higher_is_better else 1.0
    keys = sorted(sign * value for value in values)
    return tuple(1 + bisect_left(keys, sign * value) for value in values)


def rank_correlation(ranks_a: Sequence[float], ranks_b: Sequence[float]) -> float:
    """Pearson product-moment correlation of two rank vectors aligned by position.

    Integer ranks with n·max|rank|² < 2**62 are summed exactly, so the result is correctly
    rounded whenever it is rational, as for two tie-free rankings; others use np.corrcoef.
    """
    count = len(ranks_a)
    if count != len(ranks_b):
        raise AnalysisError(f"rank vectors must have equal lengths, got {count} and {len(ranks_b)}")
    vectors = np.array([ranks_a, ranks_b], dtype=float)
    finite = np.isfinite(vectors)
    if not finite.all():
        bad = vectors[~finite][0]
        raise AnalysisError(f"ranks must be finite, got {bad}; pass the ranks that rank() returns")
    if count < 2 or (vectors.min(axis=1) == vectors.max(axis=1)).any():
        raise AnalysisError("rank correlation needs two rank vectors with variance")
    if not (count * np.abs(vectors).max() ** 2 < 2**62 and (vectors == vectors.round()).all()):
        return max(-1.0, min(1.0, float(np.corrcoef(vectors)[0, 1])))
    a, b = vectors.astype(np.int64)  # int64 dot products are exact below 2**63
    sum_a, sum_b = int(a.sum()), int(b.sum())
    covariance = count * int(a @ b) - sum_a * sum_b
    product = (count * int(a @ a) - sum_a**2) * (count * int(b @ b) - sum_b**2)
    # the root to 128 fractional bits: only the division rounds, correctly bar a near tie
    coefficient = (covariance << 128) / math.isqrt(product << 256)
    return max(-1.0, min(1.0, coefficient))


# rankable metrics, in the order correlation pairs are formed
_RANKED_ORDER = ("t", "dea", "h", "g", "a", "r")


def build_report(
    profiles: Sequence[ResearcherProfile] | PaperColumns | None = None,
    aggregates: Sequence[DmuAggregate] | None = None,
    *,
    h_scores: Mapping[str, int] | None = None,
    c_star: int = 0,
    penalty: PenaltyParams | None = None,
    epsilon: float = DEFAULT_EPSILON,
) -> MetricReport:
    """Assemble every computable metric, ranking, and correlation.

    Exactly one of ``profiles``, a list of profiles or a PaperColumns with
    career years, and ``aggregates`` must be given.  The columns are years,
    coauthors and citations, then every index in INDEX_NAMES order with
    per-paper input, or the h column when aggregate input comes with
    ``h_scores`` (one value per researcher), then dea.
    Rankings and correlations cover the rankable metrics present: t, dea,
    and h, plus g, a, and r with per-paper input.
    """
    if (profiles is None) == (aggregates is None):
        raise AnalysisError("provide exactly one of profiles or aggregates")
    if profiles is not None and h_scores is not None:
        raise AnalysisError("h_scores applies only to aggregate input")

    if profiles is not None:
        papers = PaperColumns.of(profiles)
        aggregates = papers.aggregates()
    ids = tuple(item.id for item in aggregates)

    columns: dict[str, tuple] = {
        "years": tuple(item.years for item in aggregates),
        "coauthors": tuple(item.coauthors for item in aggregates),
        "citations": tuple(item.citations for item in aggregates),
    }
    if profiles is not None:
        columns.update(index_table(papers, c_star=c_star, penalty=penalty))
    elif h_scores is not None:
        missing = [label for label in ids if label not in h_scores]
        if missing:
            raise AnalysisError(
                f"h_scores is missing researcher(s) {', '.join(sorted(missing))}"
            )
        columns["h"] = tuple(h_scores[label] for label in ids)

    scores = ccr_all(DmuSet.from_aggregates(aggregates), epsilon=epsilon)
    columns["dea"] = tuple(score.score for score in scores)

    rankings = {name: rank(columns[name]) for name in _RANKED_ORDER if name in columns}
    # an all-tied rank vector has no variance to correlate against
    varied = [name for name, ranks in rankings.items() if len(set(ranks)) > 1]
    correlations = tuple(
        CorrelationPair(first, second, rank_correlation(rankings[first], rankings[second]))
        for position, first in enumerate(varied)
        for second in varied[position + 1 :]
    )
    return MetricReport(
        ids=ids, columns=columns, rankings=rankings, correlations=correlations
    )

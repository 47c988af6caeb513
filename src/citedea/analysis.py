"""Ranking, rank correlation, and assembled per-researcher metric reports."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import DmuAggregate, ResearcherProfile, aggregate
from .dea import DEFAULT_EPSILON, DmuSet, ccr_all
from .indices import IndexName, PenaltyParams, compute_indices


class AnalysisError(ValueError):
    """Raised for inconsistent ranking or report requests."""


@dataclass(frozen=True)
class RankEntry:
    id: str
    score: float
    rank: int


@dataclass(frozen=True)
class Ranking:
    """Competition-ranked scores, in the score list's original order."""

    entries: tuple[RankEntry, ...]

    def rank_of(self, researcher: str) -> int:
        for entry in self.entries:
            if entry.id == researcher:
                return entry.rank
        raise AnalysisError(f"no entry for researcher {researcher!r}")


@dataclass(frozen=True)
class CorrelationPair:
    metric_a: str
    metric_b: str
    coefficient: float


@dataclass(frozen=True)
class CorrelationReport:
    pairs: tuple[CorrelationPair, ...]


@dataclass(frozen=True)
class MetricReport:
    """Per-researcher metric columns plus rankings and rank correlations.

    ``metrics`` fixes the column order; ``columns`` maps each metric to its
    values aligned with ``ids``; ``rankings`` covers the rankable metrics,
    in the order correlation pairs are formed.
    """

    ids: tuple[str, ...]
    metrics: tuple[str, ...]
    columns: Mapping[str, tuple[float, ...]]
    rankings: Mapping[str, Ranking]
    correlations: CorrelationReport


def rank(scores: Sequence[tuple[str, float]], higher_is_better: bool = True) -> Ranking:
    """Competition-rank scores: ties share the best rank, then the count skips.

    An entry's rank is one plus the number of strictly better scores, so
    equal scores share a rank and the next distinct score's rank jumps by
    the size of the tied group.  Input order is preserved.
    """
    values = [float(value) for _, value in scores]
    if any(math.isnan(value) for value in values):
        raise AnalysisError("cannot rank NaN scores")
    # negation is exact, so "better" is "smaller key" in both directions
    sign = -1.0 if higher_is_better else 1.0
    keys = sorted(sign * value for value in values)
    return Ranking(
        entries=tuple(
            RankEntry(id=str(researcher), score=value, rank=1 + bisect_left(keys, sign * value))
            for (researcher, _), value in zip(scores, values)
        )
    )


def rank_correlation(ranks_a: Ranking, ranks_b: Ranking) -> float:
    """Pearson product-moment correlation of two id-aligned rank vectors."""
    positions = {entry.id: entry.rank for entry in ranks_b.entries}
    labels = [entry.id for entry in ranks_a.entries]
    if (
        len(set(labels)) != len(labels)
        or len(positions) != len(ranks_b.entries)
        or set(labels) != set(positions)
    ):
        raise AnalysisError("rankings must cover the same researcher ids exactly once")
    vector_a = np.array([entry.rank for entry in ranks_a.entries], dtype=float)
    vector_b = np.array([positions[label] for label in labels], dtype=float)
    if len(vector_a) < 2 or vector_a.var() == 0.0 or vector_b.var() == 0.0:
        raise AnalysisError("rank correlation needs two rank vectors with variance")
    coefficient = float(np.corrcoef(vector_a, vector_b)[0, 1])
    return max(-1.0, min(1.0, coefficient))


_RAW_COLUMNS = ("years", "coauthors", "citations")
_METRIC_ORDER = tuple(name.value for name in IndexName) + ("dea",)
# rankable metrics, in the order correlation pairs are formed
_RANKED_ORDER = ("t", "dea", "h", "g", "a", "r")


def build_report(
    profiles: Sequence[ResearcherProfile] | None = None,
    aggregates: Sequence[DmuAggregate] | None = None,
    *,
    h_scores: Mapping[str, int] | None = None,
    metrics: Iterable[str] | None = None,
    c_star: int = 0,
    penalty: PenaltyParams | None = None,
    epsilon: float = DEFAULT_EPSILON,
) -> MetricReport:
    """Assemble every computable metric, ranking, and correlation.

    Exactly one of ``profiles`` and ``aggregates`` must be given.  Per-paper
    input yields every index; aggregate input yields efficiency only, plus
    the h column when ``h_scores`` supplies one value per researcher.
    ``metrics`` restricts (and checks) the metric columns; the default keeps
    everything computable.  Rankings and correlations cover the rankable
    metrics present: t, dea, and h, plus g, a, and r with per-paper input.
    """
    if (profiles is None) == (aggregates is None):
        raise AnalysisError("provide exactly one of profiles or aggregates")
    if profiles is not None and h_scores is not None:
        raise AnalysisError("h_scores applies only to aggregate input")

    if profiles is not None:
        aggregates = [aggregate(profile) for profile in profiles]
    ids = tuple(item.id for item in aggregates)

    available: dict[str, list[float]] = {
        "years": [float(item.years) for item in aggregates],
        "coauthors": [float(item.coauthors) for item in aggregates],
        "citations": [float(item.citations) for item in aggregates],
    }
    if profiles is not None:
        table = [
            compute_indices(profile, c_star=c_star, penalty=penalty) for profile in profiles
        ]
        for column in zip(*table):
            available[column[0].name.value] = [item.value for item in column]
    elif h_scores is not None:
        missing = [label for label in ids if label not in h_scores]
        if missing:
            raise AnalysisError(
                f"h_scores is missing researcher(s) {', '.join(sorted(missing))}"
            )
        available["h"] = [float(h_scores[label]) for label in ids]

    scores = ccr_all(DmuSet.from_aggregates(aggregates), epsilon=epsilon)
    available["dea"] = [score.score for score in scores]

    if metrics is None:
        requested = [name for name in _METRIC_ORDER if name in available]
    else:
        requested = []
        for name in metrics:
            if name not in _METRIC_ORDER:
                raise AnalysisError(f"unknown metric {name!r}")
            if name not in available:
                raise AnalysisError(f"{name} requires per-paper records")
            if name not in requested:
                requested.append(name)
        requested = [name for name in _METRIC_ORDER if name in requested]

    columns = {name: tuple(available[name]) for name in _RAW_COLUMNS}
    columns.update({name: tuple(available[name]) for name in requested})

    ranked = [name for name in _RANKED_ORDER if name in requested]
    rankings = {
        name: rank(list(zip(ids, columns[name]))) for name in ranked
    }
    pairs = []
    for position, first in enumerate(ranked):
        for second in ranked[position + 1 :]:
            # an all-tied rank vector has no variance to correlate against
            if len({entry.rank for entry in rankings[first].entries}) < 2:
                continue
            if len({entry.rank for entry in rankings[second].entries}) < 2:
                continue
            pairs.append(
                CorrelationPair(
                    metric_a=first,
                    metric_b=second,
                    coefficient=rank_correlation(rankings[first], rankings[second]),
                )
            )

    return MetricReport(
        ids=ids,
        metrics=tuple(_RAW_COLUMNS) + tuple(requested),
        columns=columns,
        rankings=rankings,
        correlations=CorrelationReport(pairs=tuple(pairs)),
    )

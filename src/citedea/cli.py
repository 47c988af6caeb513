"""Command line interface: ingestion, per-command analysis, and text emission."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from .analysis import AnalysisError, MetricReport, build_report
from .corpus import (
    CorpusError,
    aggregate,
    parse_aggregates,
    parse_h_values,
    parse_papers,
    parse_profiles,
)
from .dea import DEFAULT_EPSILON, DeaError, DmuSet, ccr_all, frontier
from .indices import PenaltyParams, compute_indices, paper_indices

_INT_COLUMNS = {"years", "coauthors", "citations", "h", "g"}


def _is_int_column(name: str) -> bool:
    return name in _INT_COLUMNS or name.endswith("_rank")


def _cell(name: str, value, float_format: str) -> str:
    """Render one cell; floats use ``float_format`` ("" is the shortest round-trip form)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if _is_int_column(name):
        return str(int(value))
    return format(float(value), float_format)


def _json_value(name: str, value):
    if isinstance(value, (bool, str)):
        return value
    if _is_int_column(name):
        return int(value)
    return float(value)


def _render_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    cells = [list(headers)]
    for row in rows:
        cells.append([_cell(name, value, ".3f") for name, value in zip(headers, row)])
    widths = [max(len(line[column]) for line in cells) for column in range(len(headers))]
    lines = []
    for line in cells:
        rendered = [
            cell.ljust(width) if column == 0 else cell.rjust(width)
            for column, (cell, width) in enumerate(zip(line, widths))
        ]
        lines.append("  ".join(rendered).rstrip())
    return "\n".join(lines) + "\n"


def _render_csv(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(_cell(name, value, "") for name, value in zip(headers, row)))
    return "\n".join(lines) + "\n"


def _render_json(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    data = [
        {name: _json_value(name, value) for name, value in zip(headers, row)}
        for row in rows
    ]
    return json.dumps(data, indent=2) + "\n"


def _emit(headers: Sequence[str], rows: Sequence[Sequence], output_format: str) -> str:
    if output_format == "csv":
        return _render_csv(headers, rows)
    if output_format == "json":
        return _render_json(headers, rows)
    return _render_table(headers, rows)


def _load_aggregates(options):
    if options.aggregates is not None:
        return parse_aggregates(Path(options.aggregates).read_text())
    profiles = parse_profiles(
        Path(options.profiles).read_text(), Path(options.papers).read_text()
    )
    return [aggregate(profile) for profile in profiles]


def _penalty(options) -> PenaltyParams:
    return PenaltyParams(a=options.penalty_a, b=options.penalty_b)


def _cmd_indices(options) -> str:
    papers_text = Path(options.papers).read_text()
    penalty = _penalty(options)
    if options.profiles is not None:
        table = [
            (profile.id, compute_indices(profile, c_star=options.c_star, penalty=penalty))
            for profile in parse_profiles(Path(options.profiles).read_text(), papers_text)
        ]
    else:
        # without career years only the per-list indices are computable
        table = [
            (researcher, paper_indices(papers, penalty=penalty))
            for researcher, papers in parse_papers(papers_text).items()
        ]
    # the parsers reject empty input, so the table has a first row to name the columns
    headers = ["id"] + [item.name.value for item in table[0][1]]
    rows = [[label] + [item.value for item in values] for label, values in table]
    return _emit(headers, rows, options.format)


def _cmd_dea(options) -> str:
    aggregates = _load_aggregates(options)
    scores = ccr_all(DmuSet.from_aggregates(aggregates), epsilon=options.epsilon)
    headers = ["id", "years", "coauthors", "citations", "efficiency"]
    if options.format == "json":
        data = []
        for item, score in zip(aggregates, scores):
            data.append(
                {
                    "id": item.id,
                    "years": item.years,
                    "coauthors": item.coauthors,
                    "citations": item.citations,
                    "efficiency": score.score,
                    "input_weights": list(score.input_weights),
                    "output_weights": list(score.output_weights),
                }
            )
        return json.dumps(data, indent=2) + "\n"
    rows = [
        [item.id, item.years, item.coauthors, item.citations, score.score]
        for item, score in zip(aggregates, scores)
    ]
    return _emit(headers, rows, options.format)


def _report(options) -> MetricReport:
    h_scores = None
    if getattr(options, "h_values", None) is not None:
        h_scores = parse_h_values(Path(options.h_values).read_text())
    if options.aggregates is not None:
        return build_report(
            aggregates=parse_aggregates(Path(options.aggregates).read_text()),
            h_scores=h_scores,
            c_star=options.c_star,
            penalty=_penalty(options),
            epsilon=options.epsilon,
        )
    profiles = parse_profiles(
        Path(options.profiles).read_text(), Path(options.papers).read_text()
    )
    return build_report(
        profiles=profiles,
        c_star=options.c_star,
        penalty=_penalty(options),
        epsilon=options.epsilon,
    )


def _rank_columns(report: MetricReport) -> tuple[list[str], list[list]]:
    # rankings are built in rank order, each with its entries in report.ids order
    headers = [f"{name}_rank" for name in report.rankings]
    rows = [
        [ranking.entries[position].rank for ranking in report.rankings.values()]
        for position in range(len(report.ids))
    ]
    return headers, rows


def _cmd_rank(options) -> str:
    report = _report(options)
    rank_headers, rank_rows = _rank_columns(report)
    headers = ["id"] + rank_headers
    rows = [
        [researcher] + rank_rows[position]
        for position, researcher in enumerate(report.ids)
    ]
    return _emit(headers, rows, options.format)


def _cmd_correlate(options) -> str:
    report = _report(options)
    headers = ["metric_a", "metric_b", "coefficient"]
    rows = [
        [pair.metric_a, pair.metric_b, pair.coefficient]
        for pair in report.correlations.pairs
    ]
    return _emit(headers, rows, options.format)


def _cmd_frontier(options) -> str:
    dmus = DmuSet.from_aggregates(_load_aggregates(options))
    efficient = frontier(dmus)
    on_frontier = set(efficient)
    points = dmus.inputs / dmus.outputs[:, 0][:, None]
    headers = ["id", "years_per_citation", "coauthors_per_citation", "efficient"]
    rows = [
        [label, points[index, 0], points[index, 1], label in on_frontier]
        for index, label in enumerate(dmus.ids)
    ]
    if options.format == "json":
        data = {
            "frontier": efficient,
            "points": [
                {name: _json_value(name, value) for name, value in zip(headers, row)}
                for row in rows
            ],
        }
        return json.dumps(data, indent=2) + "\n"
    return _emit(headers, rows, options.format)


def _cmd_report(options) -> str:
    report = _report(options)
    rank_headers, rank_rows = _rank_columns(report)
    headers = ["id"] + list(report.metrics) + rank_headers
    rows = []
    for position, researcher in enumerate(report.ids):
        row = [researcher]
        row += [report.columns[name][position] for name in report.metrics]
        row += rank_rows[position]
        rows.append(row)
    correlation_headers = ["metric_a", "metric_b", "coefficient"]
    correlation_rows = [
        [pair.metric_a, pair.metric_b, pair.coefficient]
        for pair in report.correlations.pairs
    ]
    if options.format == "json":
        data = {
            "researchers": [
                {name: _json_value(name, value) for name, value in zip(headers, row)}
                for row in rows
            ],
            "rankings": {
                name: [
                    {"id": entry.id, "score": entry.score, "rank": entry.rank}
                    for entry in ranking.entries
                ]
                for name, ranking in sorted(report.rankings.items())
            },
            "correlations": [
                {
                    "metric_a": pair.metric_a,
                    "metric_b": pair.metric_b,
                    "coefficient": pair.coefficient,
                }
                for pair in report.correlations.pairs
            ],
        }
        return json.dumps(data, indent=2) + "\n"
    if options.format == "csv":
        # correlations ride along as comment rows so the table still parses
        text = _render_csv(headers, rows)
        for pair in correlation_rows:
            text += "# correlation," + ",".join(_cell("", cell, "") for cell in pair) + "\n"
        return text
    text = _render_table(headers, rows)
    text += "\ncorrelations:\n"
    if correlation_rows:
        text += _render_table(correlation_headers, correlation_rows)
    else:
        text += "(none)\n"
    return text


def _add_source_flags(parser: argparse.ArgumentParser, h_values: bool = False) -> None:
    parser.add_argument("--aggregates", help="aggregate CSV: id,years,coauthors,citations")
    parser.add_argument("--profiles", help="profile CSV: id,career_years")
    parser.add_argument("--papers", help="paper CSV: id,citations,authors")
    if h_values:
        parser.add_argument(
            "--h-values",
            help="CSV of id,h pairs supplying the h column for aggregate input",
        )


def _add_index_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--c-star",
        type=int,
        default=0,
        help="citation threshold for the thresholded t column (default 0)",
    )
    parser.add_argument(
        "--penalty-a",
        type=float,
        default=0.0,
        help="penalty slope per co-author above the customary count (default 0)",
    )
    parser.add_argument(
        "--penalty-b",
        type=int,
        default=1,
        help="customary co-author count that draws no penalty (default 1)",
    )


def _add_epsilon_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--epsilon",
        type=float,
        default=DEFAULT_EPSILON,
        help="strictly positive lower bound on every weight (default 1e-6)",
    )


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output format (default table)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citedea",
        description=(
            "Citation indices and input-oriented CCR efficiency analysis "
            "for researcher evaluation."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    indices = commands.add_parser(
        "indices", help="per-researcher citation indices from per-paper records"
    )
    indices.add_argument("--papers", required=True, help="paper CSV: id,citations,authors")
    indices.add_argument("--profiles", help="profile CSV adding career years for the t columns")
    _add_index_flags(indices)
    _add_format_flag(indices)
    indices.set_defaults(handler=_cmd_indices)

    dea = commands.add_parser("dea", help="CCR efficiency score per researcher")
    _add_source_flags(dea)
    _add_epsilon_flag(dea)
    _add_format_flag(dea)
    dea.set_defaults(handler=_cmd_dea)

    rank_parser = commands.add_parser("rank", help="competition ranks per rankable metric")
    _add_source_flags(rank_parser, h_values=True)
    _add_index_flags(rank_parser)
    _add_epsilon_flag(rank_parser)
    _add_format_flag(rank_parser)
    rank_parser.set_defaults(handler=_cmd_rank)

    correlate = commands.add_parser(
        "correlate", help="rank correlations between rankable metrics"
    )
    _add_source_flags(correlate, h_values=True)
    _add_index_flags(correlate)
    _add_epsilon_flag(correlate)
    _add_format_flag(correlate)
    correlate.set_defaults(handler=_cmd_correlate)

    frontier_parser = commands.add_parser(
        "frontier", help="per-citation input points and the efficient frontier"
    )
    _add_source_flags(frontier_parser)
    _add_format_flag(frontier_parser)
    frontier_parser.set_defaults(handler=_cmd_frontier)

    report = commands.add_parser(
        "report", help="full metric, rank, and correlation report"
    )
    _add_source_flags(report, h_values=True)
    _add_index_flags(report)
    _add_epsilon_flag(report)
    _add_format_flag(report)
    report.set_defaults(handler=_cmd_report)

    return parser


def _validate(options, parser: argparse.ArgumentParser) -> None:
    if options.command != "indices" and hasattr(options, "aggregates"):
        if options.aggregates is not None:
            if options.profiles is not None or options.papers is not None:
                parser.error("use either --aggregates or --profiles with --papers, not both")
        elif options.profiles is None or options.papers is None:
            parser.error("provide --aggregates, or --profiles together with --papers")
        if getattr(options, "h_values", None) is not None and options.aggregates is None:
            parser.error("--h-values applies only to --aggregates input")
    if getattr(options, "c_star", None) is not None and options.c_star < 0:
        parser.error("--c-star must be non-negative")
    if getattr(options, "penalty_a", None) is not None and (
        math.isnan(options.penalty_a) or options.penalty_a < 0
    ):
        parser.error("--penalty-a must be non-negative")
    if getattr(options, "penalty_b", None) is not None and options.penalty_b < 1:
        parser.error("--penalty-b must be a positive integer")
    if getattr(options, "epsilon", None) is not None and not (
        math.isfinite(options.epsilon) and options.epsilon > 0
    ):
        parser.error("--epsilon must be strictly positive")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    try:
        _validate(options, parser)
        output = options.handler(options)
    except (CorpusError, DeaError, AnalysisError, OSError, ArithmeticError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    sys.stdout.write(output)
    return 0

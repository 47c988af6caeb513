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

def _cell(value, float_format: str) -> str:
    """Render one cell; floats use ``float_format`` ("" is the shortest round-trip form)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (str, int)):
        return str(value)
    return format(float(value), float_format)


def _render_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    cells = [list(headers)]
    for row in rows:
        cells.append([_cell(value, ".3f") for value in row])
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
        lines.append(",".join(_cell(value, "") for value in row))
    return "\n".join(lines) + "\n"


def _json_rows(headers: Sequence[str], rows: Sequence[Sequence]) -> list[dict]:
    return [dict(zip(headers, row)) for row in rows]


def _render_json(data) -> str:
    return json.dumps(data, indent=2) + "\n"


def _emit(headers: Sequence[str], rows: Sequence[Sequence], output_format: str) -> str:
    if output_format == "csv":
        return _render_csv(headers, rows)
    if output_format == "json":
        return _render_json(_json_rows(headers, rows))
    return _render_table(headers, rows)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as error:
        raise CorpusError(
            f"{path} is not UTF-8 text (byte 0x{error.object[error.start]:02x} at offset "
            f"{error.start}); save it as UTF-8"
        ) from None


def _load_profiles(options):
    return parse_profiles(_read(options.profiles), _read(options.papers))


def _load_aggregates(options):
    if options.aggregates is not None:
        return parse_aggregates(_read(options.aggregates))
    return [aggregate(profile) for profile in _load_profiles(options)]


def _penalty(options) -> PenaltyParams:
    return PenaltyParams(a=options.penalty_a, b=options.penalty_b)


def _cmd_indices(options) -> str:
    papers_text = _read(options.papers)
    penalty = _penalty(options)
    if options.profiles is not None:
        table = [
            (profile.id, compute_indices(profile, c_star=options.c_star, penalty=penalty))
            for profile in parse_profiles(_read(options.profiles), papers_text)
        ]
    else:
        # without career years only the per-list indices are computable
        table = [
            (researcher, paper_indices(papers, penalty=penalty))
            for researcher, papers in parse_papers(papers_text).items()
        ]
    # the parsers reject empty input, so the table has a first row to name the columns
    headers = ["id", *table[0][1]]
    rows = [[label, *values.values()] for label, values in table]
    return _emit(headers, rows, options.format)


def _cmd_dea(options) -> str:
    aggregates = _load_aggregates(options)
    scores = ccr_all(DmuSet.from_aggregates(aggregates), epsilon=options.epsilon)
    headers = ["id", "years", "coauthors", "citations", "efficiency"]
    rows = [
        [item.id, item.years, item.coauthors, item.citations, score.score]
        for item, score in zip(aggregates, scores)
    ]
    if options.format == "json":
        # json also carries the weights behind each score, as two list columns
        headers += ["input_weights", "output_weights"]
        for row, score in zip(rows, scores):
            row += [list(score.input_weights), list(score.output_weights)]
    return _emit(headers, rows, options.format)


def _report(options) -> MetricReport:
    if options.aggregates is None:
        sources = {"profiles": _load_profiles(options)}
    else:
        h_scores = None
        if options.h_values is not None:
            h_scores = parse_h_values(_read(options.h_values))
        aggregates = parse_aggregates(_read(options.aggregates))
        sources = {"aggregates": aggregates, "h_scores": h_scores}
    return build_report(
        **sources,
        c_star=options.c_star,
        penalty=_penalty(options),
        epsilon=options.epsilon,
    )


def _researcher_rows(
    report: MetricReport, metrics: Sequence[str]
) -> tuple[list[str], list[list]]:
    """One row per researcher: its id, the ``metrics`` columns, then every rank."""
    headers = ["id", *metrics] + [f"{name}_rank" for name in report.rankings]
    columns = [report.ids, *(report.columns[name] for name in metrics)]
    return headers, [list(row) for row in zip(*columns, *report.rankings.values())]


_CORRELATION_HEADERS = ("metric_a", "metric_b", "coefficient")


def _correlation_rows(report: MetricReport) -> list[list]:
    return [
        [pair.metric_a, pair.metric_b, pair.coefficient]
        for pair in report.correlations
    ]


def _cmd_rank(options) -> str:
    headers, rows = _researcher_rows(_report(options), ())
    return _emit(headers, rows, options.format)


def _cmd_correlate(options) -> str:
    report = _report(options)
    return _emit(_CORRELATION_HEADERS, _correlation_rows(report), options.format)


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
        return _render_json({"frontier": efficient, "points": _json_rows(headers, rows)})
    return _emit(headers, rows, options.format)


def _cmd_report(options) -> str:
    report = _report(options)
    headers, rows = _researcher_rows(report, tuple(report.columns))
    correlation_rows = _correlation_rows(report)
    if options.format == "json":
        data = {
            "researchers": _json_rows(headers, rows),
            "rankings": {
                name: [
                    {"id": researcher, "score": float(score), "rank": position}
                    for researcher, score, position in zip(
                        report.ids, report.columns[name], ranks
                    )
                ]
                for name, ranks in sorted(report.rankings.items())
            },
            "correlations": _json_rows(_CORRELATION_HEADERS, correlation_rows),
        }
        return _render_json(data)
    if options.format == "csv":
        # correlations ride along as comment rows so the table still parses
        text = _render_csv(headers, rows)
        for pair in correlation_rows:
            text += "# correlation," + ",".join(_cell(cell, "") for cell in pair) + "\n"
        return text
    text = _render_table(headers, rows)
    text += "\ncorrelations:\n"
    if correlation_rows:
        text += _render_table(_CORRELATION_HEADERS, correlation_rows)
    else:
        text += "(none)\n"
    return text


def _add_paper_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--papers", required=True, help="paper CSV: id,citations,authors")
    parser.add_argument("--profiles", help="profile CSV adding career years for the t columns")


def _add_source_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--aggregates", help="aggregate CSV: id,years,coauthors,citations")
    parser.add_argument("--profiles", help="profile CSV: id,career_years")
    parser.add_argument("--papers", help="paper CSV: id,citations,authors")


def _add_h_values_flag(parser: argparse.ArgumentParser) -> None:
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


_METRIC_FLAGS = (_add_source_flags, _add_h_values_flag, _add_index_flags, _add_epsilon_flag)

# (name, help, handler, flag adders), in the order --help lists them
_COMMANDS = (
    (
        "indices",
        "per-researcher citation indices from per-paper records",
        _cmd_indices,
        (_add_paper_flags, _add_index_flags),
    ),
    (
        "dea",
        "CCR efficiency score per researcher",
        _cmd_dea,
        (_add_source_flags, _add_epsilon_flag),
    ),
    ("rank", "competition ranks per rankable metric", _cmd_rank, _METRIC_FLAGS),
    ("correlate", "rank correlations between rankable metrics", _cmd_correlate, _METRIC_FLAGS),
    (
        "frontier",
        "per-citation input points and the efficient frontier",
        _cmd_frontier,
        (_add_source_flags,),
    ),
    ("report", "full metric, rank, and correlation report", _cmd_report, _METRIC_FLAGS),
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
    for name, summary, handler, flag_adders in _COMMANDS:
        command = commands.add_parser(name, help=summary)
        for add_flags in flag_adders:
            add_flags(command)
        command.add_argument(
            "--format",
            choices=("table", "csv", "json"),
            default="table",
            help="output format (default table)",
        )
        command.set_defaults(handler=handler)
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
        # the whole text is encoded before any byte is written, so a failure leaves
        # stdout empty
        sys.stdout.write(options.handler(options))
    except UnicodeEncodeError as error:
        print(
            f"error: cannot write {error.object[error.start]!a} to stdout, whose "
            f"encoding is {sys.stdout.encoding}; set PYTHONIOENCODING=utf-8",
            file=sys.stderr,
        )
        return 1
    except (CorpusError, DeaError, AnalysisError, OSError, ArithmeticError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0

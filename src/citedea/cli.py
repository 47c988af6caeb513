"""Command line interface: ingestion, per-command analysis, and text emission."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from .analysis import AnalysisError, MetricReport, build_report
from .corpus import CorpusError, parse_aggregates, parse_h_values, parse_paper_columns
from .dea import DEFAULT_EPSILON, DeaError, DmuSet, ccr_all, frontier
from .indices import PenaltyParams, index_table

# rows per piece of CSV output; one piece raised indices' VmHWM on 10 000 researchers 52 -> 55 MB
_CSV_ROWS = 4096


def _cell(value, float_format: str) -> str:
    """Render one cell; floats use ``float_format`` ("" is the shortest round-trip form)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (str, int)):
        return str(value)
    return format(float(value), float_format)


def _render_table(headers: Sequence[str], columns: Sequence[Sequence]) -> str:
    padded = []
    for index, (header, column) in enumerate(zip(headers, columns)):
        cells = [header, *(_cell(value, ".3f") for value in column)]
        width = max(map(len, cells))
        pad = str.ljust if index == 0 else str.rjust
        padded.append([pad(cell, width) for cell in cells])
    return "".join("  ".join(line).rstrip() + "\n" for line in zip(*padded))


def _csv_column(values: Sequence) -> list[str]:
    """Render one column as _cell does with the "" format, a whole column at a time."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return list(map(repr, values))  # format(x, "") of a float is repr(x)
    if kinds <= {str, int}:
        return list(map(str, values))
    return [_cell(value, "") for value in values]


def _render_csv(headers: Sequence[str], columns: Sequence[Sequence]) -> str:
    """``columns`` as CSV, rendered _CSV_ROWS rows at a time to bound the cell strings alive."""
    parts = [",".join(headers) + "\n"]
    for start in range(0, len(columns[0]), _CSV_ROWS):
        cells = [_csv_column(column[start : start + _CSV_ROWS]) for column in columns]
        parts.append("".join(",".join(row) + "\n" for row in zip(*cells)))
    return "".join(parts)


def _json_rows(headers: Sequence[str], columns: Sequence[Sequence]) -> list[dict]:
    return [dict(zip(headers, row)) for row in zip(*columns)]


def _render_json(data) -> str:
    return json.dumps(data, indent=2) + "\n"


def _emit(headers: Sequence[str], columns: Sequence[Sequence], output_format: str) -> str:
    """One table, given as one sequence of values per header, in ``output_format``."""
    if output_format == "csv":
        return _render_csv(headers, columns)
    if output_format == "json":
        return _render_json(_json_rows(headers, columns))
    return _render_table(headers, columns)


def _read(path: str, flag: str) -> str:
    """The text of the file that ``flag`` names; a file that cannot be read is a data error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as error:
        problem = (
            f"not UTF-8 text (byte 0x{error.object[error.start]:02x} at offset "
            f"{error.start}); save it as UTF-8"
        )
    except FileNotFoundError:
        problem = "no such file; check the path"
    except IsADirectoryError:
        problem = "is a directory; give the path of a CSV file"
    except OSError as error:
        problem = error.strerror or str(error)
    raise CorpusError(f"{flag} {path!r}: {problem}")


def _load_profiles(options):
    profiles_text = None if options.profiles is None else _read(options.profiles, "--profiles")
    return parse_paper_columns(_read(options.papers, "--papers"), profiles_text)


def _load_aggregates(options):
    if options.aggregates is not None:
        return parse_aggregates(_read(options.aggregates, "--aggregates"))
    return _load_profiles(options).aggregates()


def _penalty(options) -> PenaltyParams:
    return PenaltyParams(a=options.penalty_a, b=options.penalty_b)


def _cmd_indices(options) -> str:
    # without career years, index_table gives only the first seven indices
    papers = _load_profiles(options)
    table = index_table(papers, c_star=options.c_star, penalty=_penalty(options))
    return _emit(["id", *table], [papers.ids, *table.values()], options.format)


def _cmd_dea(options) -> str:
    aggregates = _load_aggregates(options)
    scores = ccr_all(DmuSet.from_aggregates(aggregates), epsilon=options.epsilon)
    headers = ["id", "years", "coauthors", "citations"]
    columns = [[getattr(item, field) for item in aggregates] for field in headers]
    headers.append("efficiency")
    columns.append([score.score for score in scores])
    if options.format == "json":
        # json also carries the weights behind each score, as two list columns
        headers += ["input_weights", "output_weights"]
        columns += [
            [list(score.input_weights) for score in scores],
            [list(score.output_weights) for score in scores],
        ]
    return _emit(headers, columns, options.format)


def _report(options) -> MetricReport:
    if options.aggregates is None:
        sources = {"profiles": _load_profiles(options)}
    else:
        h_scores = None
        if options.h_values is not None:
            h_scores = parse_h_values(_read(options.h_values, "--h-values"))
        aggregates = parse_aggregates(_read(options.aggregates, "--aggregates"))
        missing = h_scores and sorted({item.id for item in aggregates} - h_scores.keys())
        if missing:
            problem = f"no h value for researcher(s) {', '.join(missing)}; add an id,h row for each"
            raise AnalysisError(f"--h-values {options.h_values!r}: {problem}")
        sources = {"aggregates": aggregates, "h_scores": h_scores}
    return build_report(
        **sources,
        c_star=options.c_star,
        penalty=_penalty(options),
        epsilon=options.epsilon,
    )


def _researcher_table(
    report: MetricReport, metrics: Sequence[str]
) -> tuple[list[str], list[Sequence]]:
    """Headers and columns: each researcher's id, the ``metrics`` columns, then every rank."""
    headers = ["id", *metrics] + [f"{name}_rank" for name in report.rankings]
    metric_columns = (report.columns[name] for name in metrics)
    return headers, [report.ids, *metric_columns, *report.rankings.values()]


_CORRELATION_HEADERS = ("metric_a", "metric_b", "coefficient")


def _correlation_columns(report: MetricReport) -> list[list]:
    return [
        [getattr(pair, field) for pair in report.correlations]
        for field in _CORRELATION_HEADERS
    ]


def _cmd_rank(options) -> str:
    return _emit(*_researcher_table(_report(options), ()), options.format)


def _cmd_correlate(options) -> str:
    report = _report(options)
    return _emit(_CORRELATION_HEADERS, _correlation_columns(report), options.format)


def _cmd_frontier(options) -> str:
    dmus = DmuSet.from_aggregates(_load_aggregates(options))
    efficient = frontier(dmus)
    on_frontier = set(efficient)
    points = dmus.inputs / dmus.outputs[:, 0][:, None]
    headers = ["id", "years_per_citation", "coauthors_per_citation", "efficient"]
    columns = [dmus.ids, *points.T.tolist(), [label in on_frontier for label in dmus.ids]]
    if options.format == "json":
        return _render_json({"frontier": efficient, "points": _json_rows(headers, columns)})
    return _emit(headers, columns, options.format)


def _cmd_report(options) -> str:
    report = _report(options)
    headers, columns = _researcher_table(report, tuple(report.columns))
    correlations = _correlation_columns(report)
    if options.format == "json":
        data = {
            "researchers": _json_rows(headers, columns),
            "rankings": {
                name: _json_rows(
                    ("id", "score", "rank"), [report.ids, map(float, report.columns[name]), ranks]
                )
                for name, ranks in sorted(report.rankings.items())
            },
            "correlations": _json_rows(_CORRELATION_HEADERS, correlations),
        }
        return _render_json(data)
    text = _emit(headers, columns, options.format)
    if options.format == "csv":
        # correlations ride along as comment rows, which the parsers skip
        for line in _render_csv(_CORRELATION_HEADERS, correlations).splitlines(True)[1:]:
            text += "# correlation," + line
        return text
    text += "\ncorrelations:\n"
    if report.correlations:
        return text + _emit(_CORRELATION_HEADERS, correlations, options.format)
    return text + "(none)\n"


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

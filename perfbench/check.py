"""Output checks against independent references, run outside the timed region.

Each ``check_*`` function takes the text a CLI invocation printed and returns
a list of problems; an empty list means the output is correct.  References:

* citation indices: a vectorised numpy computation from sorted cumulative
  citation sums (``reference_indices``);
* efficiency scores: ``scipy.optimize.linprog`` on the same multiplier
  program the package solves, compared to abs 1e-6;
* ranks: competition ranks recomputed from the printed values;
* correlations: Pearson coefficients recomputed from the printed ranks.
"""

from __future__ import annotations

import json
import math

import numpy as np

from corpora import Corpus

DEA_TOL = 1e-6  # the tolerance of the package's own scipy cross-check
SNAP_TOL = 1e-7  # scores this close to 1 are reported as exactly 1
EPSILON = 1e-6  # the CLI's default lower bound on every weight
FLOAT_RTOL = 1e-9
CORRELATION_TOL = 1e-9
RANKED_ORDER = ("t", "dea", "h", "g", "a", "r")
INDEX_COLUMNS = ("h", "g", "a", "r", "individual_h", "si", "si_penalized", "t", "t_thresholded")
INT_COLUMNS = {"years", "coauthors", "citations", "h", "g"}
MAX_REPORTED = 5


def reference_indices(corpus: Corpus) -> dict[str, np.ndarray]:
    """Every index per researcher, with the CLI's defaults (c* = 0, a = 0, b = 1)."""
    size = corpus.size
    # researcher, then citations descending, then input order: the h-core
    # takes equally cited papers in input order
    order = np.lexsort((np.arange(len(corpus.owner)), -corpus.citations, corpus.owner))
    owner = corpus.owner[order]
    cited = corpus.citations[order]
    authors = corpus.authors[order]
    counts = np.bincount(owner, minlength=size)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    position = np.arange(len(owner)) - starts[owner] + 1
    running = np.cumsum(cited)
    cumulative = running - (running[starts] - cited[starts])[owner]
    # both tests are monotone in position within a researcher's sorted list
    h = np.bincount(owner, weights=cited >= position, minlength=size).astype(np.int64)
    g = np.bincount(owner, weights=cumulative >= position * position, minlength=size).astype(np.int64)
    core = position <= h[owner]
    core_citations = np.bincount(owner, weights=np.where(core, cited, 0), minlength=size)
    core_authors = np.bincount(owner, weights=np.where(core, authors, 0), minlength=size)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(h > 0, core_citations / h, 0.0)
        individual_h = np.where(h > 0, h * h / core_authors, 0.0)
    si = np.bincount(owner, weights=cited / authors, minlength=size)
    t = si / corpus.years
    return {
        "h": h,
        "g": g,
        "a": a,
        "r": np.sqrt(core_citations),
        "individual_h": individual_h,
        "si": si,
        "si_penalized": corpus.total_citations().astype(float),
        "t": t,
        "t_thresholded": t,
    }


def reference_dea(corpus: Corpus) -> np.ndarray:
    """Input-oriented CCR scores from scipy's HiGHS on the multiplier program."""
    from scipy.optimize import linprog

    inputs = np.column_stack([corpus.years, corpus.coauthors()]).astype(float)
    outputs = corpus.total_citations().astype(float)[:, None]
    size, output_count = outputs.shape
    a_ub = np.hstack([outputs, -inputs])
    scores = np.full(size, math.nan)
    for target in range(size):
        result = linprog(
            -np.concatenate([outputs[target], np.zeros(inputs.shape[1])]),
            A_ub=a_ub,
            b_ub=np.zeros(size),
            A_eq=np.concatenate([np.zeros(output_count), inputs[target]])[None, :],
            b_eq=[1.0],
            bounds=[(EPSILON, None)] * a_ub.shape[1],
            method="highs",
        )
        if result.status == 0:
            scores[target] = -result.fun
    snap = (scores > 1.0) | (np.abs(scores - 1.0) <= SNAP_TOL)
    scores[snap] = 1.0
    return scores


def competition_ranks(values: np.ndarray) -> np.ndarray:
    """One plus the number of strictly greater values."""
    ordered = np.sort(values)
    return 1 + len(values) - np.searchsorted(ordered, values, side="right")


def _pearson(first: np.ndarray, second: np.ndarray) -> float:
    return float(np.corrcoef(first.astype(float), second.astype(float))[0, 1])


def _expected_pairs(ranks: dict[str, np.ndarray]) -> list[tuple[str, str]]:
    ranked = [name for name in RANKED_ORDER if name in ranks]
    varied = [name for name in ranked if len(set(ranks[name].tolist())) > 1]
    return [
        (first, second)
        for position, first in enumerate(varied)
        for second in varied[position + 1 :]
    ]


def _compare(problems: list[str], label: str, printed: np.ndarray, expected: np.ndarray,
             ids: tuple[str, ...], *, atol: float = 0.0, rtol: float = 0.0) -> None:
    if printed.shape != expected.shape:
        problems.append(f"{label}: {printed.shape[0]} values, expected {expected.shape[0]}")
        return
    bad = ~np.isclose(printed, expected, rtol=rtol, atol=atol) if (atol or rtol) else printed != expected
    for index in np.flatnonzero(bad)[:MAX_REPORTED]:
        problems.append(f"{label} of {ids[index]}: printed {printed[index]!r}, expected {expected[index]!r}")
    if bad.sum() > MAX_REPORTED:
        problems.append(f"{label}: {int(bad.sum()) - MAX_REPORTED} more mismatches")


def _check_indices(problems: list[str], columns: dict[str, np.ndarray],
                   indices: dict[str, np.ndarray], ids: tuple[str, ...]) -> None:
    for name in INDEX_COLUMNS:
        if name in INT_COLUMNS:
            _compare(problems, name, columns[name], indices[name], ids)
        else:
            _compare(problems, name, columns[name], indices[name], ids, rtol=FLOAT_RTOL, atol=FLOAT_RTOL)


def _check_columns(problems: list[str], columns: dict[str, np.ndarray], corpus: Corpus,
                   indices: dict[str, np.ndarray] | None, dea: np.ndarray,
                   h_values: np.ndarray | None) -> dict[str, np.ndarray]:
    """Check value and rank columns of a report; return the printed ranks."""
    ids = corpus.ids
    _compare(problems, "years", columns["years"], corpus.years, ids)
    _compare(problems, "coauthors", columns["coauthors"], corpus.coauthors(), ids)
    _compare(problems, "citations", columns["citations"], corpus.total_citations(), ids)
    if indices is not None:
        _check_indices(problems, columns, indices, ids)
    if h_values is not None:
        _compare(problems, "h", columns["h"], h_values, ids)
    _compare(problems, "dea", columns["dea"], dea, ids, atol=DEA_TOL)
    ranks = {}
    for name in RANKED_ORDER:
        if name in columns:
            ranks[name] = columns[f"{name}_rank"]
            _compare(problems, f"{name}_rank", ranks[name], competition_ranks(columns[name]), ids)
    return ranks


def _check_correlations(problems: list[str], printed: list[tuple[str, str, float]],
                        ranks: dict[str, np.ndarray]) -> None:
    expected = _expected_pairs(ranks)
    if [(first, second) for first, second, _ in printed] != expected:
        problems.append(f"correlation pairs {[p[:2] for p in printed]}, expected {expected}")
        return
    for first, second, coefficient in printed:
        reference = _pearson(ranks[first], ranks[second])
        if not abs(coefficient - reference) <= CORRELATION_TOL:
            problems.append(f"correlation {first}/{second}: printed {coefficient!r}, expected {reference!r}")


def _csv_table(lines: list[str], problems: list[str], size: int) -> tuple[list[str], list[list[str]]]:
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != size:
        problems.append(f"{len(rows)} data rows, expected {size}")
    for number, row in enumerate(rows, start=2):
        if len(row) != len(header):
            problems.append(f"line {number}: {len(row)} cells, expected {len(header)}")
            return header, []
    return header, rows


def _columns(header: list[str], rows: list[list], problems: list[str], ids: tuple[str, ...]) -> dict[str, np.ndarray]:
    printed_ids = tuple(str(row[0]) for row in rows)
    if printed_ids != ids:
        problems.append("researcher ids or their order differ from the input")
    columns = {}
    for position, name in enumerate(header[1:], start=1):
        is_int = name in INT_COLUMNS or name.endswith("_rank")
        columns[name] = np.array([row[position] for row in rows], dtype=np.int64 if is_int else float)
    return columns


def check_aggregate_report_csv(text: str, corpus: Corpus, h_values: np.ndarray, dea: np.ndarray) -> list[str]:
    """``report --aggregates A --h-values H --format csv``."""
    problems: list[str] = []
    lines = text.splitlines()
    table = [line for line in lines if not line.startswith("#")]
    expected_header = ["id", "years", "coauthors", "citations", "h", "dea", "dea_rank", "h_rank"]
    if not table or table[0].split(",") != expected_header:
        return [f"header {table[:1]}, expected {','.join(expected_header)}"]
    header, rows = _csv_table(table, problems, corpus.size)
    if problems:
        return problems
    columns = _columns(header, rows, problems, corpus.ids)
    ranks = _check_columns(problems, columns, corpus, None, dea, h_values)
    printed = []
    for line in lines:
        if line.startswith("#"):
            tag, first, second, coefficient = line.split(",")
            if tag != "# correlation":
                problems.append(f"unexpected comment line {line!r}")
            printed.append((first, second, float(coefficient)))
    _check_correlations(problems, printed, ranks)
    return problems


def check_indices_csv(text: str, corpus: Corpus, indices: dict[str, np.ndarray]) -> list[str]:
    """``indices --profiles P --papers W --format csv``."""
    problems: list[str] = []
    lines = text.splitlines()
    expected_header = ["id", *INDEX_COLUMNS]
    if not lines or lines[0].split(",") != expected_header:
        return [f"header {lines[:1]}, expected {','.join(expected_header)}"]
    header, rows = _csv_table(lines, problems, corpus.size)
    if problems:
        return problems
    columns = _columns(header, rows, problems, corpus.ids)
    _check_indices(problems, columns, indices, corpus.ids)
    return problems


def check_profile_report_json(text: str, corpus: Corpus, indices: dict[str, np.ndarray], dea: np.ndarray) -> list[str]:
    """``report --profiles P --papers W --format json``."""
    problems: list[str] = []
    try:
        data = json.loads(text)
        researchers = data["researchers"]
        rankings = data["rankings"]
        correlations = data["correlations"]
    except (ValueError, KeyError, TypeError) as error:
        return [f"unreadable report: {error!r}"]
    header = ["id", "years", "coauthors", "citations", *INDEX_COLUMNS, "dea",
              *(f"{name}_rank" for name in RANKED_ORDER)]
    if len(researchers) != corpus.size or any(list(row) != header for row in researchers):
        return [f"researcher rows or their keys differ from {header}"]
    columns = _columns(header, [[row[name] for name in header] for row in researchers], problems, corpus.ids)
    ranks = _check_columns(problems, columns, corpus, indices, dea, None)
    if sorted(rankings) != sorted(RANKED_ORDER):
        problems.append(f"rankings for {sorted(rankings)}, expected {sorted(RANKED_ORDER)}")
    else:
        for name, entries in rankings.items():
            if [entry["id"] for entry in entries] != list(corpus.ids):
                problems.append(f"ranking {name}: ids or their order differ from the input")
                continue
            scores = np.array([entry["score"] for entry in entries], dtype=float)
            _compare(problems, f"ranking {name} score", scores, columns[name].astype(float), corpus.ids)
            _compare(problems, f"ranking {name} rank", np.array([entry["rank"] for entry in entries]),
                     ranks[name], corpus.ids)
    printed = [(pair["metric_a"], pair["metric_b"], float(pair["coefficient"])) for pair in correlations]
    _check_correlations(problems, printed, ranks)
    return problems


def perturb(text: str, column: str, delta: float = 1e-3) -> str:
    """The same output with the first researcher's ``column`` value moved by ``delta``."""
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        data["researchers"][0][column] += delta
        return json.dumps(data, indent=2) + "\n"
    lines = text.splitlines()
    position = lines[0].split(",").index(column)
    cells = lines[1].split(",")
    cells[position] = repr(float(cells[position]) + delta)
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"

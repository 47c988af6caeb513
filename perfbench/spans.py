"""Outside-in tracing of the citedea layers, kept in the benchmark's own files.

``Tracer.install`` replaces every function listed in ``citedea.__all__``, at
every ``citedea`` module binding that points at it, with a wrapper that
records a span (name, start, end, parent span).  ``cli`` and ``analysis``
import names directly, so patching only the defining module would miss
their calls.  Spans stay in memory; ``summarize`` turns them into the
per-layer metrics.  A function a later refactor removes is reported as
absent, and the metrics that depend on it read 0.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

# functions whose arguments and results feed counters; kept by reference
# and read after the traced call, so the counting is not inside any span
OBSERVED = {
    "corpus.parse_profiles",
    "corpus.parse_papers",
    "corpus.parse_aggregates",
    "corpus.parse_h_values",
    "dea.ccr_all",
    "lp.solve_lp",
}
# the functions the per-layer metrics are derived from
EXPECTED = OBSERVED | {
    "corpus.aggregate",
    "indices.compute_indices",
    "dea.build_ccr_lp",
    "dea.ccr_efficiency",
    "analysis.build_report",
    "analysis.rank",
    "analysis.rank_correlation",
}
ROOT = "cli.main"


class Tracer:
    """Span store for one traced invocation at a time."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.observations: list[tuple[str, tuple, dict, object]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def reset(self) -> None:
        self.spans = []
        self.observations = []
        self._stack = []

    def call(self, name: str, function, *args, **kwargs):
        """Run ``function`` inside a span named ``name``."""
        spans = self.spans
        index = len(spans)
        parent = self._stack[-1] if self._stack else -1
        spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            spans[index] = (name, start, end, parent)
        if name in OBSERVED:
            self.observations.append((name, args, kwargs, result))
        return result

    def _wrap(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            return self.call(name, function, *args, **kwargs)

        return traced

    def install(self, package) -> None:
        """Patch every public function of ``package`` at every binding in its modules."""
        wrappers = {}
        for public in package.__all__:
            value = getattr(package, public, None)
            if inspect.isfunction(value):
                layer = value.__module__.rsplit(".", 1)[-1]
                wrappers[id(value)] = (value, self._wrap(f"{layer}.{value.__name__}", value))
        found = {f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}" for value, _ in wrappers.values()}
        self.absent = sorted(EXPECTED - found)
        prefix = package.__name__
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == prefix or module_name.startswith(prefix + ".")):
                continue
            for attribute, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attribute, entry[1])
                    self._patched.append((module, attribute, value))

    def uninstall(self) -> None:
        for module, attribute, value in reversed(self._patched):
            setattr(module, attribute, value)
        self._patched = []

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines: name, start, end (s from the first span), parent."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as stream:
            for name, start, end, parent in self.spans:
                stream.write(json.dumps([name, start - origin, end - origin, parent]) + "\n")


def _record_count(name: str, result) -> int:
    if name == "corpus.parse_profiles":
        return len(result) + sum(len(profile.papers) for profile in result)
    if name == "corpus.parse_papers":
        return sum(len(papers) for papers in result.values())
    return len(result)


def _max_violation(args: tuple, kwargs: dict, scores) -> float:
    """Largest u.y - v.x over all DMUs and all returned weight vectors."""
    dmus = args[0] if args else kwargs["dmus"]
    output_weights = np.array([score.output_weights for score in scores], dtype=float)
    input_weights = np.array([score.input_weights for score in scores], dtype=float)
    slack = output_weights @ dmus.outputs.T - input_weights @ dmus.inputs.T
    return float(slack.max())


def summarize(tracer: Tracer, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced ``cli.main`` call."""
    spans = tracer.spans
    codes: dict[str, int] = {}
    code = np.array([codes.setdefault(name, len(codes)) for name, *_ in spans])
    parent = np.array([span[3] for span in spans])
    duration = np.array([end - start for _, start, end, _ in spans])
    names = list(codes)
    layer_codes: dict[str, int] = {}
    layer_of_code = np.array([layer_codes.setdefault(name.split(".", 1)[0], len(layer_codes)) for name in names])
    layer = layer_of_code[code]
    has_parent = parent >= 0
    children_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(spans))
    # outermost in its layer: the parent belongs to another layer
    outermost = ~has_parent
    outermost[has_parent] = layer[parent[has_parent]] != layer[has_parent]
    per_name_total = np.bincount(code, weights=duration, minlength=len(names))
    per_name_count = np.bincount(code, minlength=len(names))
    # layer totals count only outermost spans, so nested calls are not double counted
    outer_total = np.bincount(code[outermost], weights=duration[outermost], minlength=len(names))
    outer_count = np.bincount(code[outermost], minlength=len(names))
    per_name_self = np.bincount(code, weights=duration - children_time, minlength=len(names))

    def pick(values: np.ndarray, predicate) -> float:
        return float(sum(values[i] for i, name in enumerate(names) if predicate(name)))

    root = int(np.flatnonzero((code == codes[ROOT]) & ~has_parent)[0])
    main_total = float(duration[root])
    lp_durations = duration[code == codes["lp.solve_lp"]] if "lp.solve_lp" in codes else np.zeros(0)
    records = 0
    snapped = 0
    violations = []
    rows = []
    for name, args, kwargs, result in tracer.observations:
        if name.startswith("corpus.parse_"):
            records += _record_count(name, result)
        elif name == "dea.ccr_all":
            snapped += sum(1 for score in result if score.score == 1.0)
            violations.append(_max_violation(args, kwargs, result))
        elif name == "lp.solve_lp":
            program = args[0] if args else kwargs.get("lp")
            if hasattr(program, "constraints"):
                rows.append(len(program.constraints))
    lp_solve = float(lp_durations.sum())
    solved = len(lp_durations) > 0
    return {
        "corpus.parse_s": pick(per_name_total, lambda n: n.startswith("corpus.parse_")),
        "corpus.aggregate_s": pick(per_name_total, lambda n: n == "corpus.aggregate"),
        "corpus.records": float(records),
        "indices.s": pick(outer_total, lambda n: n.startswith("indices.")),
        "indices.calls": pick(outer_count, lambda n: n.startswith("indices.")),
        "dea.build_s": pick(per_name_total, lambda n: n == "dea.build_ccr_lp"),
        "dea.self_s": pick(per_name_self, lambda n: n.startswith("dea.") and n != "dea.build_ccr_lp"),
        "dea.lps": float(len(lp_durations)),
        "dea.snapped": float(snapped),
        "dea.max_violation": max(violations) if violations else 0.0,
        "lp.solve_s": lp_solve,
        "lp.solve_ms_p50": float(np.percentile(lp_durations, 50) * 1e3) if solved else 0.0,
        "lp.solve_ms_p90": float(np.percentile(lp_durations, 90) * 1e3) if solved else 0.0,
        "lp.rows_mean": float(np.mean(rows)) if rows else 0.0,
        "lp.solve_share": lp_solve / main_total,
        "analysis.report_self_s": pick(per_name_self, lambda n: n == "analysis.build_report"),
        "analysis.rank_s": pick(per_name_total, lambda n: n == "analysis.rank"),
        "analysis.rank_calls": pick(per_name_count, lambda n: n == "analysis.rank"),
        "analysis.correlate_s": pick(per_name_total, lambda n: n == "analysis.rank_correlation"),
        "analysis.pairs": pick(per_name_count, lambda n: n == "analysis.rank_correlation"),
        "cli.self_s": main_total - float(children_time[root]),
        "cli.output_bytes": float(output_bytes),
        "trace.total_s": main_total,
        "trace.spans": float(len(spans)),
    }

"""Seeded benchmark of the citedea command line, with an outside-in traced mode.

Run from the repository root:

    python3 perfbench/run.py --workload dea-aggregates --seed 1 --seconds 35 --trace 0

``--trace 0`` is a closed loop with one client: it runs ``python -m citedea``
from ``src/`` as a fresh subprocess, one invocation at a time, for about
``--seconds`` seconds, then checks every output and reports the end_to_end
metrics named in BENCHMARK.json.  Each invocation reads a different seeded
corpus (up to the workload's ``distinct`` count), so one run samples several
inputs rather than timing one draw.

``--trace 1`` runs ``citedea.cli.main`` in this process on the same inputs,
alternating a traced and an untraced call, and reports the per_layer metrics
(see spans.py).  Spans of the last traced call are written to
``.perfbench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import check
import corpora
from spans import ROOT as ROOT_SPAN, Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 150.0


@functools.cache
def _indices(corpus: corpora.Corpus) -> dict[str, np.ndarray]:
    return check.reference_indices(corpus)


@functools.cache
def _dea(corpus: corpora.Corpus) -> np.ndarray:
    return check.reference_dea(corpus)


def _write_aggregates(corpus: corpora.Corpus, directory: Path) -> list[str]:
    aggregates = directory / "aggregates.csv"
    h_values = directory / "h.csv"
    aggregates.write_text(corpus.aggregates_csv())
    h_values.write_text(
        "id,h\n" + "".join(f"{label},{h}\n" for label, h in zip(corpus.ids, _indices(corpus)["h"].tolist()))
    )
    return ["report", "--aggregates", str(aggregates), "--h-values", str(h_values), "--format", "csv"]


def _write_profiles(command: str, output_format: str) -> Callable[[corpora.Corpus, Path], list[str]]:
    def write(corpus: corpora.Corpus, directory: Path) -> list[str]:
        profiles = directory / "profiles.csv"
        papers = directory / "papers.csv"
        profiles.write_text(corpus.profiles_csv())
        papers.write_text(corpus.papers_csv())
        return [command, "--profiles", str(profiles), "--papers", str(papers), "--format", output_format]

    return write


@dataclass(frozen=True)
class Workload:
    size: int
    distinct: int  # most corpora one run draws; invocations cycle through them
    draw: Callable[[np.random.Generator, int], corpora.Corpus]
    write: Callable[[corpora.Corpus, Path], list[str]]
    check: Callable[[str, corpora.Corpus], list[str]]
    perturbed: str  # the column the self-check moves, as the checker names it


WORKLOADS = {
    "dea-aggregates": Workload(
        size=100,
        distinct=1000,
        draw=corpora.generate,
        write=_write_aggregates,
        check=lambda text, corpus: check.check_aggregate_report_csv(text, corpus, _indices(corpus)["h"], _dea(corpus)),
        perturbed="dea",
    ),
    "indices-corpus": Workload(
        size=10_000,
        distinct=2,
        draw=corpora.generate,
        write=_write_profiles("indices", "csv"),
        check=lambda text, corpus: check.check_indices_csv(text, corpus, _indices(corpus)),
        perturbed="a",
    ),
    "report-ties": Workload(
        size=100,
        distinct=1000,
        draw=corpora.with_ray,
        write=_write_profiles("report", "json"),
        check=lambda text, corpus: check.check_profile_report_json(text, corpus, _indices(corpus), _dea(corpus)),
        perturbed="dea",
    ),
}


class Inputs:
    """Seeded corpora and their CSV files, drawn on first use."""

    def __init__(self, workload: Workload, seed: int, directory: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self.cases: list[tuple[corpora.Corpus, list[str]]] = []

    def case(self, invocation: int) -> tuple[int, corpora.Corpus, list[str]]:
        index = invocation % self.workload.distinct
        while len(self.cases) <= index:
            number = len(self.cases)
            corpus = self.workload.draw(np.random.default_rng([self.seed, number]), self.workload.size)
            directory = self.directory / f"corpus{number}"
            directory.mkdir(parents=True)
            self.cases.append((corpus, self.workload.write(corpus, directory)))
        return (index, *self.cases[index])


@dataclass
class Outcome:
    case: int
    ok: bool  # exited 0
    text: str
    seconds: float
    rss_mb: float = 0.0


def _run_child(command: list[str], env: dict[str, str], stderr_path: Path) -> tuple[float, int, bytes, float]:
    """Spawn, read stdout through a pipe, reap with wait4: (seconds, exit code, stdout, peak RSS MB)."""
    with stderr_path.open("wb") as stderr:
        start = time.perf_counter()
        child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        killer.start()
        try:
            output = child.stdout.read()
            _, status, usage = os.wait4(child.pid, 0)
            seconds = time.perf_counter() - start
            child.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            child.stdout.close()
            if child.returncode is None:
                child.kill()
                child.wait()
    return seconds, child.returncode, output, usage.ru_maxrss / 1024.0


def _verify(workload: Workload, inputs: Inputs, outcomes: list[Outcome], report: list[str]) -> tuple[int, bool]:
    """Check every output; return (failed invocations, whether the checker itself works)."""
    checked: dict[int, str] = {}
    failed = 0
    for outcome in outcomes:
        if not outcome.ok:
            failed += 1
            continue
        if checked.get(outcome.case) == outcome.text:
            continue  # byte-identical to an output of the same input that passed
        corpus = inputs.cases[outcome.case][0]
        try:
            problems = workload.check(outcome.text, corpus)
        except (ValueError, KeyError, IndexError, TypeError) as error:
            problems = [f"unreadable output: {error!r}"]
        if problems:
            failed += 1
            report.extend(f"corpus {outcome.case}: {problem}" for problem in problems[:10])
        else:
            checked[outcome.case] = outcome.text
    if not checked:
        report.append("no output passed the check")
        return failed, False
    case, text = next(iter(checked.items()))
    perturbed = workload.check(check.perturb(text, workload.perturbed), inputs.cases[case][0])
    rejects = any(problem.startswith(workload.perturbed + " of ") for problem in perturbed)
    report.append(f"self-check: output with one {workload.perturbed} value moved by 1e-3 "
                  + ("rejected" if rejects else "NOT rejected"))
    return failed, rejects


def _keep_going(count: int, started: float, seconds: float, typical: float) -> bool:
    elapsed = time.perf_counter() - started
    return count < MIN_INVOCATIONS or elapsed + typical <= seconds


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_end_to_end(workload: Workload, inputs: Inputs, seconds: float, report: list[str]):
    env = _child_env()
    stderr_path = inputs.directory / "stderr.txt"
    setup_command = [sys.executable, "-c", "import citedea.cli"]

    def probe_setup() -> float:
        elapsed, code, _, _ = _run_child(setup_command, env, stderr_path)
        if code != 0:
            raise RuntimeError(f"import citedea.cli failed: {stderr_path.read_text()[-500:]}")
        return elapsed

    probe_setup()  # the first import may compile bytecode
    setup = []
    outcomes: list[Outcome] = []
    started = time.perf_counter()
    while _keep_going(len(outcomes), started, seconds,
                      statistics.median([o.seconds for o in outcomes]) + statistics.median(setup) if outcomes else 0.0):
        index, _, argv = inputs.case(len(outcomes))
        elapsed, code, output, rss = _run_child([sys.executable, "-m", "citedea", *argv], env, stderr_path)
        if code != 0:
            report.append(f"corpus {index}: exit {code}: {stderr_path.read_text().strip()[-300:]}")
        outcomes.append(Outcome(index, code == 0, output.decode(), elapsed, rss))
        # one set-up sample after each invocation spreads them over the run,
        # so a slow spell of a shared machine does not land on all of them
        setup.append(probe_setup())
    report.append(f"{len(outcomes)} invocations over {time.perf_counter() - started:.1f} s, "
                  f"{len({o.case for o in outcomes})} distinct corpora, {len(setup)} set-up samples")
    failed, checker_works = _verify(workload, inputs, outcomes, report)
    good = [o for o in outcomes if o.ok]
    if not good:
        return outcomes, failed, checker_works, None
    walls = [o.seconds for o in good]
    metrics = {
        "wall_s": statistics.median(walls),
        "researchers_per_s": statistics.median([workload.size / wall for wall in walls]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median([o.rss_mb for o in good]),
    }
    report.append(f"failed_frac {failed / len(outcomes):.4f} ({failed}/{len(outcomes)})")
    return outcomes, failed, checker_works, metrics


def _call_main(main, argv: list[str], report: list[str]) -> tuple[bool, str, float]:
    stdout, stderr = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    except Exception as error:  # the run goes on; the call counts as failed
        code = repr(error)
    seconds = time.perf_counter() - start
    if code != 0:
        report.append(f"in-process call failed: {code}: {stderr.getvalue().strip()[-300:]}")
    return code == 0, stdout.getvalue(), seconds


def measure_traced(workload: Workload, inputs: Inputs, seconds: float, report: list[str], spans_path: Path):
    sys.path.insert(0, str(SRC))
    import citedea
    import citedea.cli

    tracer = Tracer()
    outcomes: list[Outcome] = []
    summaries: list[dict[str, float]] = []
    overheads: list[float] = []
    last_spans: list = []
    started = time.perf_counter()
    pairs = 0
    while _keep_going(pairs, started, seconds, statistics.median([o.seconds for o in outcomes]) * 2 if outcomes else 0.0):
        index, _, argv = inputs.case(pairs)
        results = {}
        # alternate which call goes first, so warm caches favour neither
        for traced in ((True, False) if pairs % 2 == 0 else (False, True)):
            if traced:
                tracer.install(citedea)
                try:
                    results[traced] = _call_main(lambda a: tracer.call(ROOT_SPAN, citedea.cli.main, a), argv, report)
                finally:
                    tracer.uninstall()
                if results[traced][0]:
                    summaries.append(summarize(tracer, len(results[traced][1].encode())))
                last_spans = tracer.spans
                tracer.reset()
            else:
                results[traced] = _call_main(citedea.cli.main, argv, report)
            outcomes.append(Outcome(index, *results[traced]))
        if results[True][0] and results[False][0]:
            overheads.append(summaries[-1]["trace.total_s"] - results[False][2])
        pairs += 1
    tracer.spans = last_spans
    tracer.write(spans_path)
    report.append(f"{pairs} traced/untraced pairs over {time.perf_counter() - started:.1f} s; spans in {spans_path.relative_to(ROOT)}")
    if tracer.absent:
        report.append("absent from citedea.__all__ (their metrics read 0): " + ", ".join(tracer.absent))
    failed, checker_works = _verify(workload, inputs, outcomes, report)
    if not summaries or not overheads:
        return outcomes, failed, checker_works, None
    metrics = {name: statistics.median(s[name] for s in summaries) for name in summaries[0]}
    metrics["dea.max_violation"] = max(s["dea.max_violation"] for s in summaries)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return outcomes, failed, checker_works, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    if not (SRC / "citedea" / "cli.py").is_file():
        print(f"error: no citedea sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if options.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}

    workload = WORKLOADS[options.workload]
    scratch = ROOT / ".perfbench_work"
    directory = scratch / f"{options.workload}-{options.seed}-{os.getpid()}"
    directory.mkdir(parents=True)
    report: list[str] = []
    try:
        inputs = Inputs(workload, options.seed, directory)
        for invocation in range(min(workload.distinct, MIN_INVOCATIONS)):
            inputs.case(invocation)  # draw the first corpora before the clock starts
        if options.trace:
            spans_path = ROOT / ".perfbench_out" / f"spans-{options.workload}-seed{options.seed}.jsonl.gz"
            outcomes, failed, checker_works, metrics = measure_traced(
                workload, inputs, options.seconds, report, spans_path)
        else:
            outcomes, failed, checker_works, metrics = measure_end_to_end(
                workload, inputs, options.seconds, report)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    print(f"workload {options.workload}, seed {options.seed}, trace {options.trace}")
    for line in report:
        print("  " + line)
    if metrics is None:
        print("error: no invocation succeeded, so there is nothing to time", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
        return 1
    for name in units:
        print(f"  {name:24s} {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": checker_works and failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

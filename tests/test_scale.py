"""CLI output on benchmark-sized corpora passes the benchmark's own checker.

perfbench/corpora.py draws the seeded corpora and perfbench/check.py holds
independent numpy and scipy references; both are loaded read-only from
their files, as tests/test_traced_names.py loads spans.py.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from citedea import corpus
from citedea.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """The corpora and check modules, registered under their own names while in use."""
    saved = {name: sys.modules.get(name) for name in ("corpora", "check")}
    modules = []
    try:
        for name in saved:  # check.py imports corpora by that name
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module  # dataclasses look their module up there
            spec.loader.exec_module(module)
            modules.append(module)
        yield modules
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def run_cli(capsys, tmp_path, command, drawn, *options):
    """Write ``drawn`` as the two CSV files, run ``command`` on them: (papers text, stdout)."""
    profiles = tmp_path / "profiles.csv"
    papers = tmp_path / "papers.csv"
    profiles.write_text(drawn.profiles_csv())
    papers.write_text(drawn.papers_csv())
    code = main([command, "--profiles", str(profiles), "--papers", str(papers), *options])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return papers.read_text(), captured.out


def test_indices_on_2000_researchers_pass_the_checker(bench, capsys, tmp_path, monkeypatch):
    corpora, check = bench
    monkeypatch.setattr(corpus, "_CHUNK_CHARS", 1 << 17)
    drawn = corpora.generate(np.random.default_rng([8, 0]), 2000)
    papers, out = run_cli(capsys, tmp_path, "indices", drawn, "--format", "csv")
    assert len(papers) > corpus._CHUNK_CHARS  # the reader sees more than one chunk
    assert check.check_indices_csv(out, drawn, check.reference_indices(drawn)) == []


def test_papers_alone_print_the_first_seven_profile_columns(bench, capsys, tmp_path):
    corpora, _ = bench
    drawn = corpora.generate(np.random.default_rng([8, 0]), 2000)
    _, out = run_cli(capsys, tmp_path, "indices", drawn, "--format", "csv")
    assert main(["indices", "--papers", str(tmp_path / "papers.csv"), "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    first_seven = "".join(",".join(line.split(",")[:8]) + "\n" for line in out.splitlines())
    assert captured.out == first_seven


def test_report_on_a_tied_ray_passes_the_checker(bench, capsys, tmp_path):
    corpora, check = bench
    drawn = corpora.with_ray(np.random.default_rng([8, 1]), 100)
    _, out = run_cli(capsys, tmp_path, "report", drawn, "--format", "json")
    problems = check.check_profile_report_json(
        out, drawn, check.reference_indices(drawn), check.reference_dea(drawn)
    )
    assert problems == []

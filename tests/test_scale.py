"""CLI output on benchmark-sized corpora passes the benchmark's own checker.

perfbench/corpora.py draws the seeded corpora and perfbench/check.py holds
independent numpy and scipy references; conftest's ``bench`` fixture loads
both read-only from their files.
"""

from unittest import mock

import numpy as np

from citedea import corpus
from citedea.cli import main


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
    with mock.patch.object(
        corpus._Reader, "by_line", autospec=True, side_effect=corpus._Reader.by_line
    ) as loop:
        papers, out = run_cli(capsys, tmp_path, "indices", drawn, "--format", "csv")
    assert len(papers) > corpus._CHUNK_CHARS  # the reader sees more than one chunk
    assert check.check_indices_csv(out, drawn, check.reference_indices(drawn)) == []
    # every data line stays on the column path; a silent fall back to the
    # per-line loop would keep the output right and lose the speed
    headers = [call.args[1:] for call in loop.call_args_list]
    assert headers == [(["id,career_years"], 1), (["id,citations,authors"], 1)]


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


def test_a_ray_with_near_tied_ratios_scores_every_copy_efficient(bench, capsys, tmp_path):
    # on this corpus a ratio test that counted rows as tied within PIVOT_TOL of
    # the least ratio once pivoted ray05's program into an "unbounded" status
    corpora, check = bench
    drawn = corpora.with_ray(np.random.default_rng([62, 22]), 100)
    _, out = run_cli(capsys, tmp_path, "report", drawn, "--format", "json")
    problems = check.check_profile_report_json(
        out, drawn, check.reference_indices(drawn), check.reference_dea(drawn)
    )
    assert problems == []
    aggregates = tmp_path / "aggregates.csv"
    aggregates.write_text(drawn.aggregates_csv())
    assert main(["dea", "--aggregates", str(aggregates), "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    rays = {row[0]: row[-1] for row in rows if row[0].startswith("ray")}
    assert rays == {f"ray{copy:02d}": "1.0" for copy in range(1, 21)}


def test_aggregate_report_with_h_values_passes_the_checker(bench, capsys, tmp_path):
    # the dea-aggregates workload's invocation, on one of its corpora
    corpora, check = bench
    drawn = corpora.generate(np.random.default_rng([8, 0]), 100)
    reference = check.reference_indices(drawn)
    aggregates = tmp_path / "aggregates.csv"
    h_values = tmp_path / "h.csv"
    aggregates.write_text(drawn.aggregates_csv())
    h_values.write_text(
        "id,h\n" + "".join(f"{label},{h}\n" for label, h in zip(drawn.ids, reference["h"].tolist()))
    )
    code = main([
        "report", "--aggregates", str(aggregates), "--h-values", str(h_values),
        "--format", "csv",
    ])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    problems = check.check_aggregate_report_csv(
        captured.out, drawn, reference["h"], check.reference_dea(drawn)
    )
    assert problems == []

"""End-to-end command line behavior via main()."""

import json
import os
import subprocess
import sys

import pytest

import citedea
from citedea import parse_aggregates
from citedea.cli import build_parser, main
from conftest import DATA, EXPECTED_DEA_RANKS, EXPECTED_EFFICIENCY, EXPECTED_H_RANKS

AGGREGATES = str(DATA / "researchers.csv")
H_VALUES = str(DATA / "h_values.csv")
PROFILES = str(DATA / "profiles.csv")
PAPERS = str(DATA / "papers.csv")
EMPTY = str(DATA / "empty.csv")
RAY = str(DATA / "ray.csv")
RAY100 = str(DATA / "ray100.csv")
GENERATED100 = str(DATA / "generated100.csv")
GOLDEN = DATA / "golden"

# every command on both kinds of source; the files under tests/data/golden
# hold their exact stdout, one file per invocation and format
GOLDEN_INVOCATIONS = {
    "indices-papers": ("indices", "--papers", PAPERS),
    "indices-papers-profiles": ("indices", "--papers", PAPERS, "--profiles", PROFILES),
    "dea-aggregates": ("dea", "--aggregates", AGGREGATES),
    "dea-profiles": ("dea", "--profiles", PROFILES, "--papers", PAPERS),
    "frontier-aggregates": ("frontier", "--aggregates", AGGREGATES),
    "frontier-profiles": ("frontier", "--profiles", PROFILES, "--papers", PAPERS),
    "rank-aggregates": ("rank", "--aggregates", AGGREGATES, "--h-values", H_VALUES),
    "rank-profiles": ("rank", "--profiles", PROFILES, "--papers", PAPERS),
    "correlate-aggregates": (
        "correlate", "--aggregates", AGGREGATES, "--h-values", H_VALUES,
    ),
    "correlate-profiles": ("correlate", "--profiles", PROFILES, "--papers", PAPERS),
    "report-aggregates": ("report", "--aggregates", AGGREGATES),
    "report-aggregates-h": ("report", "--aggregates", AGGREGATES, "--h-values", H_VALUES),
    "report-profiles": ("report", "--profiles", PROFILES, "--papers", PAPERS),
    "report-profiles-options": (
        "report", "--profiles", PROFILES, "--papers", PAPERS,
        "--c-star", "5", "--penalty-a", "0.5", "--penalty-b", "2",
    ),
}
GOLDEN_EXTENSIONS = {"table": "txt", "csv": "csv", "json": "json"}
GOLDEN_CASES = [
    (f"{name}.{extension}", argv + ("--format", output_format))
    for name, argv in GOLDEN_INVOCATIONS.items()
    for output_format, extension in GOLDEN_EXTENSIONS.items()
] + [
    # copies on one efficient ray: Bland's rule settles the ratio ties, and
    # the json weights pin which vertex it picks
    ("dea-ray.json", ("dea", "--aggregates", RAY, "--format", "json")),
    # benchmark-sized sets, whose programs run into many more tolerance ties
    # in the choice of the leaving row
    ("dea-ray100.csv", ("dea", "--aggregates", RAY100, "--format", "csv")),
    ("dea-generated100.csv", ("dea", "--aggregates", GENERATED100, "--format", "csv")),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(stdout_encoding, *argv):
    """``python -m citedea *argv`` in a child whose stdio uses ``stdout_encoding``."""
    # the child imports the same package this test did, installed or not
    package_root = os.path.dirname(os.path.dirname(citedea.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONIOENCODING=stdout_encoding, PYTHONPATH=path)
    command = [sys.executable, "-m", "citedea", *argv]
    return subprocess.run(command, capture_output=True, env=env)


def csv_rows(text):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestIndicesCommand:
    def test_papers_only_columns(self, capsys):
        code, out, err = run(capsys, "indices", "--papers", PAPERS, "--format", "csv")
        assert code == 0 and err == ""
        rows = csv_rows(out)
        assert list(rows[0]) == [
            "id", "h", "g", "a", "r", "individual_h", "si", "si_penalized",
        ]
        first = rows[0]
        assert first["id"] == "A1"
        assert first["h"] == "4"
        assert first["g"] == "5"
        assert float(first["a"]) == 6.75
        assert float(first["r"]) == pytest.approx(27.0**0.5)
        assert float(first["individual_h"]) == 2.0
        assert float(first["si"]) == pytest.approx(10 / 2 + 8 / 2 + 5 / 1 + 4 / 3 + 3 / 2)

    def test_profiles_add_time_normalized_columns(self, capsys):
        code, out, _ = run(
            capsys, "indices", "--papers", PAPERS, "--profiles", PROFILES,
            "--format", "csv",
        )
        assert code == 0
        rows = csv_rows(out)
        assert list(rows[0])[-2:] == ["t", "t_thresholded"]
        first = rows[0]
        assert float(first["t"]) == pytest.approx(float(first["si"]) / 4)
        assert first["t_thresholded"] == first["t"]

    def test_threshold_flag(self, capsys):
        code, out, _ = run(
            capsys, "indices", "--papers", PAPERS, "--profiles", PROFILES,
            "--c-star", "8", "--format", "csv",
        )
        rows = {row["id"]: row for row in csv_rows(out)}
        # A1 keeps 10/2 and 8/2 over 4 years
        assert float(rows["A1"]["t_thresholded"]) == pytest.approx(9 / 4)

    def test_penalty_flags(self, capsys):
        code, out, _ = run(
            capsys, "indices", "--papers", PAPERS,
            "--penalty-a", "0.5", "--penalty-b", "2", "--format", "csv",
        )
        rows = {row["id"]: row for row in csv_rows(out)}
        # A3's single paper has 7 authors: 7 / (1 + 0.5 * (7 - 2))
        assert float(rows["A3"]["si_penalized"]) == pytest.approx(2.0)

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "indices", "--papers", PAPERS)
        lines = out.splitlines()
        assert lines[0].startswith("id")
        assert all(line == line.rstrip() for line in lines)
        assert len(lines) == 5

    def test_json_format_types(self, capsys):
        code, out, _ = run(capsys, "indices", "--papers", PAPERS, "--format", "json")
        data = json.loads(out)
        assert isinstance(data[0]["h"], int)
        assert isinstance(data[0]["a"], float)
        assert data[0]["id"] == "A1"

    @pytest.mark.parametrize("with_profiles", [True, False], ids=["profiles", "papers-only"])
    def test_interleaved_rows_print_like_grouped_rows(self, capsys, tmp_path, with_profiles):
        lines = (DATA / "papers.csv").read_text().splitlines(keepends=True)
        header, *rows = [line for line in lines if not line.startswith("#")]
        assert header == "id,citations,authors\n"
        # alternate the researchers row by row; each one's rows keep their order
        by_id = {}
        for row in rows:
            by_id.setdefault(row.split(",")[0], []).append(row)
        queues = list(by_id.values())
        interleaved = []
        while any(queues):
            interleaved += [queue.pop(0) for queue in queues if queue]
        assert interleaved != rows
        papers = tmp_path / "interleaved.csv"
        papers.write_text(header + "".join(interleaved))
        profiles = ("--profiles", PROFILES) if with_profiles else ()
        for output_format in ("csv", "table", "json"):
            options = (*profiles, "--format", output_format)
            expected = run(capsys, "indices", "--papers", PAPERS, *options)
            assert run(capsys, "indices", "--papers", str(papers), *options) == expected
            assert expected[0] == 0


class TestGoldenOutputs:
    @pytest.mark.parametrize(
        "golden, argv",
        GOLDEN_CASES,
        ids=[golden.replace(".", "-") for golden, _ in GOLDEN_CASES],
    )
    def test_output_matches_golden(self, capsys, golden, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / golden).read_text()

    CSV_CASES = [(golden, argv) for golden, argv in GOLDEN_CASES if golden.endswith(".csv")]

    @pytest.mark.parametrize("piece_rows", [1, 3])
    @pytest.mark.parametrize(
        "golden, argv", CSV_CASES, ids=[golden.replace(".", "-") for golden, _ in CSV_CASES]
    )
    def test_csv_pieces_join_without_a_seam(self, capsys, monkeypatch, golden, argv, piece_rows):
        monkeypatch.setattr("citedea.cli._CSV_ROWS", piece_rows)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / golden).read_text()


INPUTS = {
    "aggregates": ("--aggregates", AGGREGATES),
    "profiles": ("--profiles", PROFILES, "--papers", PAPERS),
}


@pytest.mark.parametrize("source", INPUTS)
class TestExtremeOptionValues:
    """Option values at the edge of their range give an exit code, not a traceback."""

    @pytest.mark.parametrize("epsilon", ["1e305", "1.7e308"])
    @pytest.mark.parametrize("command", ["dea", "rank", "correlate", "report"])
    def test_epsilon_past_the_float_range(self, capsys, source, command, epsilon):
        code, out, err = run(capsys, command, *INPUTS[source], "--epsilon", epsilon)
        assert (code, out) == (1, "")
        assert err.startswith("error: no feasible weights for DMU ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, value",
        [("--c-star", str(10**30)), ("--penalty-b", str(10**30)), ("--penalty-a", "inf")],
    )
    @pytest.mark.parametrize("command", ["rank", "correlate", "report"])
    def test_index_option_at_its_extreme(self, capsys, source, command, flag, value):
        code, out, err = run(capsys, command, *INPUTS[source], flag, value, "--format", "csv")
        assert (code, err) == (0, "")
        assert out


class TestDeaCommand:
    def test_scores_against_reference(self, capsys):
        code, out, _ = run(capsys, "dea", "--aggregates", AGGREGATES, "--format", "csv")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 15
        for row in rows:
            assert float(row["efficiency"]) == pytest.approx(
                EXPECTED_EFFICIENCY[row["id"]], abs=0.005
            )

    def test_csv_output_reparses_as_aggregates(self, capsys):
        _, out, _ = run(capsys, "dea", "--aggregates", AGGREGATES, "--format", "csv")
        reparsed = parse_aggregates(out)
        original = parse_aggregates((DATA / "researchers.csv").read_text())
        assert reparsed == original

    def test_profile_source(self, capsys):
        code, out, _ = run(
            capsys, "dea", "--profiles", PROFILES, "--papers", PAPERS,
            "--format", "csv",
        )
        assert code == 0
        rows = csv_rows(out)
        assert [row["id"] for row in rows] == ["A1", "A2", "A3", "A4"]
        assert all(0.0 < float(row["efficiency"]) <= 1.0 for row in rows)

    def test_json_includes_weights(self, capsys):
        _, out, _ = run(capsys, "dea", "--aggregates", AGGREGATES, "--format", "json")
        data = json.loads(out)
        assert len(data[0]["input_weights"]) == 2
        assert len(data[0]["output_weights"]) == 1
        assert all(weight >= 1e-6 - 1e-12 for weight in data[0]["input_weights"])

    def test_table_rounds_to_three_decimals(self, capsys):
        _, out, _ = run(capsys, "dea", "--aggregates", AGGREGATES)
        lines = out.splitlines()
        efficient = [line for line in lines if line.endswith("1.000")]
        assert {line.split()[0] for line in efficient} == {"R6", "R7"}

    def test_zero_citation_researcher_scores_zero(self, capsys, tmp_path):
        aggregates = tmp_path / "zero.csv"
        aggregates.write_text("a,10,20,500\nb,5,9,0\nc,7,30,900\n")
        code, out, err = run(
            capsys, "dea", "--aggregates", str(aggregates), "--format", "csv"
        )
        assert (code, err) == (0, "")
        assert {row["id"]: row["efficiency"] for row in csv_rows(out)}["b"] == "0.0"
        code, out, err = run(
            capsys, "report", "--aggregates", str(aggregates), "--format", "csv"
        )
        assert (code, err) == (0, "")
        assert {row["id"]: row["dea_rank"] for row in csv_rows(out)}["b"] == "3"

    def test_oversized_epsilon_is_a_data_error(self, capsys):
        code, _, err = run(
            capsys, "dea", "--aggregates", AGGREGATES, "--epsilon", "0.5"
        )
        assert code == 1
        assert "epsilon" in err

    def test_infeasible_epsilon_names_the_largest_feasible_one(self, capsys, tmp_path):
        aggregates = tmp_path / "steep.csv"
        aggregates.write_text("a,1,1,50000\nc,40,2000,1\n")
        code, out, err = run(capsys, "dea", "--aggregates", str(aggregates))
        assert (code, out) == (1, "")
        assert err == (
            "error: no feasible weights for DMU 'c' with epsilon 1e-06; lower the bound: "
            "the largest feasible epsilon for 'c' is 4.995e-07\n"
        )


class TestRankCommand:
    def test_aggregate_ranks_with_h_column(self, capsys):
        code, out, _ = run(
            capsys, "rank", "--aggregates", AGGREGATES, "--h-values", H_VALUES,
            "--format", "csv",
        )
        assert code == 0
        rows = csv_rows(out)
        assert list(rows[0]) == ["id", "dea_rank", "h_rank"]
        for row in rows:
            assert int(row["dea_rank"]) == EXPECTED_DEA_RANKS[row["id"]]
            assert int(row["h_rank"]) == EXPECTED_H_RANKS[row["id"]]

    def test_profile_ranks_cover_all_metrics(self, capsys):
        code, out, _ = run(
            capsys, "rank", "--profiles", PROFILES, "--papers", PAPERS,
            "--format", "csv",
        )
        rows = csv_rows(out)
        assert list(rows[0]) == [
            "id", "t_rank", "dea_rank", "h_rank", "g_rank", "a_rank", "r_rank",
        ]


class TestCorrelateCommand:
    def test_aggregate_pair(self, capsys):
        code, out, _ = run(
            capsys, "correlate", "--aggregates", AGGREGATES, "--h-values", H_VALUES,
            "--format", "csv",
        )
        rows = csv_rows(out)
        assert len(rows) == 1
        assert (rows[0]["metric_a"], rows[0]["metric_b"]) == ("dea", "h")
        assert float(rows[0]["coefficient"]) == pytest.approx(0.82, abs=0.02)

    def test_profile_pairs_all_combinations(self, capsys):
        _, out, _ = run(
            capsys, "correlate", "--profiles", PROFILES, "--papers", PAPERS,
            "--format", "csv",
        )
        rows = csv_rows(out)
        assert len(rows) == 15  # six rankable metrics, all unordered pairs


class TestFrontierCommand:
    def test_json_object(self, capsys):
        code, out, _ = run(
            capsys, "frontier", "--aggregates", AGGREGATES, "--format", "json"
        )
        data = json.loads(out)
        assert data["frontier"] == ["R6", "R7"]
        assert len(data["points"]) == 15
        flagged = {p["id"] for p in data["points"] if p["efficient"]}
        assert flagged == {"R6", "R7"}

    def test_csv_booleans(self, capsys):
        _, out, _ = run(
            capsys, "frontier", "--aggregates", AGGREGATES, "--format", "csv"
        )
        rows = csv_rows(out)
        assert {row["id"] for row in rows if row["efficient"] == "true"} == {"R6", "R7"}
        r1 = next(row for row in rows if row["id"] == "R1")
        assert float(r1["years_per_citation"]) == pytest.approx(40 / 5977)

    def test_zero_citation_row_names_the_fix(self, capsys, tmp_path):
        aggregates = tmp_path / "zero.csv"
        aggregates.write_text("a,10,20,0\nb,5,9,40\n")
        code, out, err = run(capsys, "frontier", "--aggregates", str(aggregates))
        assert (code, out) == (1, "")
        assert err == (
            "error: DMU 'a' has no output; its per-output point is undefined: "
            "remove it from the input or give it citations\n"
        )


class TestReportCommand:
    def test_table_sections(self, capsys):
        code, out, _ = run(
            capsys, "report", "--aggregates", AGGREGATES, "--h-values", H_VALUES
        )
        assert code == 0
        assert "correlations:" in out
        header = out.splitlines()[0].split()
        assert header == [
            "id", "years", "coauthors", "citations", "h", "dea", "dea_rank", "h_rank",
        ]

    def test_csv_correlation_comment_rows(self, capsys):
        _, out, _ = run(
            capsys, "report", "--aggregates", AGGREGATES, "--h-values", H_VALUES,
            "--format", "csv",
        )
        comments = [line for line in out.splitlines() if line.startswith("#")]
        assert len(comments) == 1
        assert comments[0].startswith("# correlation,dea,h,")
        # comment rows are skipped on re-parse, extra columns ignored
        assert len(parse_aggregates(out)) == 15

    def test_json_structure(self, capsys):
        _, out, _ = run(
            capsys, "report", "--profiles", PROFILES, "--papers", PAPERS,
            "--format", "json",
        )
        data = json.loads(out)
        assert set(data) == {"researchers", "rankings", "correlations"}
        assert len(data["researchers"]) == 4
        assert set(data["rankings"]) == {"t", "dea", "h", "g", "a", "r"}
        assert len(data["correlations"]) == 15

    def test_repeat_runs_are_identical(self, capsys):
        _, first, _ = run(
            capsys, "report", "--aggregates", AGGREGATES, "--h-values", H_VALUES
        )
        _, second, _ = run(
            capsys, "report", "--aggregates", AGGREGATES, "--h-values", H_VALUES
        )
        assert first == second

    def test_no_correlations_placeholder(self, capsys):
        _, out, _ = run(capsys, "report", "--aggregates", AGGREGATES)
        assert "(none)" in out


class TestParser:
    SOURCES = {"aggregates": None, "profiles": None, "papers": None}
    INDEX_OPTIONS = {"c_star": 0, "penalty_a": 0.0, "penalty_b": 1}
    METRIC_OPTIONS = {**SOURCES, "h_values": None, **INDEX_OPTIONS, "epsilon": 1e-6}
    # every destination and default of each subcommand, beyond command and format
    OPTIONS = {
        "indices": {"papers": "p.csv", "profiles": None, **INDEX_OPTIONS},
        "dea": {**SOURCES, "epsilon": 1e-6},
        "rank": METRIC_OPTIONS,
        "correlate": METRIC_OPTIONS,
        "frontier": SOURCES,
        "report": METRIC_OPTIONS,
    }

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_each_command_has_exactly_its_options(self, command):
        argv = [command] + (["--papers", "p.csv"] if command == "indices" else [])
        options = vars(build_parser().parse_args(argv))
        assert options.pop("handler").__name__ == f"_cmd_{command}"
        assert options == {"command": command, **self.OPTIONS[command], "format": "table"}


class TestUsageErrors:
    def expect_usage_error(self, capsys, *argv):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_sources(self, capsys):
        self.expect_usage_error(capsys, "dea")

    def test_both_sources(self, capsys):
        self.expect_usage_error(
            capsys, "dea", "--aggregates", AGGREGATES,
            "--profiles", PROFILES, "--papers", PAPERS,
        )

    def test_profiles_without_papers(self, capsys):
        self.expect_usage_error(capsys, "dea", "--profiles", PROFILES)

    def test_h_values_need_aggregates(self, capsys):
        self.expect_usage_error(
            capsys, "rank", "--profiles", PROFILES, "--papers", PAPERS,
            "--h-values", H_VALUES,
        )

    def test_negative_threshold(self, capsys):
        self.expect_usage_error(
            capsys, "report", "--aggregates", AGGREGATES, "--c-star", "-1"
        )

    def test_bad_penalty(self, capsys):
        self.expect_usage_error(
            capsys, "report", "--aggregates", AGGREGATES, "--penalty-a", "-0.5"
        )
        self.expect_usage_error(
            capsys, "report", "--aggregates", AGGREGATES, "--penalty-b", "0"
        )

    def test_bad_epsilon(self, capsys):
        self.expect_usage_error(
            capsys, "dea", "--aggregates", AGGREGATES, "--epsilon", "0"
        )
        self.expect_usage_error(
            capsys, "dea", "--aggregates", AGGREGATES, "--epsilon", "nan"
        )

    def test_unknown_format(self, capsys):
        self.expect_usage_error(
            capsys, "dea", "--aggregates", AGGREGATES, "--format", "xml"
        )

    def test_missing_command(self, capsys):
        self.expect_usage_error(capsys)


# each input file kind: an invocation that reads it from a given path, and
# the columns its rows hold
FILE_KINDS = {
    "papers": (lambda path: ("indices", "--papers", path), "id,citations,authors"),
    "profiles": (
        lambda path: ("indices", "--papers", PAPERS, "--profiles", path), "id,career_years",
    ),
    "aggregates": (
        lambda path: ("dea", "--aggregates", path), "id,years,coauthors,citations",
    ),
    "h-values": (
        lambda path: ("report", "--aggregates", AGGREGATES, "--h-values", path), "id,h",
    ),
}


class TestDataErrors:
    @pytest.mark.parametrize("kind", list(FILE_KINDS))
    @pytest.mark.parametrize("unreadable", ["missing", "directory"])
    def test_unreadable_file_names_the_path(self, capsys, tmp_path, kind, unreadable):
        path = str(tmp_path / "absent.csv") if unreadable == "missing" else str(tmp_path)
        argv, _ = FILE_KINDS[kind]
        code, out, err = run(capsys, *argv(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(path) in err
        assert "Traceback" not in err
        # the flag that named the file, and no errno
        assert err.startswith(f"error: --{kind} {path!r}: ")
        assert "[Errno" not in err

    @pytest.mark.parametrize("kind", list(FILE_KINDS))
    @pytest.mark.parametrize("content", ["comments", "header"])
    def test_a_file_with_no_rows_names_its_columns(self, capsys, tmp_path, kind, content):
        argv, columns = FILE_KINDS[kind]
        path = EMPTY
        if content == "header":
            path = tmp_path / "header.csv"
            path.write_text(columns + "\n")
        code, out, err = run(capsys, *argv(str(path)))
        assert (code, out) == (1, "")
        assert err == f"error: {kind}: no records; add {columns} rows\n"

    def test_malformed_rows_report_line_numbers(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# comment\nR1,10,100,notanumber\n")
        code, _, err = run(capsys, "dea", "--aggregates", str(bad))
        assert code == 1
        assert "line 2" in err

    def test_non_utf8_file_names_the_fix(self, capsys, tmp_path):
        aggregates = tmp_path / "latin1.csv"
        aggregates.write_bytes(b"id,years,coauthors,citations\na,1,2,\xff\n")
        code, out, err = run(capsys, "dea", "--aggregates", str(aggregates))
        assert (code, out) == (1, "")
        assert err == (
            f"error: --aggregates {str(aggregates)!r}: not UTF-8 text (byte 0xff at "
            "offset 35); save it as UTF-8\n"
        )

    def test_all_zero_citations_name_the_fix(self, capsys, tmp_path):
        aggregates = tmp_path / "uncited.csv"
        aggregates.write_text("a,10,20,0\nb,5,9,0\n")
        for command in ("dea", "report"):
            code, out, err = run(capsys, command, "--aggregates", str(aggregates))
            assert (code, out) == (1, "")
            assert err == (
                "error: at least one DMU must have a strictly positive output; "
                "every researcher has 0 citations, so no one can be scored: "
                "include a researcher with citations\n"
            )

    def test_missing_h_values_name_the_file_the_ids_and_the_fix(self, capsys, tmp_path):
        aggregates = tmp_path / "group.csv"
        h_values = tmp_path / "h.csv"
        aggregates.write_text("z,3,9,40\nx,5,7,90\nw,2,4,10\ny,8,6,70\n")
        h_values.write_text("x,3\nv,2\n")
        for command in ("rank", "correlate", "report"):
            code, out, err = run(
                capsys, command, "--aggregates", str(aggregates), "--h-values", str(h_values)
            )
            assert (code, out) == (1, "")
            assert err == (
                f"error: --h-values {str(h_values)!r}: no h value for researcher(s) "
                "w, y, z; add an id,h row for each\n"
            )

    def test_profile_without_papers_names_the_fix(self, capsys, tmp_path):
        profiles = tmp_path / "profiles.csv"
        papers = tmp_path / "papers.csv"
        profiles.write_text("x,5\ny,3\n")
        papers.write_text("x,10,2\n")
        code, out, err = run(
            capsys, "report", "--profiles", str(profiles), "--papers", str(papers)
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: researcher 'y' has no papers to aggregate; "
            "add paper rows for 'y' or remove it from the profiles file\n"
        )

    def test_blank_id_names_the_line(self, capsys, tmp_path):
        papers = tmp_path / "papers.csv"
        papers.write_text("a,10,2\n,5,1\n")
        code, out, err = run(capsys, "indices", "--papers", str(papers))
        assert (code, out) == (1, "")
        assert err == "error: papers line 2: id must be a non-empty string, got ''\n"

    def test_count_beyond_64_bits_names_the_line(self, capsys, tmp_path):
        profiles = tmp_path / "profiles.csv"
        papers = tmp_path / "papers.csv"
        profiles.write_text("a,5\n")
        papers.write_text("a,10,2\na," + "9" * 401 + ",1\n")
        for command in ("indices", "report"):
            code, out, err = run(
                capsys, command, "--profiles", str(profiles), "--papers", str(papers)
            )
            assert (code, out) == (1, "")
            assert err == (
                "error: papers line 2: citations must be at most 9223372036854775807\n"
            )

    def test_total_beyond_64_bits_names_the_researcher(self, capsys, tmp_path):
        profiles = tmp_path / "profiles.csv"
        papers = tmp_path / "papers.csv"
        profiles.write_text("b,5\na,5\n")
        papers.write_text(f"b,3,1\na,{2**63 - 1},2\na,{2**63 - 1},1\n")
        sources = ("--profiles", str(profiles), "--papers", str(papers))
        for argv in (
            ("indices", *sources),
            ("indices", "--papers", str(papers)),
            # aggregating a profile applies the same rule to both of its totals
            ("dea", *sources),
            ("frontier", *sources),
            ("report", *sources),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == (
                "error: researcher 'a': citations must total at most 9223372036854775807, "
                "got 18446744073709551614\n"
            )

    @pytest.mark.parametrize("command", ["dea", "frontier", "report"])
    def test_the_first_faulty_researcher_in_profile_order_is_named(
        self, capsys, tmp_path, command
    ):
        profiles = tmp_path / "profiles.csv"
        papers = tmp_path / "papers.csv"
        papers.write_text(f"a,1,1\nbig,{2**63 - 1},1\nbig,1,1\n")
        no_papers = (
            "error: researcher 'none' has no papers to aggregate; "
            "add paper rows for 'none' or remove it from the profiles file\n"
        )
        too_many = (
            "error: researcher 'big': citations must total at most 9223372036854775807, "
            "got 9223372036854775808\n"
        )
        for order, expected in ((("none", "big"), no_papers), (("big", "none"), too_many)):
            profiles.write_text("a,2\n" + "".join(f"{label},3\n" for label in order))
            code, out, err = run(
                capsys, command, "--profiles", str(profiles), "--papers", str(papers)
            )
            assert (code, out, err) == (1, "", expected)

    def test_form_feed_does_not_end_a_line(self, capsys, tmp_path):
        profiles = tmp_path / "profiles.csv"
        papers = tmp_path / "papers.csv"
        profiles.write_text("a,3\nb,3\n")
        papers.write_text("a,5,1\x0cb,3,4\n")
        code, out, err = run(
            capsys, "indices", "--profiles", str(profiles), "--papers", str(papers)
        )
        assert (code, out) == (1, "")
        assert err == "error: papers line 1: expected 3 columns, got 5\n"

    def test_solver_iteration_limit_is_a_data_error(self, capsys, monkeypatch):
        def capped(program):
            raise ArithmeticError("simplex iteration limit reached")

        monkeypatch.setattr("citedea.dea.solve_lp", capped)
        code, out, err = run(capsys, "dea", "--aggregates", AGGREGATES)
        assert code == 1
        assert out == ""
        assert err == (
            "error: efficiency program for DMU 'R1' hit the simplex iteration limit; "
            "check its counts for extreme values\n"
        )


class TestOutputEncoding:
    """A non-ASCII id meets the stdout encoding only when the output is written."""

    @pytest.fixture
    def aggregates(self, tmp_path):
        path = tmp_path / "accented.csv"
        path.write_text("zoë,1,2,3\nb,2,3,1\n", encoding="utf-8")
        return str(path)

    def test_ascii_stdout_names_the_character_and_the_fix(self, aggregates):
        result = run_child("ascii", "dea", "--aggregates", aggregates, "--format", "csv")
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr == (
            b"error: cannot write '\\xeb' to stdout, whose encoding is ascii; "
            b"set PYTHONIOENCODING=utf-8\n"
        )
        # json escapes every non-ASCII character, so it needs no fix
        result = run_child("ascii", "dea", "--aggregates", aggregates, "--format", "json")
        assert (result.returncode, result.stderr) == (0, b"")
        assert b'"id": "zo\\u00eb"' in result.stdout

    def test_utf8_stdout_writes_the_id_unchanged(self, aggregates):
        for output_format, expected in [
            ("table", "\nzoë      1  "),
            ("csv", "\nzoë,1,2,3,1.0\n"),
            ("json", '"id": "zo\\u00eb"'),
        ]:
            result = run_child(
                "utf-8", "dea", "--aggregates", aggregates, "--format", output_format
            )
            assert (result.returncode, result.stderr) == (0, b"")
            assert expected in result.stdout.decode("utf-8")

"""The benchmark tracer's per-layer metrics read functions the package still exports.

perfbench/spans.py wraps the functions in ``citedea.__all__`` and derives its
per-layer metrics from the names in its ``EXPECTED`` set; a name that stops
being a public function of its layer would silently read 0 there.
"""

import importlib.util
import inspect
from pathlib import Path
from unittest import mock

import pytest

import citedea

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.EXPECTED)


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_is_a_public_function_of_its_layer(name):
    layer, function = name.split(".")
    assert function in citedea.__all__
    value = getattr(citedea, function)
    assert inspect.isfunction(value)
    assert value.__module__ == f"citedea.{layer}"


def test_the_indices_command_reads_through_a_public_parser(tmp_path, capsys, monkeypatch):
    # the tracer times every corpus.parse_* name in citedea.__all__ as parse time
    from citedea import cli, corpus

    assert "parse_paper_columns" in citedea.__all__
    assert cli.parse_paper_columns is citedea.parse_paper_columns
    assert citedea.parse_paper_columns.__module__ == "citedea.corpus"
    # so does every other command given per-paper input, and none builds a profile
    profiles = tmp_path / "profiles.csv"
    papers = tmp_path / "papers.csv"
    profiles.write_text("a,3\nb,5\n")
    papers.write_text("a,4,2\nb,9,1\na,1,1\n")

    def refuse(profile):
        raise AssertionError(f"a ResearcherProfile was built for {profile.id!r}")

    monkeypatch.setattr(corpus.ResearcherProfile, "__post_init__", refuse)
    for command in ("indices", "dea", "rank", "correlate", "frontier", "report"):
        parser = corpus.parse_paper_columns
        with mock.patch.object(cli, "parse_paper_columns", wraps=parser) as parse:
            assert cli.main([command, "--profiles", str(profiles), "--papers", str(papers)]) == 0
        assert parse.call_count == 1, command
    assert capsys.readouterr().err == ""

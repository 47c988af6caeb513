"""The README's group.csv examples run as printed, and it documents the whole CLI."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

import citedea
from citedea.cli import build_parser, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)
# "$ citedea ..." transcripts that read group.csv: the command, then its stdout
TRANSCRIPTS = [
    (shlex.split(body.split("\n", 1)[0])[2:], body.split("\n", 1)[1])
    for _, body in BLOCKS
    if body.startswith("$ citedea ") and "group.csv" in body.split("\n", 1)[0]
]


def input_file(name):
    """The code block the README introduces with "`name`:"."""
    (body,) = re.findall(rf"`{re.escape(name)}`:\n\n```\n(.*?)^```$", README, re.M | re.S)
    return body


@pytest.fixture
def group_dir(tmp_path, monkeypatch):
    for name in ("group.csv", "group_h.csv"):
        (tmp_path / name).write_text(input_file(name), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_both_group_transcripts_are_found():
    assert [argv[0] for argv, _ in TRANSCRIPTS] == ["dea", "report"]


@pytest.mark.parametrize("argv, expected", TRANSCRIPTS, ids=[a[0] for a, _ in TRANSCRIPTS])
def test_transcript_replays_byte_for_byte(group_dir, capsys, argv, expected):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")


def test_library_use_block_runs(group_dir, capsys):
    (code,) = [body for language, body in BLOCKS if language == "python"]
    exec(compile(code, "README.md", "exec"), {})
    assert "{'alice': 2, 'bram': 4, 'chen': 1, 'dina': 3}" in capsys.readouterr().out


def test_readme_documents_every_command_and_flag():
    (commands,) = [
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    section = README.split("\n## Commands\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\| `([\w-]+)` \|", section, flags=re.MULTILINE) == list(commands)
    flags = {
        option
        for command in commands.values()
        for action in command._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if option.startswith("--")
    }
    assert flags  # so that an empty set cannot pass
    assert [flag for flag in sorted(flags) if not re.search(rf"{flag}(?![\w-])", README)] == []


def test_readme_names_only_exported_types():
    prose = re.sub(r"^```.*?^```$", "", README, flags=re.MULTILINE | re.DOTALL)
    spans = re.findall(r"`([^`]+)`", prose)  # inline code, which may wrap a line
    names = {
        name
        for span in spans
        for name in re.findall(r"\b[A-Z][a-z0-9]+(?:[A-Z][A-Za-z0-9]*)+\b", span)
    }
    assert "ResearcherProfile" in names  # so that a pattern that finds nothing cannot pass
    assert sorted(names - set(citedea.__all__)) == []

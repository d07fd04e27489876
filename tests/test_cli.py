"""The option table: every run and compare-metrics flag is declared once, in cli._OPTIONS."""

import argparse
import dataclasses
import hashlib
from pathlib import Path

import pytest

from stepdist import cli
from stepdist.pipeline import PipelineConfig

DATA = Path(__file__).parent / "data"
FIXTURE_SERIES = DATA / "geo_fixture_series.csv"

# Options of each subcommand, in --help order: compare-metrics has no station metadata.
COMMAND_KEYS = {
    "run": list(cli._OPTIONS),
    "compare-metrics": [key for key in cli._OPTIONS if key != "metadata"],
}


def subparser(command: str) -> argparse.ArgumentParser:
    (subs,) = [a for a in cli._make_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return subs.choices[command]


@pytest.mark.parametrize("command", ["stepdist", "run", "compare-metrics", "export-suite"])
def test_help_text_unchanged(monkeypatch, capsys, command):
    # Recorded before the flags were built from the table; argparse wraps at COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        cli.main([*([] if command == "stepdist" else [command]), "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out == (DATA / "help" / f"{command}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
def test_flags_are_the_table_rows(command):
    dests = [a.dest for a in subparser(command)._actions if a.dest not in ("help", "config")]
    assert dests == COMMAND_KEYS[command]


def test_every_row_sets_a_config_field():
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert {field for field, *_ in cli._OPTIONS.values()} <= fields


@pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
def test_enum_flags_are_case_insensitive(tmp_path, command):
    def digests(name, attribute, linkage):
        out = tmp_path / name
        argv = [command, "--series", str(FIXTURE_SERIES), "--out", str(out)]
        assert cli.main([*argv, "--attribute", attribute, "--linkage", linkage]) == 0
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}

    assert digests("upper", "VARIANCE", "Complete") == digests("lower", "variance", "complete")

"""The README's tables list what the code declares, no more and no less."""

from __future__ import annotations

import argparse
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from ded.cli import _build_parser
from ded.config import CLIENT_FIELDS, FIELDS
from ded.pipeline import STAGE_TABLE
from ded.records import (CorpusManifest, EmbeddingRecord, LogprobRecord, PassRateStats,
                         QuestionRecord, ScoreRecord, TrajectoryRecord)

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _rows(after: str) -> list[list[str]]:
    """The cells of each body row of the first table after the line that
    starts with `after`."""
    lines = README.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(after))
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows:
            break
    return rows[2:]


def _names(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


def test_config_table_lists_every_declared_key():
    documented = {name for row in _rows("## Pipeline config") for name in _names(row[0])}
    assert documented == set(FIELDS) | {f"client.{key}" for key in CLIENT_FIELDS}


@pytest.mark.parametrize("heading,record_type", [
    ("**questions**", QuestionRecord),
    ("**trajectories**", TrajectoryRecord),
    ("**logprobs**", LogprobRecord),
    ("**embeddings**", EmbeddingRecord),
    ("**scores**", ScoreRecord),
    ("**pass rates**", PassRateStats),
    ("**manifests**", CorpusManifest),
])
def test_schema_table_lists_every_declared_field(heading, record_type):
    documented = {name for row in _rows(heading) for name in _names(row[0])}
    declared = {f.name for f in fields(record_type) if f.name != "extra"}
    assert documented == declared | set(record_type._derived)


def test_stage_keys_table_lists_every_stage_key():
    documented = {row[0]: tuple(_names(row[1])) for row in _rows("Such a run also refuses")}
    assert documented == {row.name: row.keys for row in STAGE_TABLE if row.keys}


def _cli_lines() -> list[list[str]]:
    """The arguments of each command line in the README's CLI block."""
    block = README.split("## CLI\n", 1)[1].split("```\n", 2)[1]
    return [shlex.split(line, comments=True)[1:]
            for line in block.replace("\\\n", " ").splitlines() if line.startswith("ded ")]


def _commands(parser: argparse.ArgumentParser, prefix: tuple[str, ...] = ()):
    """The path of every command of parser that takes no further subcommand,
    as ("stats", "entropy")."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield prefix
    for action in subparsers:
        for name, sub in action.choices.items():
            yield from _commands(sub, prefix + (name,))


@pytest.mark.parametrize("args", _cli_lines(), ids=" ".join)
def test_cli_block_line_parses(args):
    _build_parser().parse_args(args)


def test_cli_block_shows_every_command():
    lines = _cli_lines()
    missing = [path for path in _commands(_build_parser())
               if not any(tuple(args[:len(path)]) == path for args in lines)]
    assert missing == []

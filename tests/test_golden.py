"""Golden reports: every CLI leaf command, replayed byte for byte.

`fixtures/golden/cases.json` names each case, its argv (run from the
repository root) and its exit code. Each case runs once per `--format`; its
stdout must equal `<case>.<format>.out` and its stderr `<case>.<format>.err`,
which exists only for cases that write to stderr. The small input files the
cases read live in the same directory.
"""

import argparse
import json
from pathlib import Path

import pytest

from oitkit.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "fixtures" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _leaves(parser, path=()):
    children = _subcommands(parser)
    if not children:
        return {path}
    return set().union(*(_leaves(child, path + (name,)) for name, child in children.items()))


def _leaf_of(argv: list[str]) -> tuple:
    parser, path = build_parser(), ()
    for token in argv:
        children = _subcommands(parser)
        if token in children:
            parser, path = children[token], path + (token,)
    return path


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, fmt, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    case = CASES[name]
    code = main([*case["argv"], "--format", fmt])
    captured = capsys.readouterr()
    err_file = GOLDEN / f"{name}.{fmt}.err"
    assert code == case["exit"]
    assert captured.out == (GOLDEN / f"{name}.{fmt}.out").read_text(encoding="utf-8")
    assert captured.err == (err_file.read_text(encoding="utf-8") if err_file.exists() else "")


def test_every_leaf_command_has_a_golden():
    covered = {_leaf_of(case["argv"]) for case in CASES.values()}
    assert _leaves(build_parser()) - covered == set()

"""The README's CLI commands and library example run verbatim from the
repository root, and its rule list matches the validator."""

import re
import shlex
from pathlib import Path

import pytest

from oitkit.cli import main

from test_model import REPORTED_RULES, WARNING_RULES

ROOT = Path(__file__).resolve().parent.parent


def _section(title: str) -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _cli_section_commands() -> list[str]:
    section = _section("CLI")
    blocks = re.findall(r"```sh\n(.*?)```", section, flags=re.DOTALL)
    return [line for block in blocks for line in block.splitlines() if line.startswith("oitkit ")]


COMMANDS = _cli_section_commands()


def test_readme_lists_cli_commands():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(line, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = shlex.split(line, comments=True)
    assert main(argv[1:]) == 0, capsys.readouterr().err


def test_readme_library_use_runs(capsys):
    block = re.search(r"```python\n(.*?)```", _section("Library use"), flags=re.DOTALL)
    exec(block.group(1), {})
    assert capsys.readouterr().out.splitlines()[0] == "359999/100"


def test_readme_lists_every_validation_rule():
    rules = _section("Model files").split("\nThese are all the rules", 1)[1]
    violations, warnings = rules.split("\nWarnings leave the model valid:", 1)
    violations = violations.split("by postulate:\n", 1)[1]
    warnings = warnings.split("\n\n", 1)[0]
    assert set(re.findall(r"`([a-z-]+)`", violations)) == REPORTED_RULES - WARNING_RULES
    assert set(re.findall(r"`([a-z-]+)`", warnings)) == WARNING_RULES

"""The README's configuration and CLI examples stay in step with the code."""

import re
import shlex
from pathlib import Path

import pytest

from geodin.cli import build_parser
from geodin.config import RunConfig, load_run_config

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_block(section: str, lang: str) -> str:
    """The first ```lang block under the README heading '## section'."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def cli_examples() -> list[str]:
    commands = fenced_block("CLI", "bash").replace("\\\n", " ")
    return [line.strip() for line in commands.splitlines() if line.strip().startswith("geodin ")]


def test_config_block_is_the_default(tmp_path):
    path = tmp_path / "readme.cfg"
    path.write_text(fenced_block("Configuration file", "ini"), encoding="utf-8")
    assert load_run_config(path) == RunConfig()


def test_cli_block_lists_every_command():
    commands = {shlex.split(line)[1] for line in cli_examples()}
    assert commands == {"train", "detect", "calibrate", "splits", "report-merge"}


@pytest.mark.parametrize("line", cli_examples(), ids=lambda line: shlex.split(line)[1])
def test_cli_example_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])

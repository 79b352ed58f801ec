"""The README's configuration and CLI examples stay in step with the code."""

import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from geodin.cli import build_parser, main
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


def test_library_block_runs():
    namespace = {}
    exec(fenced_block("Library use", "python"), namespace)
    assert len(namespace["report"].rows) == (1 + 4 * 5 + 5) * 3  # control, kinds x severities, groups


def test_cli_block_lists_every_command():
    commands = {shlex.split(line)[1] for line in cli_examples()}
    assert commands == {"train", "detect", "calibrate", "splits", "report-merge"}


@pytest.mark.parametrize("line", cli_examples(), ids=lambda line: shlex.split(line)[1])
def test_cli_example_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])


def test_cli_examples_run_in_order(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text(fenced_block("Configuration file", "ini"), encoding="utf-8")
    id_names = ["cat", "dog", "horse"]
    ood_names = [f"novel{i}" for i in range(12)]
    rng = np.random.default_rng(0)
    Path("glove.txt").write_text(
        "".join(f"{name} {' '.join(f'{x:.4f}' for x in rng.normal(size=4))}\n" for name in id_names + ood_names),
        encoding="utf-8",
    )
    Path("id.txt").write_text("\n".join(id_names) + "\n", encoding="utf-8")
    Path("ood.txt").write_text("\n".join(ood_names) + "\n", encoding="utf-8")
    for line in cli_examples():
        argv = shlex.split(line)[1:]
        if argv[0] == "report-merge":
            for name in ("a.csv", "b.csv"):
                shutil.copy("runs/report.csv", Path("runs") / name)
        assert main(argv) == 0, line

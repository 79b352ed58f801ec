"""The README's configuration and CLI examples, and its reproducibility claim, stay in step with the code."""

import argparse
import os
import re
import shlex
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from geodin.cli import build_parser, main
from geodin.config import RunConfig, load_run_config

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


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


def test_config_block_names_every_key():
    # Defaults fill in a key the block leaves out, so the test above cannot see a missing one.
    named, section = {}, None
    for line in fenced_block("Configuration file", "ini").splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line[1:-1]
            named[section] = []
        elif line:
            named[section].append(line.split("=", 1)[0].strip())
    assert named == {name: [f.name for f in fields(part)] for name, part in vars(RunConfig()).items()}


def test_library_block_runs():
    namespace = {}
    exec(fenced_block("Library use", "python"), namespace)
    assert len(namespace["report"].rows) == (1 + 4 * 5 + 5) * 3  # control, kinds x severities, groups


def test_cli_block_lists_every_command():
    commands = {shlex.split(line)[1] for line in cli_examples()}
    assert commands == {"train", "detect", "calibrate", "splits", "report-merge"}


def test_cli_paragraph_names_the_commands_that_take_a_config():
    paragraph = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n\n", 1)[0]
    # The commands named in the sentence before "accept `--config FILE`".
    named = set(re.findall(r"`([a-z-]+)`", re.split(r"accept\s+`--config FILE`", paragraph)[0]))
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    takes = {name for name, p in subparsers.choices.items() if "--config" in p._option_string_actions}
    assert named == takes == {"train", "detect", "calibrate"}


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


def test_golden_digests_hold_at_two_blas_threads():
    # The README says the pinned digests hold at one and two BLAS threads; the suite itself runs
    # at whatever count its environment sets, so the digest tests run again in a child at two.
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(TESTS / "test_fingerprint.py")],
        cwd=TESTS.parent, env={**os.environ, "OPENBLAS_NUM_THREADS": "2"}, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
    assert " passed" in done.stdout.splitlines()[-1]

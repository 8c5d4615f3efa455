"""The README's examples run: every ```python block, and every `qcascade`
line of the ```sh blocks through ``main``, which must exit 0."""

import re
import shlex
from pathlib import Path

import pytest

from qcascade.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), re.M | re.S)
PYTHON = [code for lang, code in BLOCKS if lang == "python"]
COMMANDS = [line for lang, code in BLOCKS if lang == "sh"
            for line in code.splitlines() if line.startswith("qcascade ")]


def test_readme_has_examples():
    assert PYTHON and COMMANDS


@pytest.mark.parametrize("code", PYTHON, ids=lambda code: f"block{PYTHON.index(code)}")
def test_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {})


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_zero(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # --emit writes into the working directory
    assert main(shlex.split(line)[1:]) == 0

"""The README's examples run: every ```python block, and every `qcascade`
line of the ```sh blocks through ``main``, which must exit 0.  Its job
document section names exactly the job fields and emit targets."""

import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from qcascade.cli import EMIT_TARGETS, JobSpec, main, parse_job

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), re.M | re.S)
PYTHON = [code for lang, code in BLOCKS if lang == "python"]
COMMANDS = [line for lang, code in BLOCKS if lang == "sh"
            for line in code.splitlines() if line.startswith("qcascade ")]
JOB_SECTION = README.read_text().split("### Job documents\n")[1].split("\n#")[0]
# one bullet per field, each starting with the field's name in backticks
JOB_BULLETS = re.findall(r"^- `(\w+)`(.*(?:\n  .*)*)", JOB_SECTION, re.M)


def test_readme_has_examples():
    assert PYTHON and COMMANDS


@pytest.mark.parametrize("code", PYTHON, ids=lambda code: f"block{PYTHON.index(code)}")
def test_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {})


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_zero(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # --emit writes into the working directory
    assert main(shlex.split(line)[1:]) == 0


def test_readme_job_bullets_name_every_job_field():
    assert [name for name, _ in JOB_BULLETS] == [f.name for f in fields(JobSpec)]


def test_readme_emit_bullet_lists_every_target():
    text = dict(JOB_BULLETS)["emit"]
    assert tuple(re.findall(r"`([\w-]+)`", text)) == EMIT_TARGETS


def test_readme_job_document_parses():
    (doc,) = re.findall(r"^```json\n(.*?)^```", JOB_SECTION, re.M | re.S)
    parse_job(doc)

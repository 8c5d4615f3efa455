"""The package's public names: everything ``__all__`` lists is importable,
every console script resolves, and ``python -m qcascade`` runs the command
line."""

import importlib
import re
import subprocess
import sys
from pathlib import Path

import qcascade

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_resolves():
    # a name left in __all__ after its import is gone breaks `import *`
    for name in qcascade.__all__:
        assert hasattr(qcascade, name), name
    exec("from qcascade import *", {})


def test_every_console_script_resolves():
    """Each ``[project.scripts]`` target imports and is callable, so an
    installed ``qcascade`` command finds its function.  The section is read
    line by line: Python 3.10 has no ``tomllib``."""
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    targets = []
    for line in lines[lines.index("[project.scripts]") + 1:]:
        if line.startswith("["):
            break
        if line.strip():
            match = re.fullmatch(r'([\w-]+) = "([\w.]+):(\w+)"', line)
            assert match, line
            targets.append(match.groups())
    assert targets
    for name, module, attr in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), name


def test_python_dash_m_runs_the_cli():
    """``python -m qcascade`` is the ``qcascade`` command for a checkout
    that is not installed, and it warns about nothing on stderr."""
    done = subprocess.run([sys.executable, "-m", "qcascade", "spectrum", "--n", "2", "--truth", "0110"],
                          capture_output=True, text=True, env={"PYTHONPATH": str(ROOT / "src")})
    assert (done.returncode, done.stdout, done.stderr) == (0, "[1/2, 0, 0, -1/2]\n", "")


def test_the_package_runs_without_numpy():
    """The package needs no third-party module: with numpy unimportable, a
    ``synth`` run still verifies and exits 0."""
    code = ("import sys; sys.modules['numpy'] = None\n"
            "from qcascade.cli import main\n"
            "raise SystemExit(main(['synth', '--n', '3', '--truth', '01101001']))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(ROOT / "src")})
    assert (done.returncode, done.stderr) == (0, "")
    assert "quantum check: 8/8 rows pass" in done.stdout

"""The package's public names: everything ``__all__`` lists is importable,
and ``python -m qcascade`` runs the command line."""

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


def test_python_dash_m_runs_the_cli():
    """``python -m qcascade`` is the ``qcascade`` command for a checkout
    that is not installed, and it warns about nothing on stderr."""
    done = subprocess.run([sys.executable, "-m", "qcascade", "spectrum", "--n", "2", "--truth", "0110"],
                          capture_output=True, text=True, env={"PYTHONPATH": str(ROOT / "src")})
    assert (done.returncode, done.stdout, done.stderr) == (0, "[1/2, 0, 0, -1/2]\n", "")

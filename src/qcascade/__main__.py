"""``python -m qcascade``: the ``qcascade`` command, also from a checkout
that is not installed (with ``src`` on ``PYTHONPATH``)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

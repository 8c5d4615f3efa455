"""The package's public names: everything ``__all__`` lists is importable."""

import qcascade


def test_every_public_name_resolves():
    # a name left in __all__ after its import is gone breaks `import *`
    for name in qcascade.__all__:
        assert hasattr(qcascade, name), name
    exec("from qcascade import *", {})

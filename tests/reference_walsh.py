"""Dense Walsh-Hadamard matrix, the reference for ``qcascade.spectral.fwht``."""

import numpy as np

MAX_VARS = 10

_BASE = np.array([[1, 1], [1, -1]], dtype=np.int64)


def walsh_matrix(n: int) -> np.ndarray:
    """Dense Walsh-Hadamard matrix: n-fold Kronecker power of [[1,1],[1,-1]]."""
    if not 1 <= n <= MAX_VARS:
        raise ValueError(f"n must be in 1..{MAX_VARS}, got {n}")
    out = _BASE
    for _ in range(n - 1):
        out = np.kron(out, _BASE)
    return out

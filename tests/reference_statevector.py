"""Per-row full-statevector simulator of RX/RY + CZ circuits.

This is the reference that tests compare ``qcascade.quantum.verify_quantum``
and ``bloch_trace`` against.  It assumes nothing about the circuit's shape:
each input row runs alone through the whole 2^num_qubits statevector, where
amplitude index bit q holds qubit q (little-endian).  It builds its own
complex rotation matrices, about X, Y and Z, and takes only the gate-kind
names from ``qcascade.quantum``, so it shares none of the real-frame
arithmetic it checks.
"""

import math
from itertools import product

import numpy as np

from qcascade.cascade import VerificationReport, VerificationRow
from qcascade.quantum import CZ


def rotation_matrix(axis: str, theta: float) -> np.ndarray:
    """2x2 complex rotation about the X, Y or Z axis by theta radians."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta}")
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    if axis == "X":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis == "Y":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if axis == "Z":
        return np.array([[c - 1j * s, 0], [0, c + 1j * s]])
    raise ValueError(f"unknown rotation axis {axis!r}")


def _start_index(circuit, bits) -> int:
    index = 0
    for v, q in circuit.layout:
        index |= (int(bits[v - 1]) & 1) << q
    return index


def run_row(circuit, bits, index=None) -> np.ndarray:
    """Statevector after the circuit, starting from the basis state that puts
    x_v on its layout qubit and every other qubit in |0>, or from basis
    state ``index`` when given."""
    num_qubits = circuit.num_qubits
    if index is None:
        index = _start_index(circuit, bits)
    state = np.zeros(1 << num_qubits, dtype=complex)
    state[index] = 1.0
    qubit_bits = np.arange(1 << num_qubits)
    for gate in circuit.gates:
        if gate.kind == CZ:
            both = ((qubit_bits >> gate.control) & (qubit_bits >> gate.target) & 1) == 1
            state[both] *= -1
        else:
            mat = rotation_matrix(gate.kind[-1], gate.angle)
            psi = state.reshape(1 << (num_qubits - gate.target - 1), 2, 1 << gate.target)
            a = psi[:, 0, :].copy()
            b = psi[:, 1, :]
            psi[:, 0, :] = mat[0, 0] * a + mat[0, 1] * b
            psi[:, 1, :] = mat[1, 0] * a + mat[1, 1] * b
    return state


def p_one(circuit, bits) -> float:
    """Probability that the target qubit reads 1 after the circuit."""
    ones = ((np.arange(1 << circuit.num_qubits) >> circuit.target_qubit) & 1) == 1
    return float(np.sum(np.abs(run_row(circuit, bits)[ones]) ** 2))


def _p_want(circuit, bits, want) -> float:
    """Probability that the target qubit reads ``want`` after the circuit."""
    p = p_one(circuit, bits)
    return p if want else 1.0 - p


def verify_rows(circuit, truth, tol: float = 1e-9) -> VerificationReport:
    """The rows ``verify_quantum`` reports, computed one full statevector at a time."""
    rows = []
    for bits, want in zip(product((0, 1), repeat=truth.n), truth.values):
        p_want = _p_want(circuit, bits, want)
        rows.append(VerificationRow(str(want), f"p={p_want:.12g}", p_want >= 1.0 - tol))
    return VerificationReport("quantum", tuple(rows))


def strict_rows(circuit, truth, tol: float = 1e-9) -> list[tuple[bool, float]]:
    """``strict_row`` on every row, in row order."""
    return [strict_row(circuit, bits, want, tol)
            for bits, want in zip(product((0, 1), repeat=truth.n), truth.values)]


def strict_row(circuit, bits, want, tol: float = 1e-9) -> tuple[bool, float]:
    """``verify_quantum``'s strict verdict on one row whose truth value is
    ``want``, and the largest squared distance, from full statevectors.

    The row starts the target qubit in |t> (t = the target's own input bit, 0
    with the ancilla) and must read F(x) with probability >= 1 - tol.  Run
    from the row's basis state with the target set to |0> and to |1>, the
    whole statevector must also equal R(pi * (F(x) xor t)) applied to the
    target alone, about the axis of the circuit's rotations, within a
    squared distance of tol per amplitude.
    """
    axis = next((g.kind[-1] for g in circuit.gates if g.kind != CZ), "X")
    target = circuit.target_qubit
    target_var = dict((q, v) for v, q in circuit.layout).get(target)
    start = bits[target_var - 1] if target_var is not None else 0
    rot = rotation_matrix(axis, math.pi * (want ^ start))
    base = _start_index(circuit, bits) & ~(1 << target)
    dist = 0.0
    for c in (0, 1):
        state = run_row(circuit, bits, index=base | (c << target))
        expected = np.zeros_like(state)
        expected[base] = rot[0, c]
        expected[base | (1 << target)] = rot[1, c]
        dist = max(dist, float(np.max(np.abs(state - expected) ** 2)))
    return _p_want(circuit, bits, want) >= 1.0 - tol and dist <= tol, dist


def quantum_row(circuit, bits, want, tol: float = 1e-9) -> VerificationRow:
    """The row ``verify_quantum`` reports for one input whose truth value is
    ``want``: "p=<p>", with " dU=<distance>" when only the unitary
    comparison fails."""
    ok, dist = strict_row(circuit, bits, want, tol)
    p_want = _p_want(circuit, bits, want)
    got = f"p={p_want:.12g}"
    if p_want >= 1.0 - tol and not ok:
        got += f" dU={dist:.12g}"
    return VerificationRow(str(want), got, ok)

"""Per-row full-statevector simulator of RX/RY + CZ circuits.

This is the reference that tests compare ``qcascade.quantum.verify_quantum``
against.  It assumes nothing about the circuit's shape: each input row runs
alone through the whole 2^num_qubits statevector, where amplitude index bit
q holds qubit q (little-endian).
"""

import numpy as np

from qcascade.cascade import VerificationReport, VerificationRow
from qcascade.quantum import CZ, rotation_matrix


def run_row(circuit, bits) -> np.ndarray:
    """Statevector after the circuit, starting from the basis state that puts
    x_v on its layout qubit and every other qubit in |0>."""
    num_qubits = circuit.num_qubits
    index = 0
    for v, q in circuit.layout:
        index |= (int(bits[v - 1]) & 1) << q
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


def verify_rows(circuit, truth, tol: float = 1e-9) -> VerificationReport:
    """The rows ``verify_quantum`` reports, computed one full statevector at a time."""
    rows = []
    for bits, want in zip(truth.assignments(), truth.values):
        p = p_one(circuit, bits)
        p_want = p if want else 1.0 - p
        rows.append(VerificationRow(bits, str(want), f"p={p_want:.12g}", p_want >= 1.0 - tol))
    return VerificationReport("quantum", tuple(rows))

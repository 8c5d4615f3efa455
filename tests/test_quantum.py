import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qcascade.cascade import (canonical_cascade, detect_symmetry, reduce_by_symmetry, simplify,
                              verify_classical)
from qcascade.dihedral import DihedralParams
from qcascade.quantum import (CZ, RX, RY, BlochPoint, Gate, QCircuit, bloch_trace,
                              bloch_trace_csv, interaction_graph, map_to_circuit, rotation_matrix,
                              to_qasm, verify_quantum)
from qcascade.spectral import TruthVector, spectrum_exact, spectrum_mod
from qcascade.words import EQB, MGD, CascadeWord, Refl, Rot
from reference_statevector import p_one, strict_rows, verify_rows

XOR2 = TruthVector.from_bits("0110")


def xor_circuit():
    return map_to_circuit(simplify(canonical_cascade(spectrum_exact(XOR2))))


def reduced_xor_circuit():
    return map_to_circuit(reduce_by_symmetry(XOR2))


def _rotation(axis, theta):
    """``rotation_matrix``, plus the Z axis, which the compiler never emits."""
    if axis != "Z":
        return rotation_matrix(axis, theta)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c - 1j * s, 0], [0, c + 1j * s]])


def test_rotation_matrix_zero_angle_is_identity():
    for axis in ("X", "Y", "Z"):
        assert np.allclose(_rotation(axis, 0.0), np.eye(2), atol=1e-15)


def test_rotation_matrix_rx_third_of_pi():
    m = rotation_matrix("X", math.pi / 3)
    assert np.allclose(m, [[math.sqrt(3) / 2, -0.5j], [-0.5j, math.sqrt(3) / 2]], atol=1e-15)


def test_rotation_matrix_ry_is_real():
    m = rotation_matrix("Y", math.pi / 2)
    r = math.sqrt(0.5)
    assert np.allclose(m, [[r, -r], [r, r]], atol=1e-15)
    assert np.allclose(m.imag, 0.0)


def test_rotation_matrix_rz_is_diagonal_phase():
    theta = 0.7
    m = _rotation("Z", theta)
    assert m[0, 1] == 0 and m[1, 0] == 0
    assert np.allclose(np.diag(m), [np.exp(-0.5j * theta), np.exp(0.5j * theta)], atol=1e-15)


def test_rotation_matrix_rejects_bad_axis_and_angle():
    for axis in ("W", "Z"):
        with pytest.raises(ValueError, match="unknown rotation axis"):
            rotation_matrix(axis, 1.0)
    with pytest.raises(ValueError):
        rotation_matrix("X", math.inf)


def test_rotation_matrices_unitary_and_additive():
    rng = random.Random(77)
    eye = np.eye(2)
    for _ in range(200):
        axis = rng.choice(("X", "Y", "Z"))
        a = rng.uniform(-2 * math.pi, 2 * math.pi)
        b = rng.uniform(-2 * math.pi, 2 * math.pi)
        ra, rb = _rotation(axis, a), _rotation(axis, b)
        assert np.allclose(ra.conj().T @ ra, eye, atol=1e-12)
        assert np.allclose(ra @ rb, _rotation(axis, a + b), atol=1e-12)


def test_z_conjugation_inverts_x_and_y_rotations():
    z = np.diag([1.0, -1.0])
    rng = random.Random(78)
    for _ in range(100):
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        for axis in ("X", "Y"):
            assert np.allclose(z @ rotation_matrix(axis, theta) @ z,
                               rotation_matrix(axis, -theta), atol=1e-12)
        rz = _rotation("Z", theta)
        assert np.allclose(z @ rz @ z, rz, atol=1e-12)


def test_gate_normalizes_pi_frac_into_window():
    g = Gate(RX, 0, pi_frac=Fraction(5, 2))
    assert g.pi_frac == Fraction(-3, 2)
    assert math.isclose(g.angle, -1.5 * math.pi, rel_tol=0, abs_tol=1e-15)
    assert Gate(RX, 0, pi_frac=Fraction(2)).pi_frac == Fraction(2)
    assert Gate(RX, 0, pi_frac=Fraction(-2)).pi_frac == Fraction(2)


def test_gate_validation_errors():
    for kind in ("SWAP", "X", "H", "RZ", "CNOT"):
        with pytest.raises(ValueError, match="unknown gate kind"):
            Gate(kind, 0, pi_frac=Fraction(1))
    with pytest.raises(ValueError):
        Gate(RX, 0)
    with pytest.raises(ValueError):
        Gate(RX, 0, pi_frac=math.nan)
    with pytest.raises(TypeError):
        Gate(RX, 0, angle=1.0)
    with pytest.raises(ValueError):
        Gate(CZ, 0)
    with pytest.raises(ValueError):
        Gate(CZ, 0, control=0)
    with pytest.raises(ValueError):
        Gate(CZ, 0, control=1, pi_frac=Fraction(1))
    with pytest.raises(ValueError):
        Gate(RX, 0, control=1, pi_frac=Fraction(1))
    with pytest.raises(ValueError):
        Gate(RY, -1, pi_frac=Fraction(1))


def test_circuit_validation():
    rx = Gate(RX, 0, pi_frac=Fraction(1, 2))
    with pytest.raises(ValueError):
        QCircuit(0, (), 0)
    with pytest.raises(ValueError):
        QCircuit(2, (), 2)
    with pytest.raises(ValueError):
        QCircuit(1, (Gate(RX, 1, pi_frac=Fraction(1)),), 0)
    circ = QCircuit(2, (rx, Gate(CZ, 0, control=1), rx), 0)
    assert circ.gate_counts() == {RX: 2, CZ: 1}


def _random_star_circuit(rng, n, target_is_input, kinds=(RX, RY)):
    """Rotations of the target, about one axis drawn from ``kinds``, and CZ
    gates from inputs to it, with random pi_frac angles, in either of the
    two layouts map_to_circuit uses."""
    if target_is_input:
        layout, target, num_qubits = tuple((v, v - 1) for v in range(1, n + 1)), n - 1, n
    else:
        layout, target, num_qubits = tuple((v, v) for v in range(1, n + 1)), 0, n + 1
    inputs = [q for _, q in layout if q != target]
    kind = rng.choice(kinds)
    gates = []
    for _ in range(rng.randrange(1, 16)):
        if inputs and rng.random() < 0.4:
            gates.append(Gate(CZ, target, control=rng.choice(inputs)))
        else:
            gates.append(Gate(kind, target,
                              pi_frac=Fraction(rng.randrange(-16, 17), rng.randrange(1, 9))))
    return QCircuit(num_qubits, tuple(gates), target, layout)


def test_random_circuits_preserve_norm():
    # the trace's z = |a|^2 - |b|^2 gives (1 - z) / 2 = |b|^2, the
    # statevector's p_one, only while |a|^2 + |b|^2 stays 1
    rng = random.Random(911)
    for _ in range(30):
        n = rng.randrange(1, 5)
        circ = _random_star_circuit(rng, n, target_is_input=rng.random() < 0.5)
        for bits in itertools.product((0, 1), repeat=n):
            for k, point in enumerate(bloch_trace(circ, bits)):
                prefix = replace(circ, gates=circ.gates[:k])
                assert math.isclose((1.0 - math.cos(point.theta)) / 2.0, p_one(prefix, bits),
                                    rel_tol=0, abs_tol=1e-12)


def test_map_to_circuit_standard_layout():
    circ = xor_circuit()
    assert circ.num_qubits == 3
    assert circ.target_qubit == 0
    assert circ.layout == ((1, 1), (2, 2))
    assert [(g.kind, g.target, g.control, g.pi_frac) for g in circ.gates] == [
        (RX, 0, None, Fraction(1, 2)),
        (CZ, 0, 1, None),
        (CZ, 0, 2, None),
        (RX, 0, None, Fraction(-1, 2)),
        (CZ, 0, 1, None),
        (CZ, 0, 2, None),
    ]


def test_map_to_circuit_symmetry_layout_drops_ancilla():
    circ = reduced_xor_circuit()
    assert circ.num_qubits == 2
    assert circ.target_qubit == 1
    assert circ.layout == ((1, 0), (2, 1))
    assert [(g.kind, g.target, g.control) for g in circ.gates] == [
        (RX, 1, None), (CZ, 1, 0), (RX, 1, None), (CZ, 1, 0)]


def test_map_to_circuit_scales_mgd_angles_by_levels():
    word = simplify(canonical_cascade(spectrum_mod(XOR2, 3), DihedralParams(3)))
    circ = map_to_circuit(word, levels=2)
    rots = [g for g in circ.gates if g.kind == RX]
    assert [g.pi_frac for g in rots] == [Fraction(-1, 2), Fraction(1, 2)]
    assert circ.num_qubits == 3 and len(circ.gates) == 6


def test_map_to_circuit_basis_y():
    circ = map_to_circuit(reduce_by_symmetry(XOR2), basis="Y")
    assert {g.kind for g in circ.gates} == {RY, CZ}
    with pytest.raises(ValueError):
        map_to_circuit(reduce_by_symmetry(XOR2), basis="Z")


def test_map_to_circuit_rejects_unsimplified_word():
    for letters in [(Rot(Fraction(0)), Refl({1})),
                    # a^0 after a rotation whose gate is already built
                    (Rot(Fraction(1, 2)), Refl({1}), Rot(Fraction(1, 2)), Rot(Fraction(0)))]:
        with pytest.raises(ValueError, match="zero rotation"):
            map_to_circuit(CascadeWord(EQB, 1, letters))


def _gates_letter_by_letter(word, basis, levels):
    """One new Gate per rotation letter and per reflection control."""
    kind = RX if basis == "X" else RY
    target, shift = (0, 0) if word.target_var is None else (word.target_var - 1, 1)
    gates = []
    for letter in word.letters:
        if isinstance(letter, Rot):
            scale = levels if word.mode == MGD else 1
            gates.append(Gate(kind, target, pi_frac=Fraction(letter.exponent) / scale))
        else:
            gates += [Gate(CZ, target, control=v - shift) for v in sorted(letter.controls)]
    return tuple(gates)


def test_map_to_circuit_builds_each_distinct_gate_once():
    rng = random.Random(77)
    cases = []
    for n in range(1, 6):
        truth = TruthVector(n, [rng.getrandbits(1) for _ in range(1 << n)])
        cases.append((simplify(canonical_cascade(spectrum_exact(truth))), None))
        odd = TruthVector(n, [b for _ in range(1 << (n - 1)) for h in [rng.getrandbits(1)]
                              for b in (h, 1 - h)])
        cases.append((reduce_by_symmetry(odd), None))
        for d in (3, 5, 7):
            levels = rng.randrange(2, d + 1)
            truth = TruthVector(n, [rng.randrange(levels) for _ in range(1 << n)])
            params = DihedralParams(d)
            cases.append((simplify(canonical_cascade(spectrum_mod(truth, d), params)), levels))
    for word, levels in cases:
        for basis in ("X", "Y"):
            gates = map_to_circuit(word, basis=basis, levels=levels).gates
            assert gates == _gates_letter_by_letter(word, basis, levels)
            assert len({id(g) for g in gates}) == len(set(gates))


def test_map_to_circuit_levels_contract():
    mgd_word = simplify(canonical_cascade(spectrum_mod(XOR2, 3), DihedralParams(3)))
    with pytest.raises(ValueError):
        map_to_circuit(mgd_word)
    with pytest.raises(ValueError):
        map_to_circuit(simplify(canonical_cascade(spectrum_exact(XOR2))), levels=2)


def test_verify_quantum_xor_passes():
    for circ in (xor_circuit(), reduced_xor_circuit()):
        report = verify_quantum(circ, XOR2)
        assert report.passed
        assert report.counts() == "4/4"


def test_verify_quantum_catches_wrong_circuit():
    # half-turn rotation leaves the target split 50/50, nowhere near any truth value
    circ = QCircuit(1, (Gate(RX, 0, pi_frac=Fraction(1, 2)),), 0)
    report = verify_quantum(circ, TruthVector(0, [0]))
    assert not report.passed
    assert "p=0.5" in report.rows[0].got


def test_verify_quantum_rejects_multivalued_truth():
    with pytest.raises(ValueError):
        verify_quantum(xor_circuit(), TruthVector(2, [0, 1, 2, 0]))


def test_verify_quantum_matches_classical_for_all_two_var_functions():
    for values in itertools.product((0, 1), repeat=4):
        truth = TruthVector(2, list(values))
        word = simplify(canonical_cascade(spectrum_exact(truth)))
        circ = map_to_circuit(word)
        assert verify_classical(word, truth).passed
        assert verify_quantum(circ, truth).passed


def _compiled(truth, basis, reduce):
    word = reduce_by_symmetry(truth) if reduce else simplify(canonical_cascade(spectrum_exact(truth)))
    return map_to_circuit(word, basis=basis)


def test_verify_quantum_rows_equal_full_statevector_reference():
    truths = [TruthVector(2, list(values)) for values in itertools.product((0, 1), repeat=4)]
    rng = random.Random(2410)
    for n in range(3, 7):
        truths += [TruthVector(n, [rng.getrandbits(1) for _ in range(1 << n)]) for _ in range(3)]
        odd = []  # f = x_n xor h: rows 2i and 2i+1 differ
        for _ in range(1 << (n - 1)):
            h = rng.getrandbits(1)
            odd += [h, 1 - h]
        truths.append(TruthVector(n, odd))
    for truth in truths:
        for basis in ("X", "Y"):
            layouts = (False, True) if detect_symmetry(truth) else (False,)
            for reduce in layouts:
                circ = _compiled(truth, basis, reduce)
                assert verify_quantum(circ, truth).rows == verify_rows(circ, truth).rows


def _planted_faults(rng, circuit):
    """Two broken copies of a circuit: one rotation shifted by 2*pi, which
    flips the sign of every U_x, and two CZs inserted at random positions,
    which leave a Z on the target where they do not cancel."""
    gates = list(circuit.gates)
    rotations = [i for i, g in enumerate(gates) if g.kind != CZ]
    shifted = gates.copy()
    if rotations:
        i = rng.choice(rotations)
        shifted[i] = Gate(gates[i].kind, gates[i].target, pi_frac=gates[i].pi_frac + 2)
    inputs = [q for _, q in circuit.layout if q != circuit.target_qubit]
    paired = gates.copy()
    for _ in range(2 if inputs else 0):
        paired.insert(rng.randrange(len(paired) + 1),
                      Gate(CZ, circuit.target_qubit, control=rng.choice(inputs)))
    return [replace(circuit, gates=tuple(g)) for g in (shifted, paired)]


def test_verify_quantum_ok_equals_full_unitary_reference():
    rng = random.Random(6021)
    cases = []
    for n in range(1, 6):
        for basis in ("X", "Y"):
            truth = TruthVector(n, [rng.getrandbits(1) for _ in range(1 << n)])
            odd = TruthVector(n, [b for _ in range(1 << (n - 1)) for h in [rng.getrandbits(1)]
                                  for b in (h, 1 - h)])
            for t, reduce in ((truth, False), (odd, False), (odd, True)):
                circ = _compiled(t, basis, reduce)
                cases += [(c, t) for c in [circ] + _planted_faults(rng, circ)]
            kind = RX if basis == "X" else RY
            for target_is_input in (False, True):
                circ = _random_star_circuit(rng, n, target_is_input, kinds=(kind,))
                cases += [(c, truth) for c in [circ] + _planted_faults(rng, circ)]
    verdicts = set()
    for circ, truth in cases:
        oks = [row.ok for row in verify_quantum(circ, truth).rows]
        assert oks == [ok for ok, _ in strict_rows(circ, truth)]
        verdicts.add(tuple(sorted(set(oks))))
    assert verdicts == {(False,), (True,), (False, True)}


def test_verify_quantum_sign_flip_fails_every_row_on_the_unitary_alone():
    rng = random.Random(6022)
    for basis in ("X", "Y"):
        truth = TruthVector(4, [rng.getrandbits(1) for _ in range(16)])
        flipped, _ = _planted_faults(rng, _compiled(truth, basis, False))
        report = verify_quantum(flipped, truth)
        assert report.counts() == "0/16"
        assert {row.got for row in report.rows} == {"p=1 dU=4"}


def test_verify_quantum_catches_a_leftover_reflection_the_probability_misses():
    # a^1 g[x1] a^1 g[x2] reads 0 on every row but is -I, Z or -Z on three
    word = CascadeWord(EQB, 2, (Rot(Fraction(1)), Refl({1}), Rot(Fraction(1)), Refl({2})))
    truth = TruthVector.from_bits("0000")
    assert verify_classical(word, truth).counts() == "1/4"
    for basis in ("X", "Y"):
        report = verify_quantum(map_to_circuit(word, basis=basis), truth)
        assert report.counts() == "1/4"
        assert [row.got for row in report.rows] == ["p=1 dU=4"] * 3 + ["p=1"]
        assert report.first_failure is report.rows[0]


@pytest.mark.parametrize("gates, value, ok, got", [
    ((), 0, True, "p=1"),
    ((), 1, False, "p=0"),
    ((Gate(RX, 0, pi_frac=Fraction(1)),), 1, True, "p=1"),
    ((Gate(RY, 0, pi_frac=Fraction(-1)),), 1, False, "p=1 dU=4"),
    ((Gate(RX, 0, pi_frac=Fraction(3)),), 1, False, "p=1 dU=4"),
    ((Gate(RY, 0, pi_frac=Fraction(2)),), 0, False, "p=1 dU=4"),
    ((Gate(RY, 0, pi_frac=Fraction(1, 2)),) * 4, 0, False, "p=1 dU=4"),
    ((Gate(RX, 0, pi_frac=Fraction(1, 2)),) * 8, 0, True, "p=1"),
])
def test_verify_quantum_without_inputs(gates, value, ok, got):
    circ, truth = QCircuit(1, gates, 0), TruthVector(0, [value])
    (row,) = verify_quantum(circ, truth).rows
    assert (row.ok, row.got) == (ok, got)
    assert [row.ok] == [ok for ok, _ in strict_rows(circ, truth)]


# gate lists that are not a star around target q[0]: QCircuit refuses each
# when it is built, so the ValueError comes before verify_quantum or
# bloch_trace runs
OFF_TARGET = {
    "rotation-off-target": (2, (Gate(RX, 1, pi_frac=Fraction(1, 2)),)),
    "cz-misses-target": (3, (Gate(RX, 0, pi_frac=Fraction(1, 2)), Gate(CZ, 2, control=1))),
    "cz-target-as-control": (2, (Gate(CZ, 1, control=0),)),
    "path": (3, (Gate(CZ, 0, control=1), Gate(CZ, 2, control=1))),
    "triangle": (3, (Gate(CZ, 0, control=1), Gate(CZ, 2, control=1), Gate(CZ, 0, control=2))),
}


@pytest.mark.parametrize("name", sorted(OFF_TARGET))
def test_verify_quantum_rejects_gates_off_the_target(name):
    with pytest.raises(ValueError, match="is off the target q\\[0\\]"):
        verify_quantum(QCircuit(*OFF_TARGET[name], 0), TruthVector(0, [0]))


@pytest.mark.parametrize("name", sorted(OFF_TARGET))
def test_bloch_trace_rejects_gates_off_the_target(name):
    with pytest.raises(ValueError, match="is off the target q\\[0\\]"):
        bloch_trace(QCircuit(*OFF_TARGET[name], 0), ())


def test_verify_quantum_rejects_mixed_rotation_axes():
    # QCircuit refuses the mix when it is built
    with pytest.raises(ValueError, match="mixes RX and RY"):
        verify_quantum(QCircuit(2, (Gate(RX, 0, pi_frac=Fraction(1, 2)), Gate(CZ, 0, control=1),
                                    Gate(RY, 0, pi_frac=Fraction(1, 2))), 0, ((1, 1),)),
                       TruthVector.from_bits("01"))


def test_circuit_rejects_cz_control_out_of_range():
    with pytest.raises(ValueError, match="touches qubit 2, circuit has 2"):
        QCircuit(2, (Gate(CZ, 0, control=2),), 0)


@pytest.mark.parametrize("assignment", ["101", "1", "12", (1, 2), (0, 0.5), ("1", "x")])
def test_bloch_trace_rejects_bad_assignment(assignment):
    # reduced_xor_circuit reads two input bits
    with pytest.raises(ValueError):
        bloch_trace(reduced_xor_circuit(), assignment)
    with pytest.raises(ValueError):
        bloch_trace_csv(reduced_xor_circuit(), assignment)


def test_bloch_trace_accepts_bit_characters_and_integers():
    circ = reduced_xor_circuit()
    assert bloch_trace(circ, "10") == bloch_trace(circ, (1, 0)) == bloch_trace(circ, [True, 0])


@pytest.mark.parametrize("truth", [TruthVector.from_bits("01"), TruthVector.from_bits("01101001")])
def test_verify_quantum_rejects_truth_of_another_width(truth):
    for circ in (xor_circuit(), reduced_xor_circuit()):
        with pytest.raises(ValueError, match="2 input bits"):
            verify_quantum(circ, truth)


def test_bloch_trace_starts_at_pole():
    circ = QCircuit(1, (), 0)
    assert bloch_trace(circ, ()) == [BlochPoint(0.0, 0.0)]


def test_bloch_trace_rx_lands_on_lower_meridian():
    circ = QCircuit(1, (Gate(RX, 0, pi_frac=Fraction(1, 3)),), 0)
    init, after = bloch_trace(circ, ())
    assert init == BlochPoint(0.0, 0.0)
    assert math.isclose(after.theta, math.pi / 3, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(after.phi, 1.5 * math.pi, rel_tol=0, abs_tol=1e-12)


def test_bloch_trace_ry_lands_on_zero_meridian():
    circ = QCircuit(1, (Gate(RY, 0, pi_frac=Fraction(1, 3)),), 0)
    after = bloch_trace(circ, ())[-1]
    assert math.isclose(after.theta, math.pi / 3, rel_tol=0, abs_tol=1e-12)
    assert after.phi == 0.0


def test_bloch_trace_reduced_xor_ends_at_expected_pole():
    circ = reduced_xor_circuit()
    points = bloch_trace(circ, (1, 0))
    assert math.isclose(points[-1].theta, math.pi, rel_tol=0, abs_tol=1e-9)
    points = bloch_trace(circ, (1, 1))
    assert math.isclose(points[-1].theta, 0.0, rel_tol=0, abs_tol=1e-9)


def test_bloch_trace_csv_layout():
    circ = QCircuit(1, (Gate(RX, 0, pi_frac=Fraction(1, 3)),), 0)
    text = bloch_trace_csv(circ, ())
    lines = text.splitlines()
    assert lines[0] == "step,gate,theta,phi"
    assert lines[1] == "0,init,0,0"
    assert lines[2] == f"1,RX,{math.pi / 3:.12g},{1.5 * math.pi:.12g}"
    assert text.endswith("\n")


def test_interaction_graph_star_for_cascades():
    graph = interaction_graph(xor_circuit())
    assert graph.edges == ((0, 1), (0, 2))
    assert graph.is_star and graph.triangle_free
    assert graph.centers == (0,)


def test_interaction_graph_no_edges():
    graph = interaction_graph(QCircuit(1, (Gate(RX, 0, pi_frac=Fraction(1)),), 0))
    assert graph.edges == () and graph.centers == ()
    assert graph.is_star and graph.triangle_free


def test_interaction_graph_deduplicates_edges():
    circ = QCircuit(2, (Gate(CZ, 0, control=1), Gate(CZ, 0, control=1)), 0)
    assert interaction_graph(circ).edges == ((0, 1),)


def test_interaction_graph_same_for_shared_and_fresh_gates():
    rng = random.Random(29)
    circuits = []
    for n in range(1, 7):
        truth = TruthVector(n, [rng.getrandbits(1) for _ in range(1 << n)])
        circuits.append(map_to_circuit(simplify(canonical_cascade(spectrum_exact(truth)))))
    for circuit in circuits:
        fresh = QCircuit(circuit.num_qubits, tuple(replace(g) for g in circuit.gates),
                         circuit.target_qubit, circuit.layout)
        assert len({id(g) for g in fresh.gates}) == len(fresh.gates)
        assert interaction_graph(fresh) == interaction_graph(circuit)


def test_qasm_golden_for_reduced_xor():
    assert to_qasm(reduced_xor_circuit()) == (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[2];\n"
        "// target: q[1]; x1 -> q[0]; x2 -> q[1]\n"
        "rx(pi/2) q[1];\n"
        "cz q[0],q[1];\n"
        "rx(-pi/2) q[1];\n"
        "cz q[0],q[1];\n")


def test_qasm_header_only_without_layout():
    text = to_qasm(QCircuit(1, (), 0))
    assert text.splitlines()[-1] == "// target: q[0]"


def test_qasm_angle_spellings():
    def line(gate):
        return to_qasm(QCircuit(1, (gate,), 0)).splitlines()[-1]

    assert line(Gate(RX, 0, pi_frac=Fraction(3, 4))) == "rx(3*pi/4) q[0];"
    assert line(Gate(RX, 0, pi_frac=Fraction(-1))) == "rx(-pi) q[0];"
    assert line(Gate(RY, 0, pi_frac=Fraction(2))) == "ry(2*pi) q[0];"
    assert line(Gate(RY, 0, pi_frac=Fraction(4))) == "ry(0) q[0];"


def test_qasm_two_qubit_line_order():
    text = to_qasm(QCircuit(2, (Gate(CZ, 0, control=1),), 0))
    assert text.splitlines()[-1] == "cz q[1],q[0];"

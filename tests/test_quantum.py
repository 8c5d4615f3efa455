import itertools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qcascade.cascade import (canonical_cascade, detect_symmetry, reduce_by_symmetry, simplify,
                              verify_classical)
from qcascade.cli import parse_job, run_pipeline
from qcascade.quantum import (CZ, RX, RY, BlochPoint, Gate, QCircuit, bloch_trace,
                              bloch_trace_csv, interaction_graph, map_to_circuit, to_qasm,
                              verify_quantum)
from qcascade.spectral import TruthVector, WalshSpectrum, spectrum_exact, spectrum_mod
from qcascade.words import CascadeWord, Refl, Rot
from reference_statevector import (_p_want, p_one, quantum_row, rotation_matrix, run_row, strict_row,
                                   strict_rows, verify_rows)

XOR2 = TruthVector(2, (0, 1, 1, 0))


def xor_circuit():
    return map_to_circuit(simplify(canonical_cascade(spectrum_exact(XOR2))))


def reduced_xor_circuit():
    return map_to_circuit(reduce_by_symmetry(XOR2))


def test_rotation_matrix_zero_angle_is_identity():
    for axis in ("X", "Y", "Z"):
        assert np.allclose(rotation_matrix(axis, 0.0), np.eye(2), atol=1e-15)


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
    m = rotation_matrix("Z", theta)
    assert m[0, 1] == 0 and m[1, 0] == 0
    assert np.allclose(np.diag(m), [np.exp(-0.5j * theta), np.exp(0.5j * theta)], atol=1e-15)


def test_rotation_matrix_rejects_bad_axis_and_angle():
    for axis in ("W", "x"):
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
        ra, rb = rotation_matrix(axis, a), rotation_matrix(axis, b)
        assert np.allclose(ra.conj().T @ ra, eye, atol=1e-12)
        assert np.allclose(ra @ rb, rotation_matrix(axis, a + b), atol=1e-12)


def test_z_conjugation_inverts_x_and_y_rotations():
    z = np.diag([1.0, -1.0])
    rng = random.Random(78)
    for _ in range(100):
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        for axis in ("X", "Y"):
            assert np.allclose(z @ rotation_matrix(axis, theta) @ z,
                               rotation_matrix(axis, -theta), atol=1e-12)
        rz = rotation_matrix("Z", theta)
        assert np.allclose(z @ rz @ z, rz, atol=1e-12)


def test_gate_normalizes_pi_frac_into_window():
    g = Gate(RX, 0, pi_frac=Fraction(5, 2))
    assert g.pi_frac == Fraction(-3, 2)
    assert math.isclose(g.angle, -1.5 * math.pi, rel_tol=0, abs_tol=1e-15)
    assert Gate(RX, 0, pi_frac=Fraction(2)).pi_frac == Fraction(2)
    assert Gate(RX, 0, pi_frac=Fraction(-2)).pi_frac == Fraction(2)
    for x in (-4, -2, 0, 2, 4, 5, -7, 10**20, Fraction(5, 2), Fraction(-7, 2), Fraction(-2),
              Fraction(2), Fraction(-5, 3), Fraction(13, 7), Fraction(10**20) + Fraction(1, 3),
              Fraction(-(10**20)) - Fraction(1, 3), Fraction(-1, 10**9)):
        want = Fraction(x) % 4
        if want > 2:
            want -= 4
        gate = Gate(RY, 0, pi_frac=x)
        assert type(gate.pi_frac) is Fraction and gate.pi_frac == want, x
        assert gate.angle == float(want) * math.pi, x


def test_gate_validation_errors():
    for kind in ("SWAP", "X", "H", "RZ", "CNOT"):
        with pytest.raises(ValueError, match="unknown gate kind"):
            Gate(kind, 0, pi_frac=Fraction(1))
    with pytest.raises(ValueError):
        Gate(RX, 0)
    with pytest.raises(TypeError):
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


@pytest.mark.parametrize("pi_frac", ["1/2", True, 0.1, np.int64(1)],
                         ids=["str", "bool", "float", "numpy-int"])
def test_gate_takes_only_an_int_or_a_fraction_as_its_angle(pi_frac):
    # Fraction() would read "1/2" as text, True as pi and 0.1 as the float's
    # 55-bit fraction, which QASM would print verbatim
    with pytest.raises(TypeError, match="pi_frac must be an int or a Fraction"):
        Gate(RX, 0, pi_frac=pi_frac)


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


def _target_bloch_vector(circuit, bits):
    """The Bloch vector of the target's reduced density matrix, from the
    reference statevector."""
    t = circuit.target_qubit
    psi = run_row(circuit, bits).reshape(-1, 2, 1 << t).transpose(1, 0, 2).reshape(2, -1)
    rho = psi @ psi.conj().T
    return np.array([2 * rho[1, 0].real, 2 * rho[1, 0].imag, (rho[0, 0] - rho[1, 1]).real])


@pytest.mark.parametrize("basis", ["X", "Y"])
def test_bloch_trace_follows_the_reference_statevector_gate_by_gate(basis):
    # compiled circuits: the ancilla form, the form retargeted by symmetry
    # (its target starts in |x_n>) and MGD over D_3, D_5 and D_7
    rng = random.Random(41)
    words = []
    for n in (1, 2, 3, 4):
        values = [rng.getrandbits(1) for _ in range(1 << n)]
        words.append(simplify(canonical_cascade(spectrum_exact(TruthVector(n, values)))))
        values[1::2] = [1 - v for v in values[0::2]]
        words.append(reduce_by_symmetry(TruthVector(n, values)))
        for d in (3, 5, 7):
            truth = TruthVector(n, [rng.randrange(d) for _ in range(1 << n)])
            words.append(simplify(canonical_cascade(spectrum_mod(truth, d))))
    for word in words:
        circ = map_to_circuit(word, basis=basis)
        for bits in itertools.product((0, 1), repeat=word.n_vars):
            for k, p in enumerate(bloch_trace(circ, bits)):
                got = [math.sin(p.theta) * math.cos(p.phi), math.sin(p.theta) * math.sin(p.phi),
                       math.cos(p.theta)]
                want = _target_bloch_vector(replace(circ, gates=circ.gates[:k]), bits)
                assert np.abs(got - want).max() <= 1e-9, (str(word), bits, k)


@pytest.mark.parametrize("basis", ["X", "Y"])
def test_bloch_trace_ends_at_the_exact_polar_angle(basis):
    # a compiled circuit takes row x to +-R(2*pi*F(x)/d) of the target's
    # start (d = 2 for EQB), so its last point has theta = 2*pi*min(F, d - F)/d:
    # exactly 0 or pi in EQB, where a z = 1 - 2^-52 must not read as 2.1e-8
    rng = random.Random(43)
    cases = []
    for n in range(1, 6):
        values = [rng.getrandbits(1) for _ in range(1 << n)]
        cases.append((simplify(canonical_cascade(spectrum_exact(TruthVector(n, values)))), values, 2))
        odd = [values[x & ~1] ^ (x & 1) for x in range(1 << n)]
        cases.append((reduce_by_symmetry(TruthVector(n, odd)), odd, 2))
        for d in (3, 5, 7, 9):
            values = [rng.randrange(d) for _ in range(1 << n)]
            cases.append((simplify(canonical_cascade(spectrum_mod(TruthVector(n, values), d))),
                          values, d))
    for word, values, d in cases:
        circ = map_to_circuit(word, basis=basis)
        for x, value in enumerate(values):
            bits = [(x >> (word.n_vars - v)) & 1 for v in range(1, word.n_vars + 1)]
            want = 2 * math.pi * min(value, d - value) / d
            assert abs(bloch_trace(circ, bits)[-1].theta - want) <= 1e-12, (str(word), x)


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


def test_map_to_circuit_scales_mgd_angles_by_group_order():
    word = simplify(canonical_cascade(spectrum_mod(XOR2, 3)))
    circ = map_to_circuit(word)
    rots = [g for g in circ.gates if g.kind == RX]
    # a^w turns by 2*pi*w/3
    assert [g.pi_frac for g in rots] == [Fraction(-2, 3), Fraction(2, 3)]
    assert circ.num_qubits == 3 and len(circ.gates) == 6


def test_mgd_circuits_represent_the_dihedral_group_up_to_sign():
    # a -> R(2*pi/d), g -> Z: on row x the compiled circuit over D_d, with
    # spectrum modulus d or 3d, must act on the target as +-R(2*pi*F(x)/d);
    # a^d = I, so a spectrum taken modulo 3d also folds over D_d
    z = np.diag([1.0, -1.0])
    rng = random.Random(31)
    for d, n, mult, basis in itertools.product((3, 5, 7, 9, 15, 21), range(1, 6), (1, 3), "XY"):
        truth = TruthVector(n, [rng.randrange(d) for _ in range(1 << n)])
        word = simplify(replace(canonical_cascade(spectrum_mod(truth, mult * d)), order=d))
        circ = map_to_circuit(word, basis=basis)
        for x, value in enumerate(truth.values):
            bit_of = {q: (x >> (n - v)) & 1 for v, q in circ.layout}
            u = np.eye(2)
            for g in circ.gates:
                if g.kind == CZ:
                    u = z @ u if bit_of[g.control] else u
                else:
                    u = rotation_matrix(basis, g.angle) @ u
            want = rotation_matrix(basis, 2 * math.pi * value / d)
            assert min(np.abs(u - want).max(), np.abs(u + want).max()) <= 1e-9, (d, truth, x)


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
            map_to_circuit(CascadeWord(1, letters))


def _gates_letter_by_letter(word, basis):
    """One new Gate per rotation letter and per reflection control."""
    kind = RX if basis == "X" else RY
    target, shift = (0, 0) if word.target_var is None else (word.target_var - 1, 1)
    gates = []
    for letter in word.letters:
        if isinstance(letter, Rot):
            scale = 1 if word.order is None else Fraction(2, word.order)
            gates.append(Gate(kind, target, pi_frac=Fraction(letter.exponent) * scale))
        else:
            gates += [Gate(CZ, target, control=v - shift) for v in sorted(letter.controls)]
    return tuple(gates)


def test_map_to_circuit_builds_each_distinct_gate_once():
    rng = random.Random(77)
    cases = []
    for n in range(1, 6):
        truth = TruthVector(n, [rng.getrandbits(1) for _ in range(1 << n)])
        cases.append(simplify(canonical_cascade(spectrum_exact(truth))))
        odd = TruthVector(n, [b for _ in range(1 << (n - 1)) for h in [rng.getrandbits(1)]
                              for b in (h, 1 - h)])
        cases.append(reduce_by_symmetry(odd))
        for d in (3, 5, 7):
            truth = TruthVector(n, [rng.randrange(d) for _ in range(1 << n)])
            cases.append(simplify(canonical_cascade(spectrum_mod(truth, d))))
    for word in cases:
        for basis in ("X", "Y"):
            gates = map_to_circuit(word, basis=basis).gates
            assert gates == _gates_letter_by_letter(word, basis)
            assert len({id(g) for g in gates}) == len(set(gates))


def _outputs(word, truth):
    """What the pipeline makes of a word: its text, its gates' values and
    both checks' rows."""
    circuit = map_to_circuit(word)
    gates = [(g.kind, g.control, g.pi_frac) for g in circuit.gates]
    rotations = [g for g in circuit.gates if g.kind != CZ]
    # equal rotations share one Gate, whichever letter objects they came from
    assert len({id(g) for g in rotations}) == len({g.pi_frac for g in rotations})
    return (str(word), gates, verify_classical(word, truth).rows,
            verify_quantum(circuit, truth).rows)


def test_identity_keys_never_change_a_result():
    rng = random.Random(61)
    for n in range(1, 6):
        truth = TruthVector(n, [rng.getrandbits(1) for _ in range(1 << n)])
        shared = spectrum_exact(truth)
        assert len({id(c) for c in shared.coeffs}) == len(set(shared.coeffs))
        # equal coefficients as separately built Fractions
        unshared = WalshSpectrum(n, [Fraction(c.numerator, c.denominator) for c in shared.coeffs])
        assert len({id(c) for c in unshared.coeffs}) == 1 << n
        assert unshared == shared
        words = [simplify(canonical_cascade(s)) for s in (shared, unshared)]
        assert _outputs(words[0], truth) == _outputs(words[1], truth)
    # x2 xor h(x1) with h = not x1, retargeted onto x2 (and, failing, on an
    # ancilla), with one shared a^(1/2) letter and with two equal ones
    half = Rot(Fraction(1, 2))
    truth = TruthVector(2, (1, 0, 0, 1))
    for target in (2, None):
        shared = CascadeWord(2, (half, Refl({1}), half, Refl({1})), target_var=target)
        unshared = replace(shared, letters=(Rot(Fraction(1, 2)), Refl({1}),
                                            Rot(Fraction(1, 2)), Refl({1})))
        assert _outputs(shared, truth) == _outputs(unshared, truth)
        assert verify_classical(unshared, truth).passed == (target == 2)
        gates = map_to_circuit(unshared).gates
        assert gates[0] is gates[2]


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
    """Four broken copies of a circuit: one rotation shifted by 2*pi, which
    flips the sign of every U_x; two CZs inserted at random positions, which
    leave a Z on the target where they do not cancel; every rotation angle
    halved; and the last CZ dropped.  The last two leave rows whose target
    reads F(x) with a probability strictly between 0 and 1."""
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
    halved = [g if g.kind == CZ else Gate(g.kind, g.target, pi_frac=g.pi_frac / 2) for g in gates]
    czs = [i for i, g in enumerate(gates) if g.kind == CZ]
    dropped = gates[:czs[-1]] + gates[czs[-1] + 1:] if czs else gates
    return [replace(circuit, gates=tuple(g)) for g in (shifted, paired, halved, dropped)]


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


def test_verify_quantum_row_numbers_equal_full_statevector_reference():
    # every row's p= value, and its dU= value where printed, on compiled
    # circuits and their planted faults, failing rows included; the texts
    # carry 12 significant digits, so allow their rounding on top of 1e-12
    rng = random.Random(6023)
    cases = []
    for n in range(1, 6):
        for basis in ("X", "Y"):
            truth = TruthVector(n, [rng.getrandbits(1) for _ in range(1 << n)])
            odd = TruthVector(n, [b for _ in range(1 << (n - 1)) for h in [rng.getrandbits(1)]
                                  for b in (h, 1 - h)])
            for t, reduce in ((truth, False), (odd, True)):
                circ = _compiled(t, basis, reduce)
                cases += [(c, t) for c in [circ] + _planted_faults(rng, circ)]
    fractional = 0
    for circ, truth in cases:
        rows = verify_quantum(circ, truth).rows
        for bits, want, row in zip(itertools.product((0, 1), repeat=truth.n), truth.values, rows):
            p_text, *du_text = row.got.split(" dU=")
            p_want = _p_want(circ, bits, want)
            assert math.isclose(float(p_text[2:]), p_want, rel_tol=5e-12, abs_tol=1e-12), row
            if du_text:
                _, dist = strict_row(circ, bits, want)
                assert math.isclose(float(du_text[0]), dist, rel_tol=5e-12, abs_tol=1e-12), row
            fractional += 1e-9 < p_want < 1 - 1e-9
    assert fractional > 0


def test_verify_quantum_sign_flip_fails_every_row_on_the_unitary_alone():
    rng = random.Random(6022)
    for basis in ("X", "Y"):
        truth = TruthVector(4, [rng.getrandbits(1) for _ in range(16)])
        flipped, *_ = _planted_faults(rng, _compiled(truth, basis, False))
        report = verify_quantum(flipped, truth)
        assert report.counts() == "0/16"
        assert {row.got for row in report.rows} == {"p=1 dU=4"}


def test_verify_quantum_catches_a_leftover_reflection_the_probability_misses():
    # a^1 g[x1] a^1 g[x2] reads 0 on every row but is -I, Z or -Z on three
    word = CascadeWord(2, (Rot(Fraction(1)), Refl({1}), Rot(Fraction(1)), Refl({2})))
    truth = TruthVector(2, (0, 0, 0, 0))
    assert verify_classical(word, truth).counts() == "1/4"
    for basis in ("X", "Y"):
        report = verify_quantum(map_to_circuit(word, basis=basis), truth)
        assert report.counts() == "1/4"
        assert [row.got for row in report.rows] == ["p=1 dU=4"] * 3 + ["p=1"]
        assert report.first_failure == 0


def test_a_cz_from_an_idle_qubit_flips_no_sign():
    # q[2] holds no input, so it stays |0> and its CZ acts as the identity;
    # the same CZ from the input qubit q[1] turns row x1 = 1 into Z
    half = Gate(RX, 0, pi_frac=Fraction(1, 2))
    truth = TruthVector(1, (1, 1))
    idle = QCircuit(3, (half, Gate(CZ, 0, control=2), half), 0, ((1, 1),))
    bare = QCircuit(3, (half, half), 0, ((1, 1),))
    wired = QCircuit(3, (half, Gate(CZ, 0, control=1), half), 0, ((1, 1),))
    report = verify_quantum(idle, truth)
    assert report == verify_quantum(bare, truth)
    assert [row.ok for row in report.rows] == [ok for ok, _ in strict_rows(idle, truth)] == [True] * 2
    assert [row.ok for row in verify_quantum(wired, truth).rows] == [True, False]
    for bits in ("0", "1"):
        trace = bloch_trace(idle, bits)
        assert trace[2] == trace[1]
        assert trace[:2] + trace[3:] == bloch_trace(bare, bits)


@pytest.mark.parametrize("basis", ["X", "Y"])
def test_verify_quantum_rows_where_the_target_holds_an_input_and_its_czs_reflect(basis):
    # retargeted onto x_n, so t(x) = x_n, and the CZs leave a reflection
    # (s = 1) where x1 = 1, or where x1 xor x2 = 1; row 3 of the first word
    # and 3 and 5 of the second have t = s = 1.  In the first word U_x is Z
    # on the s = 1 rows and w - turn is 0 on every row, so only the |1>
    # column's -i * (w + turn) shows the reflection
    half = Rot(Fraction(1, 2))
    cases = [
        (CascadeWord(2, (half, Refl({1}), half), target_var=2), (1, 0, 0, 1),
         ["p=1", "p=1", "p=1 dU=4", "p=1 dU=4"]),
        (CascadeWord(3, (half, Refl({1}), half, Refl({2}), Rot(Fraction(1, 3))), target_var=3),
         (1, 0, 0, 1, 0, 1, 1, 0), ["p=0.75", "p=0.75", "p=0.25", "p=0.25"] * 2),
    ]
    for word, values, texts in cases:
        circ, truth = map_to_circuit(word, basis=basis), TruthVector(word.n_vars, values)
        rows = verify_quantum(circ, truth).rows
        assert [row.got for row in rows] == texts
        assert list(rows) == [quantum_row(circ, bits, want) for bits, want in
                              zip(itertools.product((0, 1), repeat=truth.n), values)]


@pytest.mark.parametrize("layout", [
    ((1, 2), (2, 2)),  # two inputs on one qubit
    ((2, 2), (2, 1)),  # x2 twice, and no x1
    ((1, 7), (2, 2)),  # x1 off the 3-qubit circuit
    ((0, 1), (2, 2)),  # x0, which bloch_trace would read as the last bit
    ((1, 1), (3, 2)),  # x3 in a 2-input layout
])
def test_circuit_rejects_a_layout_no_circuit_can_have(layout):
    circ = xor_circuit()
    assert verify_quantum(circ, XOR2).passed
    with pytest.raises(ValueError, match=r"is not x1\.\.x2 on distinct circuit qubits"):
        replace(circ, layout=layout)


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


def test_verify_quantum_fails_a_rotation_one_eqb_step_off():
    # one step of 1/2^16 half-turns is a squared entry of (pi/2^17)^2 =
    # 5.7e-10, under VERIFY_TOL, and the exact check fails it all the same
    step = Fraction(1, 2 ** 16)
    circ = QCircuit(1, (Gate(RY, 0, pi_frac=1 + step),), 0)
    (row,) = verify_quantum(circ, TruthVector(0, [1])).rows
    assert row == ("1", "p=0.999999999426 dU=5.74486586219e-10", False)
    # the compiled n = 16 circuit of acceptance criterion 8's generator, seed 8
    rng = random.Random(8)
    doc = {"n": 16, "truth": "".join(str(rng.getrandbits(1)) for _ in range(1 << 16))}
    report = run_pipeline(parse_job(json.dumps(doc), allow_large=True))
    assert report.passed
    gates = list(report.circuit.gates)
    i = next(i for i, g in enumerate(gates) if g.kind != CZ)
    gates[i] = Gate(gates[i].kind, gates[i].target, pi_frac=gates[i].pi_frac + step)
    rows = verify_quantum(replace(report.circuit, gates=tuple(gates)), report.job.truth).rows
    assert {row.got for row in rows} == {"p=0.999999999426 dU=5.74486586219e-10"}
    assert not any(row.ok for row in rows)


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
                       TruthVector(1, (0, 1)))


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


@pytest.mark.parametrize("truth", [TruthVector(1, (0, 1)), TruthVector(3, (0, 1, 1, 0, 1, 0, 0, 1))])
def test_verify_quantum_rejects_truth_of_another_width(truth):
    for circ in (xor_circuit(), reduced_xor_circuit()):
        with pytest.raises(ValueError, match="2 input bits"):
            verify_quantum(circ, truth)


def test_bloch_trace_starts_at_pole():
    circ = QCircuit(1, (), 0)
    assert bloch_trace(circ, ()) == [BlochPoint(0.0, 0.0)] == [(0.0, 0.0)]


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
    circ = map_to_circuit(simplify(canonical_cascade(spectrum_exact(XOR2))), basis="Y")
    assert {g.kind for g in circ.gates} == {RY, CZ}
    for bits in ("00", "01", "10", "11"):
        header, *rows = bloch_trace_csv(circ, bits).splitlines()
        assert header == "step,gate,theta,phi"
        assert len(rows) == len(circ.gates) + 1
        cells = [row.split(",") for row in rows]
        assert [c[0] for c in cells] == [str(k) for k in range(len(rows))]
        assert [c[1] for c in cells] == ["init", *(g.kind for g in circ.gates)]
        assert [c[2:] for c in cells] == [[f"{p.theta:.12g}", f"{p.phi:.12g}"]
                                          for p in bloch_trace(circ, bits)]


def test_interaction_graph_star_for_cascades():
    assert interaction_graph(xor_circuit()) == ((0, 1), (0, 2))


def test_interaction_graph_no_edges():
    assert interaction_graph(QCircuit(1, (Gate(RX, 0, pi_frac=Fraction(1)),), 0)) == ()


def test_interaction_graph_deduplicates_edges():
    circ = QCircuit(2, (Gate(CZ, 0, control=1), Gate(CZ, 0, control=1)), 0)
    assert interaction_graph(circ) == ((0, 1),)


def test_no_result_depends_on_gate_sharing():
    """map_to_circuit shares one Gate object between equal gates; a copy of
    the circuit with one fresh object per gate checks, traces and prints
    the same, faulty circuits included."""
    rng = random.Random(29)
    cases = []
    for n in range(1, 7):
        truth = TruthVector(n, [rng.getrandbits(1) for _ in range(1 << n)])
        cases.append((_compiled(truth, "X", False), truth))
    odd = TruthVector(4, [b for _ in range(8) for h in [rng.getrandbits(1)] for b in (h, 1 - h)])
    cases.append((_compiled(odd, "Y", True), odd))
    for circuit, truth in cases:
        assert len({id(g) for g in circuit.gates}) == len(set(circuit.gates))
        for shared in [circuit] + _planted_faults(rng, circuit):
            fresh = replace(shared, gates=tuple(replace(g) for g in shared.gates))
            assert len({id(g) for g in fresh.gates}) == len(fresh.gates)
            assert verify_quantum(fresh, truth).rows == verify_quantum(shared, truth).rows
            assert to_qasm(fresh) == to_qasm(shared)
            assert interaction_graph(fresh) == interaction_graph(shared)
            for x in rng.sample(range(1 << truth.n), min(3, 1 << truth.n)):
                bits = format(x, f"0{truth.n}b")
                assert bloch_trace(fresh, bits) == bloch_trace(shared, bits)


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

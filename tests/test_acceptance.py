"""End-to-end acceptance checks, one test per numbered criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``-rA``) to see the
per-criterion PASS/FAIL lines and timings.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from qcascade.cascade import (canonical_cascade, detect_symmetry, reduce_by_symmetry,
                              simplify, verify_classical)
from qcascade.dihedral import DihedralParams
from qcascade.quantum import (interaction_graph, map_to_circuit, rotation_matrix,
                              verify_quantum)
from qcascade.spectral import TruthVector, fwht, spectrum_exact, spectrum_mod
from reference_walsh import walsh_matrix

_CIRCUITS = []  # (label, circuit) pairs accumulated for the connectivity sweep


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def _rotation(axis, theta):
    """``rotation_matrix``, plus the Z axis, which the compiler never emits."""
    if axis != "Z":
        return rotation_matrix(axis, theta)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c - 1j * s, 0], [0, c + 1j * s]])


def _random_truth(rng, n):
    return TruthVector(n, [rng.getrandbits(1) for _ in range(1 << n)])


def _eqb_circuit(truth):
    word = simplify(canonical_cascade(spectrum_exact(truth)))
    return word, map_to_circuit(word)


def test_criterion_1_golden_example():
    truth = TruthVector(2, (0, 1, 1, 0))
    params = DihedralParams(3)
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        spectrum = spectrum_mod(truth, 3)
        word = simplify(canonical_cascade(spectrum, params))
        best = min(best, time.perf_counter() - t0)
    ok = (spectrum.coeffs == (-1, 0, 0, 1)
          and str(word) == "a^-1 g[x1,x2] a^1 g[x1,x2]"
          and best < 1e-3)
    _CIRCUITS.append(("example-1", map_to_circuit(word, levels=2)))
    _report(1, "golden two-variable example, exact, under 1 ms", ok,
            f"spectrum {spectrum}, word '{word}', best of 5: {best * 1e3:.3f} ms")


def test_criterion_2_canonical_length_law():
    rng = random.Random(2)
    t0 = time.perf_counter()
    mismatches = []
    for n in range(1, 11):
        word = canonical_cascade(spectrum_exact(_random_truth(rng, n)))
        if len(word) != 3 * (1 << n) - 2:
            mismatches.append((n, len(word)))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 1.0
    _report(2, "canonical word has 3*2^n - 2 letters for n = 1..10", ok,
            f"{elapsed * 1e3:.1f} ms" + (f", mismatches {mismatches}" if mismatches else ""))


def test_criterion_3_transform_involution_and_fast_path():
    w2 = walsh_matrix(2)
    ok = np.array_equal(w2 @ w2, 4 * np.eye(4, dtype=np.int64))
    rng = random.Random(3)
    for n in range(1, 7):
        dense = walsh_matrix(n)
        for _ in range(100):
            vec = [rng.randrange(-9, 10) for _ in range(1 << n)]
            if fwht(vec) != list(dense @ np.array(vec, dtype=np.int64)):
                ok = False
    _report(3, "Walsh involution and exact fast-transform agreement", ok,
            "W2^2 = 4I, 100 vectors per n = 1..6")


def test_criterion_4_dual_verification_oracle_sweep():
    t0 = time.perf_counter()
    failures = 0
    checked = 0

    def check(truth):
        nonlocal failures, checked
        word, circuit = _eqb_circuit(truth)
        _CIRCUITS.append((f"eqb-n{truth.n}", circuit))
        checked += 1
        if not (verify_classical(word, truth).passed
                and verify_quantum(circuit, truth, tol=1e-9).passed):
            failures += 1

    for values in itertools.product((0, 1), repeat=4):
        check(TruthVector(2, values))
    rng = random.Random(4)
    for n in (3, 4, 5):
        for _ in range(200):
            check(_random_truth(rng, n))
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30.0
    _report(4, "classical and quantum checks agree on every sampled function", ok,
            f"{checked} functions, {failures} failures, {elapsed:.2f} s")


def test_criterion_5_rotation_matrix_identities():
    rng = random.Random(5)
    z = np.diag([1.0, -1.0])
    eye = np.eye(2)
    worst = 0.0
    for i in range(1000):
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        phi = rng.uniform(-2 * math.pi, 2 * math.pi)
        for axis in ("X", "Y", "Z"):
            r = _rotation(axis, theta)
            worst = max(worst, float(np.max(np.abs(r.conj().T @ r - eye))))
            worst = max(worst, float(np.max(np.abs(
                r @ _rotation(axis, phi) - _rotation(axis, theta + phi)))))
        axis = "X" if i % 2 == 0 else "Y"
        worst = max(worst, float(np.max(np.abs(
            z @ rotation_matrix(axis, theta) @ z - rotation_matrix(axis, -theta)))))
    ok = worst <= 1e-12
    _report(5, "unitarity, additivity and Z-conjugation inversion", ok,
            f"1000 angles, worst deviation {worst:.2e}")


def test_criterion_6_symmetry_reduction_saves_a_qubit_and_gates():
    failures = []
    checked = 0

    def check(truth):
        nonlocal checked
        checked += 1
        full_word, full_circuit = _eqb_circuit(truth)
        reduced_word = reduce_by_symmetry(truth)
        reduced_circuit = map_to_circuit(reduced_word)
        _CIRCUITS.append((f"sym-n{truth.n}", reduced_circuit))
        good = (detect_symmetry(truth)
                and reduced_circuit.num_qubits == full_circuit.num_qubits - 1
                and reduced_circuit.target_qubit == reduced_circuit.num_qubits - 1
                and len(reduced_circuit.gates) < len(full_circuit.gates)
                and verify_classical(reduced_word, truth).passed
                and verify_quantum(reduced_circuit, truth, tol=1e-9).passed)
        if not good:
            failures.append(truth.values)

    for n in range(1, 5):
        for residual in itertools.product((0, 1), repeat=1 << (n - 1)):
            values = []
            for h in residual:
                values.extend((h, 1 - h))
            check(TruthVector(n, values))
    rng = random.Random(6)
    for _ in range(20):
        values = []
        for _ in range(16):
            h = rng.getrandbits(1)
            values.extend((h, 1 - h))
        check(TruthVector(5, values))
    ok = not failures
    _report(6, "odd-in-last-variable functions drop a qubit and gates", ok,
            f"{checked} functions" + (f", first failure {failures[0]}" if failures else ""))


def test_criterion_7_interaction_graphs_are_target_centered_stars():
    if not _CIRCUITS:  # standalone run: rebuild a representative family
        for values in itertools.product((0, 1), repeat=4):
            _CIRCUITS.append(("eqb-n2", _eqb_circuit(TruthVector(2, values))[1]))
        rng = random.Random(7)
        for n in (3, 4, 5):
            for _ in range(40):
                _CIRCUITS.append((f"eqb-n{n}", _eqb_circuit(_random_truth(rng, n))[1]))
    bad = []
    for label, circuit in _CIRCUITS:
        graph = interaction_graph(circuit)
        centered = not graph.edges or circuit.target_qubit in graph.centers
        if not (graph.is_star and graph.triangle_free and centered):
            bad.append(label)
    ok = not bad
    _report(7, "every circuit couples qubits in a target-centered star", ok,
            f"{len(_CIRCUITS)} circuits" + (f", offenders {bad[:3]}" if bad else ""))


def test_criterion_8_ten_variable_synthesis_under_a_minute():
    rng = random.Random(8)
    truth = _random_truth(rng, 10)
    t0 = time.perf_counter()
    word = simplify(canonical_cascade(spectrum_exact(truth)))
    circuit = map_to_circuit(word)
    classical = verify_classical(word, truth)
    quantum = verify_quantum(circuit, truth, tol=1e-9)
    elapsed = time.perf_counter() - t0
    ok = (classical.passed and quantum.passed
          and circuit.num_qubits == 11
          and len(quantum.rows) == 1024
          and elapsed < 60.0)
    _report(8, "ten-variable synthesis fully verified in under 60 s", ok,
            f"{len(word)} letters, {len(circuit.gates)} gates, {elapsed:.1f} s")

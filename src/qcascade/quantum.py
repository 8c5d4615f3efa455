"""Quantum realization of cascade words.

Standard layout puts the target ancilla on qubit 0 and input variable x_v
on qubit v; a symmetry-reduced word drops the ancilla, putting x_v on qubit
v-1 with the last input as target.  Every circuit is a star centred on the
target: RX/RY rotations of the target and CZ gates joining one input qubit
to it.  Rotation matrices use the half-angle convention, so
R(theta + 4*pi) = R(theta) exactly and angles are kept in (-2*pi, 2*pi].
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cascade import VerificationReport, VerificationRow
from .spectral import TruthVector
from .words import EQB, MGD, CascadeWord, Refl, Rot

RX, RY, CZ = "RX", "RY", "CZ"
GATE_KINDS = frozenset({RX, RY, CZ})


def rotation_matrix(axis: str, theta: float) -> np.ndarray:
    """2x2 rotation about the X or Y axis by theta radians."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta}")
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    if axis == "X":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis == "Y":
        return np.array([[c, -s], [s, c]], dtype=complex)
    raise ValueError(f"unknown rotation axis {axis!r}")


@dataclass(frozen=True)
class Gate:
    """One gate application: RX or RY on ``target``, or CZ(``control``, ``target``).

    Rotations take their angle as an exact multiple ``pi_frac`` of pi, kept
    in (-2, 2] so emitters can print it exactly; ``angle`` holds the same
    angle in radians.
    """

    kind: str
    target: int
    control: int | None = None
    pi_frac: Fraction | None = None
    angle: float | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.target < 0 or (self.control is not None and self.control < 0):
            raise ValueError("qubit indices must be non-negative")
        if self.kind == CZ:
            if self.control is None:
                raise ValueError("CZ needs a control qubit")
            if self.control == self.target:
                raise ValueError("control and target must differ")
            if self.pi_frac is not None:
                raise ValueError("CZ takes no angle")
            return
        if self.control is not None:
            raise ValueError(f"{self.kind} takes no control qubit")
        if self.pi_frac is None:
            raise ValueError(f"{self.kind} needs an angle")
        f = Fraction(self.pi_frac) % 4
        if f > 2:
            f -= 4
        object.__setattr__(self, "pi_frac", f)
        object.__setattr__(self, "angle", float(f) * math.pi)


@dataclass(frozen=True)
class QCircuit:
    """A star centred on ``target_qubit``, over ``num_qubits`` qubits,
    executed left to right: every gate is a rotation of the target, all
    about one axis, or a CZ from another qubit (its ``control``) to the
    target.  Construction raises ValueError on any other gate list.

    ``layout`` maps input variables to qubits as (variable, qubit) pairs.
    """

    num_qubits: int
    gates: tuple[Gate, ...]
    target_qubit: int
    layout: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "layout", tuple(self.layout))
        if self.num_qubits < 1:
            raise ValueError("need at least one qubit")
        target = self.target_qubit
        if not 0 <= target < self.num_qubits:
            raise ValueError(f"target qubit {target} out of range")
        kinds = set()
        # once per distinct gate object: map_to_circuit shares equal gates
        for g in {id(g): g for g in self.gates}.values():
            if g.target != target:
                raise ValueError(f"{g.kind} on q[{g.target}] is off the target q[{target}]")
            if g.control is not None and g.control >= self.num_qubits:
                raise ValueError(f"gate CZ touches qubit {g.control}, circuit has {self.num_qubits}")
            kinds.add(g.kind)
        if RX in kinds and RY in kinds:
            raise ValueError("circuit mixes RX and RY rotations")

    def gate_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for g in self.gates:
            counts[g.kind] = counts.get(g.kind, 0) + 1
        return counts


def map_to_circuit(word: CascadeWord, basis: str = "X", levels: int | None = None) -> QCircuit:
    """Translate a simplified word into gates.

    Rotations become R_basis(w * pi) in EQB mode or R_basis(w * pi / levels)
    in MGD mode; each reflection control contributes one CZ against the
    target.  Words containing a^0 are rejected: simplify first.  Equal
    gates are one shared ``Gate`` object: one per rotation exponent and one
    per CZ control.
    """
    if basis not in ("X", "Y"):
        raise ValueError(f"basis must be 'X' or 'Y', got {basis!r}")
    if word.mode == MGD:
        if levels is None or levels < 1:
            raise ValueError("MGD words need a positive level count for the angle scale")
    elif levels is not None:
        raise ValueError("levels only apply to MGD words")
    rot_kind = RX if basis == "X" else RY
    n = word.n_vars
    if word.target_var is None:
        target = 0
        qubit_of = {v: v for v in range(1, n + 1)}
        num_qubits = n + 1
    else:
        target = word.target_var - 1
        qubit_of = {v: v - 1 for v in range(1, n + 1)}
        num_qubits = n
    gates: list[Gate] = []
    # exponent 0 is never stored, so every a^0 reaches the check below
    rotations: dict[Fraction | int, Gate] = {}
    czs: dict[int, Gate] = {}
    for letter in word.letters:
        if isinstance(letter, Rot):
            gate = rotations.get(letter.exponent)
            if gate is None:
                if letter.exponent == 0:
                    raise ValueError("word is not simplified: zero rotation present")
                frac = Fraction(letter.exponent)
                if word.mode == MGD:
                    frac /= levels
                gate = rotations[letter.exponent] = Gate(rot_kind, target, pi_frac=frac)
            gates.append(gate)
        else:
            for v in sorted(letter.controls):
                gate = czs.get(v)
                if gate is None:
                    gate = czs[v] = Gate(CZ, target=target, control=qubit_of[v])
                gates.append(gate)
    return QCircuit(num_qubits, tuple(gates), target,
                    layout=tuple(sorted(qubit_of.items())))


def verify_quantum(circuit: QCircuit, truth: TruthVector, tol: float = 1e-9) -> VerificationReport:
    """Unitary check: every row's whole 2x2 target unitary U_x must be
    R(pi * b(x)) about the circuit's rotation axis, where b(x) = F(x) xor
    t(x) and t(x) is the target's own input bit (0 with the ancilla).

    Row x passes when the target, started in |t(x)>, reads F(x) with
    probability p >= 1 - tol, and every entry of U_x - R(pi * b(x)) has
    squared modulus <= tol; the row's text is "p=<p>", with " dU=<largest
    squared entry>" appended when only the unitary comparison fails.
    ``truth.n`` must equal the circuit's number of inputs.

    All rows run at once in real arithmetic, as one (2, 2 * 2^n) array
    whose column c * 2^n + x holds U_x|c>: one 2x2 matmul per rotation and
    one sign vector per run of consecutive CZ gates.  An RX circuit runs as
    the RY circuit with the same angles, since S RX(theta) S^dag = RY(theta)
    and S Z S^dag = Z for S = diag(1, i): that conjugation changes only the
    phases of U_x's entries, and it maps the expected RX(pi * b) to
    RY(pi * b).
    """
    if not truth.is_boolean:
        raise ValueError("quantum verification expects a Boolean truth vector")
    n = truth.n
    if len(circuit.layout) != n:
        raise ValueError(f"circuit reads {len(circuit.layout)} input bits, "
                         f"truth vector has {n}")
    target = circuit.target_qubit
    size = 1 << n
    # column c * 2^n + x holds input x_v at bit n - v, for either c
    cols = np.arange(2 * size)
    bit_of = {q: (cols >> (n - v)) & 1 for v, q in circuit.layout}
    u = np.zeros((2, 2 * size))
    u[0, :size] = u[1, size:] = 1.0
    buf = np.empty_like(u)
    # one matrix per distinct rotation and one sign vector per distinct CZ
    # run, keyed by gate identity (map_to_circuit shares equal gates)
    mats: dict[int, np.ndarray] = {}
    flips: dict[tuple[int, ...], np.ndarray] = {}
    for kind, group in itertools.groupby(circuit.gates, key=operator.attrgetter("kind")):
        if kind == CZ:
            run = tuple(group)
            key = tuple(map(id, run))
            flip = flips.get(key)
            if flip is None:
                parity = 0
                for gate in run:
                    if gate.control in bit_of:
                        parity = parity ^ bit_of[gate.control]
                flip = flips[key] = 1.0 - 2.0 * parity
            u[1] *= flip
            continue
        for gate in group:
            mat = mats.get(id(gate))
            if mat is None:
                mat = mats[id(gate)] = rotation_matrix("Y", gate.angle).real
            np.matmul(mat, u, out=buf)
            u, buf = buf, u
    want = np.array(truth.values)
    start = bit_of[target][:size] if target in bit_of else 0
    flipped = want ^ start
    p_one = u[1, start * size + cols[:size]] ** 2
    p_want = np.where(want == 1, p_one, 1.0 - p_one)
    expected = np.empty_like(u)
    expected[0, :size] = expected[1, size:] = 1 - flipped
    expected[0, size:] = -flipped
    expected[1, :size] = flipped
    dist = ((u - expected) ** 2).reshape(4, size).max(axis=0)
    p_ok = p_want >= 1.0 - tol
    ok = p_ok & (dist <= tol)
    p_list = p_want.tolist()
    text_of = {p: f"p={p:.12g}" for p in set(p_list)}  # few distinct values
    got = [text_of[p] for p in p_list]
    for i in np.flatnonzero(p_ok & ~ok).tolist():
        got[i] += f" dU={dist[i]:.12g}"
    return VerificationReport("quantum", tuple(map(
        VerificationRow, truth.assignments(), map(str, truth.values), got, ok.tolist())))


@dataclass(frozen=True)
class BlochPoint:
    """Polar angle theta in [0, pi], azimuth phi in [0, 2*pi), phi = 0 at poles."""

    theta: float
    phi: float


def _bloch_point(a: complex, b: complex) -> BlochPoint:
    r01 = a * b.conjugate()
    z = min(1.0, max(-1.0, (a * a.conjugate()).real - (b * b.conjugate()).real))
    x = 2.0 * r01.real
    y = -2.0 * r01.imag
    theta = math.acos(z)
    phi = math.atan2(y, x) % (2.0 * math.pi) if math.hypot(x, y) >= 1e-9 else 0.0
    return BlochPoint(theta, phi)


def _traced(circuit: QCircuit, assignment) -> list[tuple[str, BlochPoint]]:
    """Label and Bloch point of the target before the first gate and after each gate.

    In a star circuit the other qubits stay in the basis state the row sets
    (|0> when no input sits on them), so the target's two amplitudes (a, b)
    are the whole state of the row, and a CZ flips the sign of b when its
    control is 1.
    """
    if any(b not in (0, 1, "0", "1") for b in assignment):
        raise ValueError(f"assignment entries must be 0 or 1, got {assignment!r}")
    if len(assignment) != len(circuit.layout):
        raise ValueError(f"circuit reads {len(circuit.layout)} input bits, "
                         f"got {len(assignment)}")
    target = circuit.target_qubit
    bit_of = {q: int(assignment[v - 1]) for v, q in circuit.layout}
    a, b = (0j, 1 + 0j) if bit_of.get(target) else (1 + 0j, 0j)
    points = [("init", _bloch_point(a, b))]
    for gate in circuit.gates:
        if gate.kind == CZ:
            if bit_of.get(gate.control):
                b = -b
        else:
            (m00, m01), (m10, m11) = rotation_matrix(gate.kind[-1], gate.angle).tolist()
            a, b = m00 * a + m01 * b, m10 * a + m11 * b
        points.append((gate.kind, _bloch_point(a, b)))
    return points


def bloch_trace(circuit: QCircuit, assignment) -> list[BlochPoint]:
    """Target-qubit Bloch coordinates: the initial state, then one point per
    gate.  ``assignment`` gives one 0/1 bit (int or character) per circuit
    input."""
    return [point for _, point in _traced(circuit, assignment)]


def bloch_trace_csv(circuit: QCircuit, assignment) -> str:
    lines = ["step,gate,theta,phi"]
    for step, (label, point) in enumerate(_traced(circuit, assignment)):
        lines.append(f"{step},{label},{point.theta:.12g},{point.phi:.12g}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class InteractionGraph:
    """Undirected two-qubit coupling graph of a circuit.  A ``QCircuit`` is
    a star, so ``is_star`` and ``triangle_free`` are always true."""

    edges: tuple[tuple[int, int], ...]
    is_star: bool
    triangle_free: bool
    centers: tuple[int, ...]


def interaction_graph(circuit: QCircuit) -> InteractionGraph:
    """One edge per distinct CZ control, joining it to the target.  The
    centres are the target for two or more edges, both ends of a single
    edge, and none without edges."""
    target = circuit.target_qubit
    controls = {g.control for g in circuit.gates} - {None}
    edges = tuple(sorted((min(c, target), max(c, target)) for c in controls))
    centers = edges[0] if len(edges) == 1 else (target,) if edges else ()
    return InteractionGraph(edges, True, True, centers)


def angle_text(gate: Gate) -> str:
    """A rotation's angle as exact text in units of pi, e.g. "-3*pi/4"."""
    num, den = gate.pi_frac.numerator, gate.pi_frac.denominator
    if num == 0:
        return "0"
    sign = "-" if num < 0 else ""
    head = "pi" if abs(num) == 1 else f"{abs(num)}*pi"
    tail = f"/{den}" if den != 1 else ""
    return f"{sign}{head}{tail}"


def to_qasm(circuit: QCircuit) -> str:
    """OPENQASM-2-style text, one gate per line, executed top to bottom."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    layout = "; ".join(f"x{v} -> q[{q}]" for v, q in circuit.layout)
    lines.append(f"// target: q[{circuit.target_qubit}]" + (f"; {layout}" if layout else ""))
    for g in circuit.gates:
        if g.kind == CZ:
            lines.append(f"cz q[{g.control}],q[{g.target}];")
        else:
            lines.append(f"{g.kind.lower()}({angle_text(g)}) q[{g.target}];")
    return "\n".join(lines) + "\n"

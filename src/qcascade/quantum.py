"""Quantum realization of cascade words.

Standard layout puts the target ancilla on qubit 0 and input variable x_v
on qubit v; a symmetry-reduced word drops the ancilla, putting x_v on qubit
v-1 with the last input as target.  Every circuit is a star centred on the
target: RX/RY rotations of the target and CZ gates joining one input qubit
to it.  Rotations use the half-angle convention, so R(theta + 4*pi) =
R(theta) exactly and angles are kept in (-2*pi, 2*pi].

All arithmetic runs in the RY frame, on z = a + i*b for the target's real
state (a, b): RY(theta) multiplies z by e^(i*theta/2), and a CZ whose
control is 1 conjugates z, as D_n rotates and reflects the plane.  So a
row's gates multiply to one a^r g^s, which sends z to w*z, or to w*conj(z)
when s = 1, with w = e^(i*r/2) and r their exact signed angle sum.  An RX
circuit is the RY circuit, same angles, conjugated by S = diag(1, i), as
S RX(theta) S^dag = RY(theta) and S Z S^dag = Z: from |0> or |1> its
target is in the state (a, -i*b), up to a global phase.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .cascade import VerificationReport, VerificationRow
from .dihedral import _walsh
from .spectral import TruthVector
from .words import CascadeWord, Rot

RX, RY, CZ = "RX", "RY", "CZ"
GATE_KINDS = frozenset({RX, RY, CZ})
VERIFY_TOL = 1e-9


@dataclass(frozen=True)
class Gate:
    """One gate application: RX or RY on ``target``, or CZ(``control``, ``target``).

    Rotations take an angle as an exact int or Fraction multiple ``pi_frac``
    of pi, kept in (-2, 2] as a Fraction so emitters can print it exactly;
    ``angle`` holds the same angle in radians.
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
        f = self.pi_frac
        if isinstance(f, bool) or not isinstance(f, (int, Fraction)):
            raise TypeError(f"pi_frac must be an int or a Fraction, got {f!r}")
        # in-range angles, nearly all of them, skip the modular arithmetic
        if not -2 * f.denominator < f.numerator <= 2 * f.denominator:
            f %= 4
            if f > 2:
                f -= 4
        object.__setattr__(self, "pi_frac", f if isinstance(f, Fraction) else Fraction(f))
        object.__setattr__(self, "angle", float(f) * math.pi)


@dataclass(frozen=True)
class QCircuit:
    """A star centred on ``target_qubit``, over ``num_qubits`` qubits,
    executed left to right: every gate is a rotation of the target, all
    about one axis, or a CZ from another qubit (its ``control``) to the
    target.  Construction raises ValueError on any other gate list.

    ``layout`` puts inputs x1..xk on distinct qubits as (variable, qubit) pairs.
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
        k = len(self.layout)
        if ({v for v, _ in self.layout} != set(range(1, k + 1))
                or len({q for _, q in self.layout} & set(range(self.num_qubits))) != k):
            raise ValueError(f"layout {self.layout} is not x1..x{k} on distinct circuit qubits")
        kinds = set()
        for g in self.gates:
            if g.target != target:
                raise ValueError(f"{g.kind} on q[{g.target}] is off the target q[{target}]")
            if g.control is not None and g.control >= self.num_qubits:
                raise ValueError(f"gate CZ touches qubit {g.control}, circuit has {self.num_qubits}")
            kinds.add(g.kind)
        if RX in kinds and RY in kinds:
            raise ValueError("circuit mixes RX and RY rotations")

    def gate_counts(self) -> Counter[str]:
        return Counter(map(operator.attrgetter("kind"), self.gates))


def map_to_circuit(word: CascadeWord, basis: str = "X") -> QCircuit:
    """Translate a simplified word into gates.

    A rotation a^w becomes R_basis(pi * w) over the infinite dihedral group
    (EQB) and R_basis(2 * pi * w / n) over D_n (MGD, n the word's ``order``):
    there a^n maps to R(2 * pi) = -I and g to the CZ sign flip Z, so the
    circuit represents D_n up to sign.  Each reflection control contributes
    one CZ against the target.  Words containing a^0 are rejected: simplify
    first.  Equal gates are one shared ``Gate`` object: one per rotation
    exponent and one per CZ control.
    """
    if basis not in ("X", "Y"):
        raise ValueError(f"basis must be 'X' or 'Y', got {basis!r}")
    # half-turns per unit of rotation exponent; EQB exponents are half-turns
    scale = None if word.order is None else Fraction(2, word.order)
    rot_kind = RX if basis == "X" else RY
    ancilla = int(word.target_var is None)  # the ancilla takes q[0], every input moves up one
    qubit_of = {v: v - 1 + ancilla for v in range(1, word.n_vars + 1)}
    target = 0 if ancilla else qubit_of[word.target_var]
    gates: list[Gate] = []
    # exponent 0 is never stored, so every a^0 reaches the check below
    rotations: dict[Fraction | int, Gate] = {}
    czs: dict[int, Gate] = {}
    run_of: dict[int, list[Gate]] = {}  # the gates of each distinct letter object
    for letter in word.letters:
        run = run_of.get(id(letter))
        if run is None:
            if isinstance(letter, Rot):
                gate = rotations.get(letter.exponent)
                if gate is None:
                    if letter.exponent == 0:
                        raise ValueError("word is not simplified: zero rotation present")
                    turns = letter.exponent if scale is None else letter.exponent * scale
                    gate = rotations[letter.exponent] = Gate(rot_kind, target, pi_frac=turns)
                run = [gate]
            else:
                run = []
                for v in sorted(letter.controls):
                    gate = czs.get(v)
                    if gate is None:
                        gate = czs[v] = Gate(CZ, target=target, control=qubit_of[v])
                    run.append(gate)
            run_of[id(letter)] = run
        gates += run
    return QCircuit(word.n_vars + ancilla, tuple(gates), target,
                    layout=tuple(sorted(qubit_of.items())))


def verify_quantum(circuit: QCircuit, truth: TruthVector) -> VerificationReport:
    """Exact unitary check: every row's whole 2x2 target unitary U_x must be
    R(pi * b(x)) about the circuit's rotation axis, where b(x) = F(x) xor
    t(x) and t(x) is the target's own input bit (0 with the ancilla).
    ``truth.n`` must equal the circuit's number of inputs.

    U_x is R(pi * theta_x / D) g^s_x: D is the lcm of the ``pi_frac``
    denominators, s_x the parity of the CZs whose control reads 1 on row x,
    and theta_x the sum of the numerators over D, each negated where an odd
    number of those CZs follow it.  One reverse pass adds each numerator to
    the bucket keyed by the row bits of the CZ controls after it, and a
    Walsh transform of the buckets gives every theta_x.  Row x passes
    exactly when s_x = 0 and theta_x = b(x) * D (mod 4D).  With r the
    residue of theta_x - b(x) * D in [-2D, 2D) and phi = pi * r / (2D), its
    text is "p=<p>", p = cos(phi)^2 being the probability that the target,
    started in |t(x)>, reads F(x), and a failing row with p >= 1 -
    VERIFY_TOL adds " dU=<d>", d the largest squared entry of U_x -
    R(pi * b(x)): max((1 - cos phi)^2, sin(phi)^2, s_x * (1 + |cos phi|)^2).
    """
    if not truth.is_boolean:
        raise ValueError("quantum verification expects a Boolean truth vector")
    n = truth.n
    if len(circuit.layout) != n:
        raise ValueError(f"circuit reads {len(circuit.layout)} input bits, truth vector has {n}")
    # row x holds input x_v at bit n - v; a qubit that holds no input stays |0>
    row_bit = {q: 1 << (n - v) for v, q in circuit.layout}
    den = math.lcm(*{g.pi_frac.denominator for g in circuit.gates if g.kind != CZ})
    angle, key = [0] * (1 << n), 0  # key: the row bits of the CZ controls after the gate
    for gate in reversed(circuit.gates):
        if gate.kind == CZ:
            key ^= row_bit.get(gate.control, 0)
        else:
            angle[key] += gate.pi_frac.numerator * (den // gate.pi_frac.denominator)
    t = row_bit.get(circuit.target_qubit, 0)
    rows, row_of = [], {}
    for x, (f, theta) in enumerate(zip(truth.values, _walsh(angle))):
        r = (theta - (f ^ ((x & t) != 0)) * den + 2 * den) % (4 * den) - 2 * den
        s = (x & key).bit_count() & 1
        row = row_of.get((f, r, s))
        if row is None:  # few distinct cases: format each once
            phi = math.pi * r / (2 * den)
            p = (1.0 + math.cos(2 * phi)) / 2
            ok = r == 0 and not s
            got = f"p={p:.12g}"
            if not ok and p >= 1.0 - VERIFY_TOL:
                c = math.cos(phi)
                got += f" dU={max((1 - c) ** 2, math.sin(phi) ** 2, s * (1 + abs(c)) ** 2):.12g}"
            row = row_of[f, r, s] = VerificationRow(str(f), got, ok)
        rows.append(row)
    return VerificationReport("quantum", tuple(rows))


class BlochPoint(NamedTuple):
    """Polar angle theta in [0, pi], azimuth phi in [0, 2*pi), phi = 0 at poles."""

    theta: float
    phi: float


def _bloch_point(z: complex, rx: bool) -> BlochPoint:
    """The Bloch point of the frame state z = a + i*b: (a, -i*b) when ``rx``."""
    w = z * z  # (a^2 - b^2) + 2ab*i: the Bloch vector's z, and its x (RY) or -y (RX)
    xy = w.imag
    x, y = (0.0, -xy) if rx else (xy, 0.0)
    theta = math.atan2(abs(xy), w.real)
    phi = math.atan2(y, x) % (2.0 * math.pi) if abs(xy) >= 1e-9 else 0.0
    return BlochPoint(theta, phi)


def bloch_trace(circuit: QCircuit, assignment) -> list[BlochPoint]:
    """Target-qubit Bloch coordinates: the initial state, then one point per
    gate.  ``assignment`` gives one 0/1 bit (int or character) per circuit
    input.

    In a star circuit the other qubits stay in the basis state the row sets
    (|0> when no input sits on them), so the target's two amplitudes are
    the whole state of the row, carried as the frame state z of the module
    docstring.
    """
    if any(b not in (0, 1, "0", "1") for b in assignment):
        raise ValueError(f"assignment entries must be 0 or 1, got {assignment!r}")
    if len(assignment) != len(circuit.layout):
        raise ValueError(f"circuit reads {len(circuit.layout)} input bits, "
                         f"got {len(assignment)}")
    target = circuit.target_qubit
    bit_of = {q: int(assignment[v - 1]) for v, q in circuit.layout}
    rx = any(g.kind == RX for g in circuit.gates)
    z = 1j if bit_of.get(target) else 1 + 0j
    points = [_bloch_point(z, rx)]
    for gate in circuit.gates:
        if gate.kind != CZ:
            z *= cmath.exp(0.5j * gate.angle)
        elif bit_of.get(gate.control):
            z = z.conjugate()
        points.append(_bloch_point(z, rx))
    return points


def bloch_trace_csv(circuit: QCircuit, assignment) -> str:
    """``bloch_trace`` as CSV rows labelled ``init``, then each gate's kind."""
    labels = ["init", *(g.kind for g in circuit.gates)]
    lines = ["step,gate,theta,phi"]
    for step, (label, point) in enumerate(zip(labels, bloch_trace(circuit, assignment))):
        lines.append(f"{step},{label},{point.theta:.12g},{point.phi:.12g}")
    return "\n".join(lines) + "\n"


def interaction_graph(circuit: QCircuit) -> tuple[tuple[int, int], ...]:
    """The coupling edges of the star, sorted: one ``(low, high)`` qubit
    pair per distinct CZ control, joining it to the target."""
    target = circuit.target_qubit
    controls = {g.control for g in circuit.gates} - {None}
    return tuple(sorted((min(c, target), max(c, target)) for c in controls))


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

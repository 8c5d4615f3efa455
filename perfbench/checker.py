"""Output checks that share no code with the compiler under test.

The reference is always the job's own truth table. EQB circuits are
simulated here with NumPy; MGD words are folded here in D_n with exact
integers. Both work on all 2^n input rows at once.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

TOLERANCE = 1e-9


class CheckFailed(AssertionError):
    """An output disagrees with the known answer."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def input_bits(n: int) -> np.ndarray:
    """bits[v - 1, row] is x_v in that row; x1 is the most significant bit."""
    rows = np.arange(1 << n)
    return np.array([(rows >> (n - v)) & 1 for v in range(1, n + 1)], dtype=np.int64).reshape(n, -1)


def check_eqb_circuit(n: int, truth, num_qubits: int, target: int, layout: dict[int, int],
                      gates) -> float:
    """Simulate an RX/RY + CZ star circuit on every input row at once.

    ``layout`` maps input variable v to its qubit; ``gates`` holds
    (kind, target, control, radians). Every gate must touch the target
    qubit, so the input qubits stay in basis states and the target's two
    amplitudes per row are the whole state: an (2^n, 2) complex array.
    Returns the smallest probability of reading F(x); raises CheckFailed
    when a row falls below 1 - TOLERANCE or the circuit is not such a star.
    """
    require(sorted(layout) == list(range(1, n + 1)), f"layout does not cover x1..x{n}: {layout}")
    require(len(set(layout.values())) == n and all(0 <= q < num_qubits for q in layout.values()),
             f"layout is not a map onto distinct qubits: {layout}")
    require(0 <= target < num_qubits, f"target qubit {target} out of range")
    extra = num_qubits - n - (target not in layout.values())
    require(extra == 0, f"{num_qubits} qubits for {n} inputs and target q[{target}]")
    var_of = {q: v for v, q in layout.items()}
    bits = input_bits(n)
    signs = {q: 1 - 2 * bits[v - 1] for v, q in layout.items()}
    amp = np.zeros((1 << n, 2), dtype=complex)
    if target in var_of:  # the target is an input qubit and starts in |x_v>
        b = bits[var_of[target] - 1]
        amp[np.arange(1 << n), b] = 1.0
    else:
        amp[:, 0] = 1.0
    for kind, g_target, control, radians in gates:
        if kind == "CZ":
            other = control if g_target == target else g_target
            require(target in (g_target, control) and other != target and other in signs,
                     f"CZ on q[{control}],q[{g_target}] is not an edge of the star at q[{target}]")
            amp[:, 1] *= signs[other]
            continue
        require(kind in ("RX", "RY") and g_target == target and control is None,
                 f"gate {kind} on q[{g_target}] is not a rotation of the target q[{target}]")
        c, s = np.cos(radians / 2.0), np.sin(radians / 2.0)
        a0, a1 = amp[:, 0].copy(), amp[:, 1].copy()
        if kind == "RX":
            amp[:, 0] = c * a0 - 1j * s * a1
            amp[:, 1] = -1j * s * a0 + c * a1
        else:
            amp[:, 0] = c * a0 - s * a1
            amp[:, 1] = s * a0 + c * a1
    want = np.asarray(truth, dtype=np.int64)
    require(want.shape == (1 << n,) and bool(np.all((want == 0) | (want == 1))),
             "EQB truth table must hold 2^n bits")
    p_want = np.abs(amp[np.arange(1 << n), want]) ** 2
    worst = int(np.argmin(p_want))
    require(p_want[worst] >= 1.0 - TOLERANCE,
             f"row {worst:0{n}b}: p(F(x)={want[worst]}) = {p_want[worst]:.12g}")
    return float(p_want[worst])


def check_mgd_word(n: int, truth, dihedral_n: int, letters) -> None:
    """Fold a word in D_n over every row at once with exact integers.

    ``letters`` holds ("a", w) for a rotation a^w and ("g", controls) for a
    reflection controlled by the XOR of those variables. In the normal form
    a^r g^s, right-multiplying by a^w adds -w when s = 1 and w otherwise; a
    reflection letter toggles s where its parity is 1. Every row must end at
    a^(F(x) mod n) with no reflection left over.
    """
    bits = input_bits(n)
    rot = np.zeros(1 << n, dtype=np.int64)
    refl = np.zeros(1 << n, dtype=bool)
    parity: dict[tuple[int, ...], np.ndarray] = {}
    for kind, arg in letters:
        if kind == "a":
            require(isinstance(arg, int), f"MGD exponent {arg!r} is not an integer")
            rot += np.where(refl, -arg, arg)
        else:
            key = tuple(sorted(arg))
            require(bool(key) and all(1 <= v <= n for v in key), f"reflection controls {key}")
            if key not in parity:
                parity[key] = np.bitwise_xor.reduce(bits[[v - 1 for v in key]], axis=0).astype(bool)
            refl ^= parity[key]
    want = np.asarray(truth, dtype=np.int64) % dihedral_n
    bad = np.nonzero(refl | (rot % dihedral_n != want))[0]
    require(bad.size == 0, f"{bad.size} row(s) fold wrong, first {int(bad[0]) if bad.size else 0:0{n}b}")


_LETTER = re.compile(r"a\^(-?\d+(?:/\d+)?)|g\[([x\d,]+)\]")


def parse_word(text: str):
    """Letters of a word printed as in report.json, e.g. "a^-1 g[x1,x2]"."""
    letters = []
    for token in text.split():
        m = _LETTER.fullmatch(token)
        require(m is not None, f"unreadable letter {token!r}")
        if m.group(1) is not None:
            w = Fraction(m.group(1))
            letters.append(("a", int(w) if w.denominator == 1 else w))
        else:
            letters.append(("g", tuple(int(x[1:]) for x in m.group(2).split(","))))
    return letters


def walsh_spectrum(n: int, truth, modulus: int | None) -> list[str]:
    """Spectrum as the CLI prints it: sum_x (-1)^(w.x) F(x) scaled by 2^-n,
    exact rationals for EQB and signed residues mod m for MGD."""
    size = 1 << n
    sums = [sum(-f if bin(w & x).count("1") % 2 else f for x, f in enumerate(truth))
            for w in range(size)]
    if modulus is None:
        return [str(Fraction(s, size)) for s in sums]
    inv = pow(size, -1, modulus)
    out = []
    for s in sums:
        r = s * inv % modulus
        out.append(str(r - modulus if 2 * r > modulus else r))
    return out

"""Canonical rotation-reflection cascades and local-rewrite simplification.

The canonical word interleaves one rotation per spectral coefficient with
reflection blocks on a ruler schedule: after the k-th rotation (k = 1..2^n)
it emits g^(x_(n-i)) for every i with 2^i dividing k, innermost variable
first.  That yields exactly 3*2^n - 2 letters and evaluates to a^F(x) on
every assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .dihedral import DihedralParams, GroupElement, evaluate_word, format_element
from .spectral import TruthVector, WalshSpectrum, spectrum_exact
from .words import CascadeWord, Letter, Refl, Rot


def canonical_cascade(spectrum: WalshSpectrum, params: DihedralParams | None = None) -> CascadeWord:
    """Expand a spectrum into the unsimplified canonical cascade word."""
    n = spectrum.n
    if spectrum.modulus is not None and params is None:
        raise ValueError("a modular spectrum needs dihedral parameters")
    if spectrum.modulus is None and params is not None:
        raise ValueError("an exact spectrum takes no dihedral parameters")
    # one object per distinct letter; the i < n with 2^i dividing k are the
    # first min(v + 1, n), where 2^v = k & -k
    refls = [Refl(frozenset({n - i})) for i in range(n)]
    rot_of = {c: Rot(c) for c in set(spectrum.coeffs)}
    letters: list[Letter] = []
    for k, c in enumerate(spectrum.coeffs, 1):
        letters.append(rot_of[c])
        letters += refls[:min((k & -k).bit_length(), n)]
    return CascadeWord(n, tuple(letters), params)


def simplify(word: CascadeWord) -> CascadeWord:
    """Apply the local rewrites to a fixed point.

    Rewrites: drop a^0, merge adjacent rotations by adding exponents, merge
    adjacent reflections by XOR of control sets (dropping empty merges).
    Semantics-preserving and idempotent.  Letters that are not merged keep
    their objects; each distinct merged letter is built once.
    """
    # The stack never holds two adjacent letters of the same type, so one
    # pass reaches the rewrite fixed point.
    out: list[Letter] = []
    merged_of: dict = {}
    for letter in word.letters:
        top = out[-1] if out else None
        if isinstance(letter, Rot):
            if letter.exponent == 0:
                continue
            kind = Rot
            merged = top.exponent + letter.exponent if isinstance(top, Rot) else None
        else:
            kind = Refl
            merged = top.controls ^ letter.controls if isinstance(top, Refl) else None
        if merged is None:
            out.append(letter)
            continue
        out.pop()
        # a zero sum or an empty XOR drops both letters
        if merged:
            new = merged_of.get((kind, merged))
            if new is None:
                new = merged_of[kind, merged] = kind(merged)
            out.append(new)
    return replace(word, letters=tuple(out))


def detect_symmetry(truth: TruthVector) -> bool:
    """True when f(..., 0) = not f(..., 1), i.e. f = x_n xor h(rest)."""
    if not truth.is_boolean:
        raise ValueError("symmetry detection expects a Boolean truth vector")
    if truth.n == 0:
        return False
    v = truth.values
    return all(v[i] != v[i + 1] for i in range(0, len(v), 2))


def reduce_by_symmetry(truth: TruthVector) -> CascadeWord:
    """Cascade for the residual h = f(..., 0), retargeted onto input x_n.

    The returned word references only x_1..x_(n-1) and flips the last input
    qubit in place, so the circuit needs no ancilla.
    """
    if not detect_symmetry(truth):
        raise ValueError(f"function is not odd in x{truth.n}")
    residual = TruthVector(truth.n - 1, truth.values[0::2])
    word = simplify(canonical_cascade(spectrum_exact(residual)))
    return replace(word, n_vars=truth.n, target_var=truth.n)


@dataclass(frozen=True)
class VerificationRow:
    assignment: tuple[int, ...]
    expected: str
    got: str
    ok: bool


@dataclass(frozen=True)
class VerificationReport:
    kind: str
    rows: tuple[VerificationRow, ...]

    @property
    def first_failure(self) -> VerificationRow | None:
        return next((row for row in self.rows if not row.ok), None)

    @property
    def passed(self) -> bool:
        return self.first_failure is None

    def counts(self) -> str:
        good = sum(1 for row in self.rows if row.ok)
        return f"{good}/{len(self.rows)}"


def verify_classical(word: CascadeWord, truth: TruthVector) -> VerificationReport:
    """Check the word against the truth vector by exact group evaluation.

    Every row must fold to a^F(x) with no residual reflection: a^(F(x) mod n)
    over D_n, exactly a^F(x) otherwise.  A word retargeted by symmetry onto
    input x_t instead folds to a^h(x) with h(x) in {0, 1} and x_t xor h = F(x).
    """
    if word.n_vars != truth.n:
        raise ValueError(f"word has {word.n_vars} variables, truth vector has {truth.n}")
    p, t = word.params, word.target_var
    results = evaluate_word(word)
    # evaluate_word shares one object per distinct element: format each once
    distinct = {id(e): e for e in results}
    got_text = {key: format_element(e, p) for key, e in distinct.items()}
    expected = {v: GroupElement(v if p is None else v % p.n) for v in set(truth.values)}
    want_text = {v: format_element(e, p) for v, e in expected.items()}
    rows = []
    for bits, want, got in zip(truth.assignments(), truth.values, results):
        text, ok = got_text[id(got)], t is None and got == expected[want]
        if t is not None and not got.refl and got.rot in (0, 1):
            # the retargeted rule: flip input x_t by h(x)
            out_bit = bits[t - 1] ^ int(got.rot)
            text, ok = str(out_bit), out_bit == want
        rows.append(VerificationRow(bits, want_text[want], text, ok))
    return VerificationReport("classical", tuple(rows))

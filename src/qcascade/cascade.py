"""Canonical rotation-reflection cascades and local-rewrite simplification.

The canonical word applies spectral coefficient s_M while the prefix
reflection mask is M (bit i of M standing for x_(n-i)), with the masks in
reflected-binary Gray order, the standard schedule for uniformly controlled
rotations (Mottonen et al. 2004, quant-ph/0404089): rotation k (k = 0..2^n-1)
is a^(s_M) with M = k ^ (k >> 1), followed by g^(x_v) for the one variable
that changes next, x_1 after the last rotation, which returns the mask to 0.
That yields exactly 2^(n+1) letters (one for n = 0) and evaluates to a^F(x)
on every assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from .dihedral import GroupElement, evaluate_word, format_element
from .spectral import TruthVector, WalshSpectrum, _signed_mod, spectrum_exact
from .words import CascadeWord, Letter, Refl, Rot


def canonical_cascade(spectrum: WalshSpectrum) -> CascadeWord:
    """Expand a spectrum into the unsimplified canonical cascade word, over
    D_m for a spectrum taken modulo m and over the infinite group otherwise."""
    n = spectrum.n
    # one object per distinct letter, reflections keyed by their mask bit
    refl_of = {1 << i: Refl(frozenset({n - i})) for i in range(n)}
    # keyed by coefficient object: spectrum_exact shares equal Fractions, so
    # this hashes none of them
    distinct = {id(c): c for c in spectrum.coeffs}
    rot_of = {key: Rot(c) for key, c in distinct.items()}
    masks = [k ^ (k >> 1) for k in range(1 << n)]
    letters: list[Letter] = []
    # each mask differs from the next in one bit, and the last from mask 0
    for mask, following in zip(masks, masks[1:] + masks[:1]):
        letters.append(rot_of[id(spectrum.coeffs[mask])])
        if mask != following:
            letters.append(refl_of[mask ^ following])
    return CascadeWord(n, tuple(letters), spectrum.modulus)


def simplify(word: CascadeWord) -> CascadeWord:
    """Apply the local rewrites to a fixed point.

    Rewrites: drop a^0, merge adjacent rotations by adding exponents, merge
    adjacent reflections by XOR of control sets (dropping empty merges).
    Over D_n (``word.order`` n) every rotation exponent is first reduced to
    its signed residue in (-n/2, n/2], and a residue of 0 is dropped.
    Semantics-preserving and idempotent.  Letters that are neither merged
    nor reduced keep their objects; each distinct new letter is built once.
    """
    order = word.order
    # The stack never holds two adjacent letters of the same type, so one
    # pass reaches the rewrite fixed point.
    out: list[Letter] = []
    made: dict = {}
    for letter in word.letters:
        top = out[-1] if out else None
        if isinstance(letter, Rot):
            if order is not None and not -order < 2 * letter.exponent <= order:
                w = _signed_mod(letter.exponent, order)
                letter = made.get((Rot, w)) or made.setdefault((Rot, w), Rot(w))
            if letter.exponent == 0:
                continue
            kind = Rot
            merged = top.exponent + letter.exponent if isinstance(top, Rot) else None
            if merged is not None and order is not None:
                merged = _signed_mod(merged, order)
        else:
            kind = Refl
            merged = top.controls ^ letter.controls if isinstance(top, Refl) else None
        if merged is None:
            out.append(letter)
            continue
        out.pop()
        # a zero sum or an empty XOR drops both letters
        if merged:
            out.append(made.get((kind, merged)) or made.setdefault((kind, merged), kind(merged)))
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


class VerificationRow(NamedTuple):
    """One checked row; equal to the tuple (expected, got, ok).  A report
    holds its rows in row order, so row x checks input x."""

    expected: str
    got: str
    ok: bool


@dataclass(frozen=True)
class VerificationReport:
    kind: str
    rows: tuple[VerificationRow, ...]

    @property
    def first_failure(self) -> int | None:
        """The index of the first failing row, or None when every row passes."""
        return next((x for x, row in enumerate(self.rows) if not row.ok), None)

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
    order, t, n = word.order, word.target_var, word.n_vars
    rows = []
    # a row's verdict depends only on its element, F(x) and x_t;
    # evaluate_word shares one object per distinct element, so judge each
    # distinct (element object, F(x), x_t) once
    verdict: dict = {}
    for x, (want, got) in enumerate(zip(truth.values, evaluate_word(word))):
        bit = x >> (n - t) & 1 if t else None
        key = id(got), want, bit
        row = verdict.get(key)
        if row is None:
            expected = GroupElement(want if order is None else want % order)
            text, ok = format_element(got, order), t is None and got == expected
            if t is not None and not got.refl and got.rot in (0, 1):
                # the retargeted rule: flip input x_t by h(x)
                out_bit = bit ^ int(got.rot)
                text, ok = str(out_bit), out_bit == want
            row = verdict[key] = VerificationRow(format_element(expected, order), text, ok)
        rows.append(row)
    return VerificationReport("classical", tuple(rows))

"""Exact arithmetic in the dihedral groups D_n and evaluation of cascade words.

Elements are written in the normal form a^r g^s with 0 <= r < n and s in
{0, 1}, where a is the rotation generator (a^n = I) and g a reflection
(g^2 = I, g a g = a^-1).  Products therefore follow

    a^i g^s . a^j g^t = a^(i + j * (-1)^s) g^(s xor t)

with words composed left to right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .spectral import fwht
from .words import MGD, CascadeWord, Rot


@dataclass(frozen=True)
class DihedralParams:
    """Order parameter n of D_n (the group itself has order 2n)."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"dihedral order parameter must be at least 2, got {self.n}")


@dataclass(frozen=True)
class GroupElement:
    """Normalized element a^rot g^refl, with 0 <= rot < n."""

    rot: int
    refl: bool = False


def format_element(e: GroupElement, p: DihedralParams) -> str:
    """Display form: "I", "a^k", "g", "a^k g" with k the signed residue."""
    k = e.rot
    if 2 * k > p.n:
        k -= p.n
    if k == 0:
        return "g" if e.refl else "I"
    return f"a^{k} g" if e.refl else f"a^{k}"


def evaluate_word(word: CascadeWord) -> list:
    """Fold a cascade word on every input row at once, in row order.

    MGD mode gives one GroupElement of D_n per row, one shared object per
    distinct element.  EQB mode gives pairs
    (net rotation exponent as an exact Fraction, residual reflection flag);
    for a cascade realizing a Boolean function the flag is False and the
    exponent is the function value.

    Let M be the XOR of the control masks of the reflection letters before
    a rotation.  On row x that rotation is reflected exactly when
    parity(x & M) = 1, so the net exponent on row x is the Walsh transform,
    at x, of the exponents summed per prefix mask M.  The residual
    reflection on row x is parity(x & M) for the final M.
    """
    n = word.n_vars
    # integer numerators over the common denominator (1 in MGD mode)
    den = math.lcm(*(letter.exponent.denominator for letter in word.letters
                     if isinstance(letter, Rot)))
    buckets = [0] * (1 << n)
    mask = 0
    for letter in word.letters:
        if isinstance(letter, Rot):
            buckets[mask] += letter.exponent.numerator * (den // letter.exponent.denominator)
        else:
            for v in letter.controls:
                # x1 is the most significant bit of the row index
                mask ^= 1 << (n - v)
    rows = zip(fwht(buckets), [(x & mask).bit_count() & 1 == 1 for x in range(1 << n)])
    if word.mode == MGD:
        keys = [(net % word.params.n, refl) for net, refl in rows]
        element = {key: GroupElement(*key) for key in set(keys)}
        return [element[key] for key in keys]
    return [(Fraction(net, den), refl) for net, refl in rows]

"""Exact arithmetic in the dihedral groups and evaluation of cascade words.

Elements are written in the normal form a^r g^s with s in {0, 1}, where a
is the rotation generator and g a reflection (g^2 = I, g a g = a^-1).  In
D_n, a^n = I and 0 <= r < n; in the infinite dihedral group no power of a
is I and r is an exact rational.  Products therefore follow

    a^i g^s . a^j g^t = a^(i + j * (-1)^s) g^(s xor t)

with words composed left to right.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .spectral import _signed_mod, fwht
from .words import CascadeWord, Rot


class GroupElement(NamedTuple):
    """Normalized element a^rot g^refl: rot is the residue 0 <= rot < n in
    D_n and the exact rational exponent in the infinite dihedral group."""

    rot: int | Fraction
    refl: bool = False


def format_element(e: GroupElement, order: int | None = None) -> str:
    """Display form in D_order: "I", "a^k", "g", "a^k g" with k the signed
    residue.  With ``order`` None (the infinite group): the exponent, then
    " g" when reflected."""
    if order is None:
        return f"{e.rot} g" if e.refl else f"{e.rot}"
    k = _signed_mod(e.rot, order)
    if k == 0:
        return "g" if e.refl else "I"
    return f"a^{k} g" if e.refl else f"a^{k}"


def evaluate_word(word: CascadeWord) -> list[GroupElement]:
    """Fold a cascade word on every input row at once, in row order.

    Gives one GroupElement per row, of D_n when the word's ``order`` is n and
    of the infinite dihedral group when it is None; rows share one object per
    distinct element.  For a cascade realizing a function F the element on
    row x is a^F(x) (a^(F(x) mod n) in D_n) with no reflection.

    Let M be the XOR of the control masks of the reflection letters before
    a rotation.  On row x that rotation is reflected exactly when
    parity(x & M) = 1, so the net exponent on row x is the Walsh transform,
    at x, of the exponents summed per prefix mask M.  The residual
    reflection on row x is parity(x & M) for the final M.
    """
    n = word.n_vars
    # integer numerators over the common denominator (1 in D_n), scaled once
    # per distinct rotation letter
    rots = {id(letter): letter.exponent for letter in word.letters if isinstance(letter, Rot)}
    den = math.lcm(*(e.denominator for e in rots.values()))
    num = {key: e.numerator * (den // e.denominator) for key, e in rots.items()}
    buckets = [0] * (1 << n)
    mask = 0
    for letter in word.letters:
        if isinstance(letter, Rot):
            buckets[mask] += num[id(letter)]
        else:
            for v in letter.controls:
                # x1 is the most significant bit of the row index
                mask ^= 1 << (n - v)
    keys = list(zip(fwht(buckets), [(x & mask).bit_count() & 1 == 1 for x in range(1 << n)]))
    # one object per distinct element; in D_n several nets share a residue
    order = word.order
    shared: dict[GroupElement, GroupElement] = {}
    element = {}
    for net, refl in set(keys):
        e = GroupElement(Fraction(net, den) if order is None else net % order, refl)
        element[net, refl] = shared.setdefault(e, e)
    return [element[key] for key in keys]

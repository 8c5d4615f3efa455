"""Per-row fold of cascade words, one assignment at a time.

This is the reference that tests compare ``qcascade.dihedral.evaluate_word``
against.  It reads the word left to right under one assignment, flipping
the reflection state at each reflection letter whose controls have odd
parity and adding each rotation exponent with the current sign.
"""

from fractions import Fraction
from itertools import product

from qcascade.dihedral import GroupElement
from qcascade.words import Rot


def fold_row(word, bits):
    """GroupElement (MGD) or (Fraction, reflection flag) (EQB) for one row."""
    acc = Fraction(0)
    refl = False
    for letter in word.letters:
        if isinstance(letter, Rot):
            acc += -letter.exponent if refl else letter.exponent
        elif sum(bits[v - 1] for v in letter.controls) % 2:
            refl = not refl
    if word.order is None:
        return acc, refl
    return GroupElement(int(acc) % word.order, refl)


def fold_rows(word) -> list:
    """fold_row on every assignment of the word's variables, in row order."""
    return [fold_row(word, bits) for bits in product((0, 1), repeat=word.n_vars)]

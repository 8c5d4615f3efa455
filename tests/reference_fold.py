"""Per-row fold of cascade words, one assignment at a time.

This is the reference that tests compare ``qcascade.dihedral.evaluate_word``
against.  It reads the word left to right under one assignment, flipping
the reflection state at each reflection letter whose controls have odd
parity and adding each rotation exponent with the current sign.
"""

from fractions import Fraction
from itertools import product

from qcascade.dihedral import GroupElement, format_element
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


def classical_row(word, bits, want) -> tuple[str, str, bool]:
    """The (expected, got, ok) of the classical check of one row whose truth
    value is ``want``, from its fold: the row must fold to a^want (mod the
    group order over D_n), or, for a word retargeted onto x_t, to a^h with
    x_t xor h = want."""
    got = fold_row(word, bits)
    if word.order is not None:
        expected = GroupElement(want % word.order)
        return (format_element(expected, word.order), format_element(got, word.order),
                got == expected)
    net, refl = got
    text = f"{net} g" if refl else f"{net}"
    if word.target_var is None:
        return str(want), text, not refl and net == want
    if refl or net not in (0, 1):
        return str(want), text, False
    out_bit = bits[word.target_var - 1] ^ int(net)
    return str(want), str(out_bit), out_bit == want

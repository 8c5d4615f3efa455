"""Letter-by-letter rewriting of cascade words, one new letter per merge.

This is the reference that tests compare ``qcascade.cascade.simplify``
against.  Each letter is pushed onto a stack; a push onto a letter of the
same type pops it and pushes the merged letter, built afresh, in its place.
Over D_n every rotation exponent is first reduced to its signed residue in
(-n/2, n/2], and a residue of 0 is dropped.
"""

from dataclasses import replace

from qcascade.words import Refl, Rot


def _residue(w, order):
    if order is None:
        return w
    r = w % order
    return r - order if 2 * r > order else r


def _push(out: list, letter, order) -> None:
    # The stack never holds two adjacent letters of the same type, so one
    # pass reaches the rewrite fixed point.
    if isinstance(letter, Rot):
        w = _residue(letter.exponent, order)
        if w == 0:
            return
        if out and isinstance(out[-1], Rot):
            top = out.pop()
            _push(out, Rot(top.exponent + w), order)
        else:
            out.append(letter if w == letter.exponent else Rot(w))
    else:
        if out and isinstance(out[-1], Refl):
            top = out.pop()
            merged = top.controls ^ letter.controls
            if merged:
                out.append(Refl(merged))
            # an empty merge drops both letters
        else:
            out.append(letter)


def simplify_reference(word):
    """The word with a^0 dropped and adjacent letters of one type merged."""
    order = word.order
    out: list = []
    for letter in word.letters:
        _push(out, letter, order)
    return replace(word, letters=tuple(out))

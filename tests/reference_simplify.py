"""Letter-by-letter rewriting of cascade words, one new letter per merge.

This is the reference that tests compare ``qcascade.cascade.simplify``
against.  Each letter is pushed onto a stack; a push onto a letter of the
same type pops it and pushes the merged letter, built afresh, in its place.
"""

from dataclasses import replace

from qcascade.words import Refl, Rot


def _push(out: list, letter) -> None:
    # The stack never holds two adjacent letters of the same type, so one
    # pass reaches the rewrite fixed point.
    if isinstance(letter, Rot):
        if letter.exponent == 0:
            return
        if out and isinstance(out[-1], Rot):
            top = out.pop()
            _push(out, Rot(top.exponent + letter.exponent))
        else:
            out.append(letter)
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
    out: list = []
    for letter in word.letters:
        _push(out, letter)
    return replace(word, letters=tuple(out))

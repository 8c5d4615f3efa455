"""D_n operations that only tests use, beside ``qcascade.dihedral.mul``.

Normalized construction, inverses and enumeration of the whole group, for
checking the group axioms and the rail action exhaustively.
"""

from typing import Iterable

from qcascade.dihedral import DihedralParams, GroupElement


def element(rot: int, refl: bool, p: DihedralParams) -> GroupElement:
    """Build a normalized element, reducing the rotation exponent mod n."""
    return GroupElement(rot % p.n, bool(refl))


def inv(e: GroupElement, p: DihedralParams) -> GroupElement:
    if e.refl:
        # reflections are involutions
        return e
    return GroupElement(-e.rot % p.n, False)


def all_elements(p: DihedralParams) -> Iterable[GroupElement]:
    for refl in (False, True):
        for rot in range(p.n):
            yield GroupElement(rot, refl)

"""D_n operations that only tests use.

The product law, normalized construction, inverses, enumeration of the
whole group and the action on the n rails, for checking the group axioms,
the rail action and ``qcascade.dihedral.evaluate_word`` exhaustively.
"""

from dataclasses import dataclass
from typing import Iterable

from qcascade.dihedral import GroupElement

IDENTITY = GroupElement(0, False)


def mul(e1: GroupElement, e2: GroupElement, n: int) -> GroupElement:
    rot = e1.rot - e2.rot if e1.refl else e1.rot + e2.rot
    return GroupElement(rot % n, e1.refl != e2.refl)


def element(rot: int, refl: bool, n: int) -> GroupElement:
    """Build a normalized element, reducing the rotation exponent mod n."""
    return GroupElement(rot % n, bool(refl))


def inv(e: GroupElement, n: int) -> GroupElement:
    if e.refl:
        # reflections are involutions
        return e
    return GroupElement(-e.rot % n, False)


def all_elements(n: int) -> Iterable[GroupElement]:
    for refl in (False, True):
        for rot in range(n):
            yield GroupElement(rot, refl)


@dataclass(frozen=True)
class RailPermutation:
    """Action on the n rails 0..n-1; image[i] is where rail i is sent."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "image", tuple(self.image))
        if sorted(self.image) != list(range(len(self.image))):
            raise ValueError(f"not a permutation of 0..{len(self.image) - 1}: {self.image}")

    def then(self, other: "RailPermutation") -> "RailPermutation":
        """Composition in application order: self first, then other."""
        if len(self.image) != len(other.image):
            raise ValueError("permutation sizes differ")
        return RailPermutation(tuple(other.image[i] for i in self.image))


def to_permutation(e: GroupElement, n: int) -> RailPermutation:
    """Rail action: a maps i to i+1 mod n, g maps i to (n - i) mod n.

    The rotation acts first, then the reflection, which makes
    to_permutation(mul(e1, e2)) == to_permutation(e1).then(to_permutation(e2)).
    """
    image = []
    for i in range(n):
        j = (i + e.rot) % n
        if e.refl:
            j = (n - j) % n
        image.append(j)
    return RailPermutation(tuple(image))

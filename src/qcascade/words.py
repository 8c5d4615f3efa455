"""Symbolic cascade words built from rotation and reflection letters.

A word is read left to right.  ``Rot(w)`` contributes a rotation with
exponent ``w``: a plain signed integer residue in a word over D_n (MGD
mode), an exact rational in a word over the infinite dihedral group
(EQB mode).  ``Refl(controls)`` contributes a reflection exactly when the
XOR of the named input variables is 1.  Variables are numbered from 1, and
``x1`` is the most significant bit of the truth-table row index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

EQB = "eqb"
MGD = "mgd"

Exponent = Union[Fraction, int]


@dataclass(frozen=True)
class Rot:
    """Rotation letter ``a^exponent``.  Its text is formatted on first use
    and kept on the letter, so a word that repeats the letter object formats
    it once."""

    exponent: Exponent

    @cached_property
    def text(self) -> str:
        return f"a^{self.exponent}"

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class Refl:
    """Reflection letter controlled by the XOR of a non-empty variable set.
    Its text is formatted on first use and kept on the letter, as ``Rot``'s."""

    controls: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "controls", frozenset(self.controls))
        bad = [v for v in self.controls if isinstance(v, bool) or not isinstance(v, int)]
        if bad:
            raise TypeError(f"control variables must be integers, got {bad[0]!r}")
        if not self.controls:
            raise ValueError("reflection letter needs at least one control variable")
        if any(v < 1 for v in self.controls):
            raise ValueError("control variables are numbered from 1")

    @cached_property
    def text(self) -> str:
        names = ",".join(f"x{v}" for v in sorted(self.controls))
        return f"g[{names}]"

    def __str__(self) -> str:
        return self.text


Letter = Union[Rot, Refl]


@dataclass(frozen=True)
class CascadeWord:
    """A sequence of letters over ``n_vars`` input variables.

    The group decides the mode: with an ``order`` n (an int, at least 2) the
    word is over D_n, where a^n = I (MGD, integer exponents); with None, over
    the infinite dihedral group <g, a | g^2 = I, g a g = a^-1> (EQB, rational
    exponents that never wrap).
    ``target_var`` is None when the word drives a fresh ancilla and an input
    variable index when a symmetry reduction retargeted the word onto that
    input qubit.
    """

    n_vars: int
    letters: tuple[Letter, ...]
    order: int | None = None
    target_var: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.n_vars < 0:
            raise ValueError("n_vars must be non-negative")
        if self.order is not None:
            # exact type: rejects bool, float and Fraction orders alike
            if type(self.order) is not int:
                raise TypeError(f"group order must be an int, got {self.order!r}")
            if self.order < 2:
                raise ValueError(f"group order must be at least 2, got {self.order}")
        if self.target_var is not None and not 1 <= self.target_var <= self.n_vars:
            raise ValueError(f"target variable x{self.target_var} out of range 1..{self.n_vars}")
        # letters are frozen, so one check per distinct letter object covers
        # every position that repeats it
        for letter in {id(letter): letter for letter in self.letters}.values():
            if isinstance(letter, Rot):
                exponent = letter.exponent
                if isinstance(exponent, bool):
                    raise TypeError(f"rotation exponents must not be bool, got {exponent!r}")
                if self.order is not None and not isinstance(exponent, int):
                    raise TypeError(f"MGD exponents must be integers, got {exponent!r}")
                if self.order is None and not isinstance(exponent, (int, Fraction)):
                    raise TypeError(f"EQB exponents must be rational, got {exponent!r}")
            elif isinstance(letter, Refl):
                bad = [v for v in letter.controls if v > self.n_vars]
                if bad:
                    raise ValueError(f"letter {letter} references x{min(bad)} beyond n_vars={self.n_vars}")
            else:
                raise TypeError(f"not a cascade letter: {letter!r}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        """The letters' texts, space-separated; each letter object formats
        its text once (``Rot.text``, ``Refl.text``)."""
        return " ".join([letter.text for letter in self.letters])


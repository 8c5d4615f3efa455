"""Walsh spectra of truth vectors, exact-rational and modular."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class TruthVector:
    """Output column of a completely specified function of n inputs.

    Row index is the binary number x1 x2 ... xn with x1 most significant,
    so row 0 is the all-zero assignment and the last variable toggles
    fastest.
    """

    n: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        # index() takes any integer type; int() would truncate floats and parse strings
        object.__setattr__(self, "values", tuple(operator.index(v) for v in self.values))
        if self.n < 0:
            raise ValueError("variable count must be non-negative")
        if len(self.values) != 1 << self.n:
            raise ValueError(f"expected {1 << self.n} values for n={self.n}, got {len(self.values)}")

    @property
    def is_boolean(self) -> bool:
        return all(v in (0, 1) for v in self.values)


@dataclass(frozen=True)
class WalshSpectrum:
    """Spectral coefficients, one per truth-table row.

    ``modulus`` is None for exact rational (EQB) spectra; modular (MGD)
    spectra hold signed residues in (-m/2, m/2].
    """

    n: int
    coeffs: tuple
    modulus: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != 1 << self.n:
            raise ValueError(f"expected {1 << self.n} coefficients for n={self.n}, got {len(self.coeffs)}")

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"


def fwht(values: Sequence) -> list:
    """Walsh-Hadamard transform of a power-of-two-length sequence.

    Runs in O(len * log len) exact arithmetic (Python ints, or Fractions for
    the rational round-trip).  Entry x of the result is the sum over y of
    (-1)^popcount(x & y) * values[y]: the Walsh-Hadamard matrix times values.
    Each of the log2(len) passes is the constant-geometry butterfly: the sums
    of adjacent pairs, then their differences.  Each pass rotates the index
    bits down by one, so after the last the result is in natural order.
    """
    out = list(values)
    size = len(out)
    if size == 0 or size & (size - 1):
        raise ValueError(f"length must be a power of two, got {size}")
    for _ in range(size.bit_length() - 1):
        even, odd = out[0::2], out[1::2]
        out = [*map(operator.add, even, odd), *map(operator.sub, even, odd)]
    return out


def _signed_mod(v: int, m: int) -> int:
    r = v % m
    return r - m if 2 * r > m else r


def spectrum_exact(truth: TruthVector) -> WalshSpectrum:
    """Exact EQB spectrum: fwht(F) scaled by 2^-n, as Fractions.  Equal
    coefficients share one Fraction object."""
    if not truth.is_boolean:
        raise ValueError("EQB spectra need a Boolean truth vector")
    scale = 1 << truth.n
    raw = fwht(truth.values)
    frac = {c: Fraction(c, scale) for c in set(raw)}
    return WalshSpectrum(truth.n, tuple(map(frac.__getitem__, raw)), None)


def spectrum_mod(truth: TruthVector, modulus: int) -> WalshSpectrum:
    """Modular MGD spectrum: (2^n)^-1 * fwht(F), as signed residues.  2^n is
    invertible modulo every odd ``modulus`` of at least 3."""
    if modulus < 3 or modulus % 2 == 0:
        raise ValueError(f"modulus must be odd and at least 3, got {modulus}")
    scale = pow(1 << truth.n, -1, modulus)
    coeffs = tuple(_signed_mod(c * scale, modulus) for c in fwht(truth.values))
    return WalshSpectrum(truth.n, coeffs, modulus)

import random
from fractions import Fraction

import numpy as np
import pytest

from qcascade.spectral import (TruthVector, WalshSpectrum, fwht,
                               spectrum_exact, spectrum_mod)
from reference_walsh import walsh_matrix


def test_truth_vector_validation():
    with pytest.raises(ValueError):
        TruthVector(2, (0, 1, 1))
    with pytest.raises(ValueError):
        TruthVector(-1, ())


def test_truth_vector_takes_integers_only():
    t = TruthVector(1, (np.int64(1), np.uint8(0)))
    assert t.values == (1, 0) and all(type(v) is int for v in t.values)
    for bad in (0.9, 1.0, "1", Fraction(1)):
        with pytest.raises(TypeError):
            TruthVector(1, (0, bad))


def test_walsh_matrix_base():
    assert walsh_matrix(1).tolist() == [[1, 1], [1, -1]]


def test_walsh_matrix_example_product():
    assert (walsh_matrix(2) @ np.array([0, 1, 1, 0])).tolist() == [2, 0, 0, -2]


def test_walsh_matrix_involution():
    for n in range(1, 7):
        w = walsh_matrix(n)
        assert np.array_equal(w @ w, (1 << n) * np.eye(1 << n, dtype=np.int64))


def test_walsh_matrix_entries():
    w = walsh_matrix(3)
    assert set(np.unique(w)) == {-1, 1}
    assert np.array_equal(w, w.T)


def test_walsh_matrix_range():
    for n in (0, 11):
        with pytest.raises(ValueError):
            walsh_matrix(n)


def test_fwht_example():
    assert fwht([0, 1, 1, 0]) == [2, 0, 0, -2]
    assert fwht([0, 0, 0, 0]) == [0, 0, 0, 0]
    assert fwht([5]) == [5]


def test_fwht_rejects_bad_length():
    with pytest.raises(ValueError):
        fwht([1, 2, 3])
    with pytest.raises(ValueError):
        fwht([])


def test_fwht_matches_dense():
    rng = random.Random(1234)
    for n in range(1, 7):
        w = walsh_matrix(n)
        for _ in range(25):
            v = [rng.randrange(-50, 50) for _ in range(1 << n)]
            assert fwht(v) == (w @ np.array(v)).tolist()


def test_fwht_matches_definition_on_big_ints_and_fractions():
    # the dense check above runs in int64; these entries do not fit it
    rng = random.Random(99)
    for n in range(9):
        size = 1 << n
        for v in ([rng.randrange(-2**70, 2**70) for _ in range(size)],
                  [Fraction(rng.randrange(-99, 100), rng.randrange(1, 50)) for _ in range(size)]):
            want = [sum(-v[y] if (x & y).bit_count() & 1 else v[y] for y in range(size))
                    for x in range(size)]
            assert fwht(v) == want, (n, type(v[0]))
            assert all(type(c) is type(v[0]) for c in fwht(v))


def test_spectrum_exact_xor():
    s = spectrum_exact(TruthVector(2, (0, 1, 1, 0)))
    assert s.coeffs == (Fraction(1, 2), 0, 0, Fraction(-1, 2))
    assert s.modulus is None
    assert str(s) == "[1/2, 0, 0, -1/2]"


def test_spectrum_exact_constants():
    assert spectrum_exact(TruthVector(2, (0, 0, 0, 0))).coeffs == (0, 0, 0, 0)
    assert spectrum_exact(TruthVector(2, (1, 1, 1, 1))).coeffs == (1, 0, 0, 0)


def test_spectrum_exact_rejects_multivalued():
    with pytest.raises(ValueError):
        spectrum_exact(TruthVector(1, (0, 2)))


def test_spectrum_mod_example():
    s = spectrum_mod(TruthVector(2, (0, 1, 1, 0)), 3)
    assert s.coeffs == (-1, 0, 0, 1)
    assert s.modulus == 3
    assert str(s) == "[-1, 0, 0, 1]"


def test_spectrum_mod_and():
    # fwht([0,0,0,1]) = [1,-1,-1,1], scale pow(4, -1, 3) = 1
    s = spectrum_mod(TruthVector(2, (0, 0, 0, 1)), 3)
    assert s.coeffs == (1, -1, -1, 1)


def test_spectrum_mod_rejects_even_modulus():
    with pytest.raises(ValueError, match="odd"):
        spectrum_mod(TruthVector(1, (0, 1)), 6)


@pytest.mark.parametrize("modulus", [1, -3, 4, 6])
def test_spectrum_mod_rejects_moduli_that_are_not_odd_and_at_least_3(modulus):
    with pytest.raises(ValueError, match=f"odd and at least 3, got {modulus}"):
        spectrum_mod(TruthVector(1, (0, 1)), modulus)


def test_spectrum_mod_signed_range():
    rng = random.Random(99)
    for modulus in (3, 5, 7, 11):
        for _ in range(20):
            n = rng.randrange(1, 5)
            truth = TruthVector(n, [rng.randrange(2) for _ in range(1 << n)])
            for c in spectrum_mod(truth, modulus).coeffs:
                assert -modulus / 2 < c <= modulus / 2


def test_exact_roundtrip():
    # inverse transform recovers the truth vector exactly
    rng = random.Random(7)
    for n in range(1, 7):
        for _ in range(10):
            truth = TruthVector(n, [rng.randrange(2) for _ in range(1 << n)])
            back = fwht(spectrum_exact(truth).coeffs)
            assert all(b == v for b, v in zip(back, truth.values))


def test_mod_matches_exact():
    rng = random.Random(21)
    for modulus in (3, 5, 7):
        for n in range(1, 6):
            for _ in range(10):
                truth = TruthVector(n, [rng.randrange(2) for _ in range(1 << n)])
                exact = spectrum_exact(truth).coeffs
                modular = spectrum_mod(truth, modulus).coeffs
                for e, m in zip(exact, modular):
                    assert (e.numerator * pow(e.denominator, -1, modulus) - m) % modulus == 0


def test_spectrum_length_check():
    with pytest.raises(ValueError):
        WalshSpectrum(2, (1, 2, 3))

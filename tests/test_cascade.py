import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcascade.cascade import (canonical_cascade, detect_symmetry, reduce_by_symmetry, simplify,
                              verify_classical)
from qcascade.dihedral import evaluate_word
from qcascade.quantum import map_to_circuit
from qcascade.spectral import TruthVector, spectrum_exact, spectrum_mod
from qcascade.words import EQB, MGD, CascadeWord, Refl, Rot
from reference_fold import classical_row, fold_rows
from reference_simplify import simplify_reference


def random_truth(rng, n):
    return TruthVector(n, [rng.randrange(2) for _ in range(1 << n)])


def test_canonical_form_n1():
    word = canonical_cascade(spectrum_exact(TruthVector(1, (0, 1))))
    assert word.letters == (Rot(Fraction(1, 2)), Refl({1}), Rot(Fraction(-1, 2)), Refl({1}))


def test_canonical_form_n2():
    word = canonical_cascade(spectrum_mod(TruthVector(2, (0, 1, 1, 0)), 3))
    assert word.letters == (Rot(-1), Refl({2}), Rot(0), Refl({1}),
                            Rot(1), Refl({2}), Rot(0), Refl({1}))
    assert word.order == 3


def test_canonical_reflection_blocks_n3():
    # in Gray order every block is one reflection: the variable whose mask
    # bit changes next, and x1 last to return the mask to 0
    word = canonical_cascade(spectrum_exact(TruthVector(3, [0] * 8)))
    assert [type(letter) for letter in word.letters] == [Rot, Refl] * 8
    assert [v for letter in word.letters[1::2] for v in letter.controls] == \
        [3, 2, 3, 1, 3, 2, 3, 1]


def test_canonical_letter_count_law():
    rng = random.Random(5)
    for n in range(1, 11):
        word = canonical_cascade(spectrum_exact(random_truth(rng, n)))
        assert len(word) == 2 << n


def test_canonical_cascade_builds_each_distinct_letter_once():
    rng = random.Random(17)
    for n in range(1, 9):
        spectra = [spectrum_exact(random_truth(rng, n))]
        for order in (3, 5, 7):
            multi = TruthVector(n, [rng.randrange(order) for _ in range(1 << n)])
            spectra.append(spectrum_mod(multi, order))
        for spectrum in spectra:
            word = canonical_cascade(spectrum)
            # rotation k applies the coefficient of the Gray code of k; the
            # reflection after it flips the lowest set bit of k + 1 (bit i is
            # x_{n-i}), and the last one is x1, which returns the mask to 0
            fresh = []
            for k in range(1 << n):
                fresh.append(Rot(spectrum.coeffs[k ^ (k >> 1)]))
                step = (k + 1) & -(k + 1)
                fresh.append(Refl({n - step.bit_length() + 1 if k + 1 < 1 << n else 1}))
            assert word.letters == tuple(fresh)
            assert len({id(letter) for letter in word.letters}) <= n + len(set(spectrum.coeffs))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 8), st.sampled_from((None, 3, 5, 7)), st.randoms(use_true_random=False))
def test_canonical_cascade_follows_gray_order(n, order, rng):
    values = [rng.randrange(order or 2) for _ in range(1 << n)]
    truth = TruthVector(n, values)
    spectrum = spectrum_exact(truth) if order is None else spectrum_mod(truth, order)
    word = canonical_cascade(spectrum)
    letters = word.letters
    assert len(letters) == (2 << n if n else 1)
    assert all(isinstance(letter, Rot) for letter in letters[0::2])
    assert all(isinstance(letter, Refl) and len(letter.controls) == 1 for letter in letters[1::2])
    # rotation k applies s_M while the prefix reflection mask M (bit n - v
    # for x_v) is the Gray code of k
    mask = 0
    for k, (rot, refl) in enumerate(itertools.zip_longest(letters[0::2], letters[1::2])):
        assert mask == k ^ (k >> 1)
        assert rot.exponent == spectrum.coeffs[mask]
        if refl is not None:
            (v,) = refl.controls
            mask ^= 1 << (n - v)
    assert mask == 0
    assert len({id(letter) for letter in letters}) <= n + len(set(spectrum.coeffs))
    assert map_to_circuit(simplify(word)).gate_counts()["CZ"] <= 1 << n
    if order is None and n:
        odd = TruthVector(n, [h ^ b for h in values[0::2] for b in (0, 1)])
        assert map_to_circuit(reduce_by_symmetry(odd)).gate_counts()["CZ"] <= 1 << (n - 1)


def test_canonical_cascade_takes_the_group_from_the_spectrum():
    # a spectrum modulo m gives a word over D_m, an exact one a word over
    # the infinite dihedral group
    truth = TruthVector(2, (0, 1, 1, 0))
    for m in (3, 5, 7, 9):
        assert canonical_cascade(spectrum_mod(truth, m)).order == m
    assert canonical_cascade(spectrum_exact(truth)).order is None


def test_simplify_golden_example():
    word = simplify(canonical_cascade(spectrum_mod(TruthVector(2, (0, 1, 1, 0)), 3)))
    assert str(word) == "a^-1 g[x1,x2] a^1 g[x1,x2]"


def test_simplify_eqb_example():
    word = simplify(canonical_cascade(spectrum_exact(TruthVector(2, (0, 1, 1, 0)))))
    assert str(word) == "a^1/2 g[x1,x2] a^-1/2 g[x1,x2]"


def test_simplify_all_zero_spectrum():
    word = simplify(canonical_cascade(spectrum_exact(TruthVector(2, (0, 0, 0, 0)))))
    assert word.letters == ()
    assert str(word) == ""


def test_simplify_merges_rotations():
    word = CascadeWord(1, (Rot(Fraction(1, 2)), Rot(Fraction(1, 3))))
    assert simplify(word).letters == (Rot(Fraction(5, 6)),)


def test_simplify_cancels_through_dropped_letters():
    word = CascadeWord(2, (Rot(Fraction(1, 2)), Refl({1}), Rot(0), Refl({1}),
                           Rot(Fraction(-1, 2)), Refl({2})))
    assert simplify(word).letters == (Refl({2}),)


def test_simplify_reduces_exponents_to_signed_residues_over_dn():
    # a^1 a^2 = a^3 = I in D_3, so no RX(2 pi) = -I gate is left to emit
    word = simplify(CascadeWord(1, (Rot(1), Rot(2)), order=3))
    assert word.letters == ()
    assert map_to_circuit(word).gates == ()
    # a^2 a^2 = a^4 = a^1, and a kept a^4 or a^-2 is a^1: one object for all
    four = Rot(4)
    given = CascadeWord(2, (Rot(2), Rot(2), Refl({1}), four, Refl({2}), Rot(-2),
                            Refl({1}), Rot(3), Refl({2}), four), order=3)
    word = simplify(given)
    assert word.letters == (Rot(1), Refl({1}), Rot(1), Refl({2}), Rot(1), Refl({1, 2}), Rot(1))
    assert len({id(letter) for letter in word.letters if isinstance(letter, Rot)}) == 1
    assert evaluate_word(word) == fold_rows(given)
    # residues keep their objects; over D_5, 3 is -2
    minus = Rot(-1)
    assert simplify(CascadeWord(1, (minus,), order=3)).letters[0] is minus
    assert simplify(CascadeWord(1, (Rot(3),), order=5)).letters == (Rot(-2),)
    # without an order exponents never wrap
    word = CascadeWord(1, (Rot(Fraction(3, 2)), Rot(Fraction(3, 2))))
    assert simplify(word).letters == (Rot(3),)


def test_simplify_idempotent():
    rng = random.Random(11)
    for _ in range(200):
        word = _random_word(rng, EQB)
        once = simplify(word)
        assert simplify(once) == once


def _random_word(rng, mode, n_vars=3):
    letters = []
    for _ in range(rng.randrange(0, 14)):
        if rng.random() < 0.5:
            if mode == MGD:
                letters.append(Rot(rng.randrange(-3, 4)))
            else:
                letters.append(Rot(Fraction(rng.randrange(-4, 5), rng.choice((1, 2, 4)))))
        else:
            controls = frozenset(rng.sample(range(1, n_vars + 1), rng.randrange(1, n_vars + 1)))
            letters.append(Refl(controls))
    return CascadeWord(n_vars, tuple(letters), order=5 if mode == MGD else None)


def test_simplify_preserves_semantics():
    # both sides against the independent per-row reference
    rng = random.Random(42)
    for mode in (EQB, MGD):
        for _ in range(300):
            word = _random_word(rng, mode)
            reference = fold_rows(word)
            assert evaluate_word(word) == reference
            assert evaluate_word(simplify(word)) == reference


def test_evaluate_invariant_under_simplify_on_cascades():
    # canonical, simplified and symmetry-reduced words from real truth tables,
    # each against the per-row reference
    rng = random.Random(13)
    for n in range(1, 7):
        for _ in range(4):
            truth = random_truth(rng, n)
            words = [canonical_cascade(spectrum_exact(truth))]
            for order in (3, 5, 7):
                multi = TruthVector(n, [rng.randrange(order) for _ in range(1 << n)])
                words.append(canonical_cascade(spectrum_mod(multi, order)))
            odd = TruthVector(n, [h ^ b for h in truth.values[0::2] for b in (0, 1)])
            words.append(reduce_by_symmetry(odd))
            for word in words:
                rows = evaluate_word(word)
                assert rows == fold_rows(word)
                assert evaluate_word(simplify(word)) == rows


@st.composite
def _words(draw, shared=False):
    """Random words; with ``shared``, every position repeats one of at most
    four letter objects."""
    mode = draw(st.sampled_from((EQB, MGD)))
    n = draw(st.integers(0, 4))
    rot = st.integers(-6, 6) if mode == MGD else st.fractions(-4, 4, max_denominator=8)
    refl = st.frozensets(st.integers(1, n), min_size=1) if n else st.nothing()
    letter = rot.map(Rot) | refl.map(Refl)
    if shared:
        letter = st.sampled_from(draw(st.lists(letter, min_size=1, max_size=4)))
    letters = draw(st.lists(letter, max_size=16 + 8 * shared))
    return CascadeWord(n, tuple(letters), order=5 if mode == MGD else None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_words())
def test_simplify_idempotent_and_preserves_every_row(word):
    once = simplify(word)
    assert simplify(once) == once
    assert evaluate_word(once) == evaluate_word(word) == fold_rows(word)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.booleans().flatmap(lambda shared: _words(shared)))
def test_simplify_equals_letter_by_letter_reference(word):
    got, want = simplify(word), simplify_reference(word)
    assert got.letters == want.letters
    assert str(got) == str(want)
    # unmerged letters keep their objects; each distinct merged letter is one object
    inputs = {id(letter) for letter in word.letters}
    for g, w in zip(got.letters, want.letters):
        assert g is w if id(w) in inputs else id(g) not in inputs
    merged = [letter for letter in got.letters if id(letter) not in inputs]
    assert len({id(letter) for letter in merged}) == len(set(merged))


def test_detect_symmetry():
    assert detect_symmetry(TruthVector(2, (0, 1, 1, 0))) is True
    assert detect_symmetry(TruthVector(2, (0, 1, 0, 1))) is True
    assert detect_symmetry(TruthVector(2, (0, 0, 0, 1))) is False
    assert detect_symmetry(TruthVector(1, (0, 1))) is True
    assert detect_symmetry(TruthVector(1, (0, 0))) is False
    assert detect_symmetry(TruthVector(0, (1,))) is False  # no x_n to be odd in


def test_detect_symmetry_rejects_multivalued():
    with pytest.raises(ValueError):
        detect_symmetry(TruthVector(1, (0, 2)))


def test_reduce_by_symmetry_xor():
    word = reduce_by_symmetry(TruthVector(2, (0, 1, 1, 0)))
    assert str(word) == "a^1/2 g[x1] a^-1/2 g[x1]"
    assert word.target_var == 2
    assert word.n_vars == 2


def test_reduce_by_symmetry_plain_passthrough():
    # f = x2: the residual is constant 0 and the word is empty
    word = reduce_by_symmetry(TruthVector(2, (0, 1, 0, 1)))
    assert word.letters == ()
    assert word.target_var == 2


def test_reduce_by_symmetry_negation():
    # f = not x1 reduces to a constant-1 residual over zero variables
    word = reduce_by_symmetry(TruthVector(1, (1, 0)))
    assert word.letters == (Rot(1),)
    assert word.target_var == 1


def test_reduce_by_symmetry_requires_odd_function():
    with pytest.raises(ValueError, match="x2"):
        reduce_by_symmetry(TruthVector(2, (0, 0, 0, 1)))


def _gate_count(word):
    # rotations map to one gate, reflections to one CZ per control
    return sum(1 if isinstance(letter, Rot) else len(letter.controls)
               for letter in word.letters)


def test_reduce_by_symmetry_verifies_exhaustively():
    # letter counts can tie (f = x1 xor x2 gives 4 letters either way), but
    # the reduced word always needs strictly fewer gates
    for n in range(1, 5):
        for residual in itertools.product((0, 1), repeat=1 << (n - 1)):
            values = []
            for h in residual:
                values.extend((h, 1 - h))
            truth = TruthVector(n, values)
            assert detect_symmetry(truth)
            word = reduce_by_symmetry(truth)
            full = simplify(canonical_cascade(spectrum_exact(truth)))
            assert len(word) <= len(full)
            assert _gate_count(word) < _gate_count(full)
            assert verify_classical(word, truth).passed


def test_verify_classical_golden_mgd():
    word = simplify(canonical_cascade(spectrum_mod(TruthVector(2, (0, 1, 1, 0)), 3)))
    report = verify_classical(word, TruthVector(2, (0, 1, 1, 0)))
    assert report.passed
    assert len(report.rows) == 4
    assert report.counts() == "4/4"


def test_verify_classical_empty_word_constant():
    word = simplify(canonical_cascade(spectrum_exact(TruthVector(2, (0, 0, 0, 0)))))
    assert verify_classical(word, TruthVector(2, (0, 0, 0, 0))).passed


def test_verify_classical_random_eqb():
    rng = random.Random(3)
    for n in range(1, 5):
        for _ in range(20):
            truth = random_truth(rng, n)
            word = simplify(canonical_cascade(spectrum_exact(truth)))
            assert verify_classical(word, truth).passed


def test_verify_classical_random_mgd():
    rng = random.Random(31)
    for order in (3, 5, 7):
        for n in range(1, 5):
            for _ in range(10):
                truth = random_truth(rng, n)
                word = simplify(canonical_cascade(spectrum_mod(truth, order)))
                assert verify_classical(word, truth).passed


def test_verify_classical_multivalued_mgd():
    # three-level output over D3, mod 3
    rng = random.Random(8)
    for _ in range(20):
        truth = TruthVector(2, [rng.randrange(3) for _ in range(4)])
        word = simplify(canonical_cascade(spectrum_mod(truth, 3)))
        report = verify_classical(word, truth)
        assert report.passed, report.rows


def test_verify_classical_mgd_rows_equal_per_row_reference():
    rng = random.Random(41)
    for order in (3, 5, 7):
        for n in range(1, 7):
            levels = rng.randrange(2, order + 1)
            truth = TruthVector(n, [rng.randrange(levels) for _ in range(1 << n)])
            canonical = canonical_cascade(spectrum_mod(truth, order))
            # a second truth table with every other row changed gives failing rows
            wrong = TruthVector(n, [v + x % 2 for x, v in enumerate(truth.values)])
            for word in (canonical, simplify(canonical)):
                for t in (truth, wrong):
                    rows = verify_classical(word, t).rows
                    assert len(rows) == 1 << n
                    for x, bits in enumerate(itertools.product((0, 1), repeat=n)):
                        assert rows[x] == classical_row(word, bits, t.values[x])


def test_verify_classical_eqb_rows_equal_per_row_reference():
    rng = random.Random(43)
    texts = set()
    for n in range(1, 7):
        for _ in range(2):
            truth = random_truth(rng, n)
            odd = TruthVector(n, [h ^ b for h in truth.values[0::2] for b in (0, 1)])
            canonical = canonical_cascade(spectrum_exact(truth))
            reduced = reduce_by_symmetry(odd)
            words = [(canonical, truth), (simplify(canonical), truth), (reduced, odd)]
            # prefixes of a word leave residual reflections and fractional nets
            words += [(replace(word, letters=word.letters[:k]), t) for word, t in words
                      for k in range(0, len(word.letters), 1 + len(word.letters) // 4)]
            for word, t in words:
                # a second truth table with every other row changed gives failing rows
                wrong = TruthVector(n, [v + x % 2 for x, v in enumerate(t.values)])
                for table in (t, wrong):
                    rows = verify_classical(word, table).rows
                    assert len(rows) == 1 << n
                    for x, bits in enumerate(itertools.product((0, 1), repeat=n)):
                        assert rows[x] == classical_row(word, bits, table.values[x])
                    texts.update(row.got for row in rows)
    assert {"1/4 g", "-1/4", "0 g", "1"} <= texts


def test_verify_classical_rejects_variable_count_mismatch():
    word = simplify(canonical_cascade(spectrum_exact(TruthVector(2, (0, 1, 1, 0)))))
    with pytest.raises(ValueError, match="2 variables"):
        verify_classical(word, TruthVector(3, (0, 1, 1, 0, 1, 0, 0, 1)))


def test_verify_classical_flags_mismatch():
    truth = TruthVector(2, (0, 1, 1, 0))
    word = simplify(canonical_cascade(spectrum_exact(truth)))
    wrong = TruthVector(2, (0, 1, 1, 1))
    report = verify_classical(word, wrong)
    assert not report.passed
    assert [row.ok for row in report.rows] == [True, True, True, False]
    assert report.first_failure == 3


def test_first_failure_is_the_failing_row_index_even_at_row_zero():
    # index 0 is falsy, so a truthiness test on first_failure would call
    # this report passed
    truth = TruthVector(2, (0, 1, 1, 0))
    word = simplify(canonical_cascade(spectrum_exact(truth)))
    report = verify_classical(word, TruthVector(2, (1, 1, 1, 0)))
    assert [row.ok for row in report.rows] == [False, True, True, True]
    assert report.first_failure == 0 and type(report.first_failure) is int
    assert report.passed is False
    assert report.counts() == "3/4"
    assert verify_classical(word, truth).first_failure is None


@pytest.mark.parametrize("control", [1.5, 2.0, "2", True, None])
def test_reflection_rejects_non_integer_controls(control):
    with pytest.raises(TypeError, match="control variables must be integers"):
        Refl({3, control})


@pytest.mark.parametrize("build, error, message", [
    (lambda: CascadeWord(-1, ()), ValueError, "n_vars must be non-negative"),
    (lambda: CascadeWord(2, (), target_var=3), ValueError, "target variable x3 out of range 1..2"),
    (lambda: CascadeWord(1, (Rot(0.5),)), TypeError, "EQB exponents must be rational, got 0.5"),
    (lambda: CascadeWord(1, ("a",)), TypeError, "not a cascade letter: 'a'"),
    (lambda: Refl(frozenset()), ValueError, "reflection letter needs at least one control variable"),
    (lambda: Refl({0}), ValueError, "control variables are numbered from 1"),
], ids=["negative-n", "target-beyond-n", "float-exponent", "not-a-letter", "no-controls",
        "control-0"])
def test_word_and_letter_checks_keep_their_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("mode", [EQB, MGD])
def test_word_rejects_bool_exponents(mode):
    with pytest.raises(TypeError, match="got True"):
        CascadeWord(1, (Rot(1), Rot(True)), order=3 if mode == MGD else None)


def test_word_rejects_a_bad_letter_repeated_at_many_positions():
    beyond = Refl({3})
    half = Rot(Fraction(1, 2))
    with pytest.raises(ValueError, match="x3"):
        CascadeWord(2, (beyond, half, beyond, Refl({1}), half, beyond, Refl({2})))
    third = Rot(Fraction(1, 3))
    with pytest.raises(TypeError, match="MGD exponents must be integers"):
        CascadeWord(2, (third, Rot(1), third, Refl({1}), third, Rot(2)), order=3)

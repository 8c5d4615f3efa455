import itertools
from dataclasses import fields
from fractions import Fraction

import pytest

from qcascade.dihedral import GroupElement, evaluate_word, format_element
from qcascade.words import CascadeWord, Refl, Rot
from reference_groups import (IDENTITY, RailPermutation, all_elements, element, inv, mul,
                              to_permutation)

A = GroupElement(1, False)
G = GroupElement(0, True)


def test_word_rejects_a_bad_group_order():
    for order, error in ((1, ValueError), (0, ValueError), (True, TypeError),
                         (3.0, TypeError), (Fraction(7, 2), TypeError)):
        with pytest.raises(error, match="group order"):
            CascadeWord(1, (Rot(1),), order=order)


def test_element_normalizes_rotation():
    assert element(5, False, 3) == GroupElement(2, False)
    assert element(-1, True, 3) == GroupElement(2, True)


def test_reflection_squares_to_identity():
    assert mul(G, G, 3) == IDENTITY


def test_conjugation_inverts_rotation():
    # g a g = a^-1
    assert mul(mul(G, A, 3), G, 3) == inv(A, 3)


def test_rotations_wrap():
    assert mul(GroupElement(2, False), A, 3) == IDENTITY


def test_inverse_examples():
    assert inv(IDENTITY, 3) == IDENTITY
    assert inv(A, 3) == GroupElement(2, False)
    assert inv(GroupElement(2, True), 3) == GroupElement(2, True)


def test_group_axioms_exhaustive():
    for n in range(2, 8):
        elems = list(all_elements(n))
        assert len(elems) == 2 * n
        for e in elems:
            assert mul(e, IDENTITY, n) == e
            assert mul(IDENTITY, e, n) == e
            assert mul(e, inv(e, n), n) == IDENTITY
            assert mul(inv(e, n), e, n) == IDENTITY
        for e1, e2, e3 in itertools.product(elems, repeat=3):
            assert mul(mul(e1, e2, n), e3, n) == mul(e1, mul(e2, e3, n), n)


def test_reflections_are_involutions():
    for n in range(2, 8):
        for r in range(n):
            e = GroupElement(r, True)
            assert mul(e, e, n) == IDENTITY


def test_to_permutation_examples():
    assert to_permutation(IDENTITY, 3).image == (0, 1, 2)
    assert to_permutation(A, 3).image == (1, 2, 0)
    assert to_permutation(G, 3).image == (0, 2, 1)


def test_to_permutation_is_faithful():
    # n = 2 is excluded: on two rails the reflection acts trivially
    for n in range(3, 8):
        images = {to_permutation(e, n).image for e in all_elements(n)}
        assert len(images) == 2 * n


def test_to_permutation_homomorphism():
    # composition is application order: e1 acts first
    for n in range(2, 8):
        elems = list(all_elements(n))
        for e1, e2 in itertools.product(elems, repeat=2):
            lhs = to_permutation(mul(e1, e2, n), n)
            rhs = to_permutation(e1, n).then(to_permutation(e2, n))
            assert lhs == rhs


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        RailPermutation((0, 0, 2))


def test_format_element():
    assert format_element(IDENTITY, 3) == "I"
    assert format_element(A, 3) == "a^1"
    assert format_element(GroupElement(2, False), 3) == "a^-1"
    assert format_element(G, 3) == "g"
    assert format_element(GroupElement(2, True), 3) == "a^-1 g"
    # even order keeps the +n/2 representative
    assert format_element(GroupElement(2, False), 4) == "a^2"
    # without an order, the infinite group: the exponent, then " g" when reflected
    assert format_element(GroupElement(Fraction(3))) == "3"
    assert format_element(GroupElement(Fraction(-1, 4), True)) == "-1/4 g"
    assert format_element(GroupElement(Fraction(0), True), None) == "0 g"


XOR_WORD_MGD = CascadeWord(2, (Rot(-1), Refl({1, 2}), Rot(1), Refl({1, 2})), order=3)


def test_evaluate_word_mgd_example():
    assert evaluate_word(XOR_WORD_MGD) == [GroupElement(value, False) for value in (0, 1, 1, 0)]


def test_evaluate_word_matches_permutation_route():
    # independent oracle: evaluate the same word by composing rail permutations
    rows = itertools.product((0, 1), repeat=2)
    for bits, folded in zip(rows, evaluate_word(XOR_WORD_MGD), strict=True):
        perm = to_permutation(IDENTITY, 3)
        for letter in XOR_WORD_MGD.letters:
            if isinstance(letter, Rot):
                perm = perm.then(to_permutation(element(letter.exponent, False, 3), 3))
            else:
                parity = 0
                for v in letter.controls:
                    parity ^= bits[v - 1]
                if parity:
                    perm = perm.then(to_permutation(G, 3))
        assert perm == to_permutation(folded, 3)


def test_evaluate_word_eqb():
    word = CascadeWord(2, (Rot(Fraction(1, 2)), Refl({1, 2}),
                           Rot(Fraction(-1, 2)), Refl({1, 2})))
    assert evaluate_word(word) == [(0, False), (1, False), (1, False), (0, False)]
    assert all(refl is False for _, refl in evaluate_word(word))


def test_evaluate_word_eqb_partial_fold():
    # a lone reflection letter leaves a residual flip
    word = CascadeWord(1, (Rot(Fraction(1, 4)), Refl({1})))
    assert evaluate_word(word) == [(Fraction(1, 4), False), (Fraction(1, 4), True)]


def test_evaluate_word_params_pick_the_group():
    # the same letters fold in D_3 with order 3 and in the rationals without
    word = CascadeWord(1, (Rot(4),), order=3)
    bare = CascadeWord(1, (Rot(4),))
    assert evaluate_word(word) == [GroupElement(1, False)] * 2
    assert evaluate_word(bare) == [(4, False)] * 2


def test_evaluate_word_shares_one_element_per_distinct_element():
    # rows fold to nets 4, 4, -2, -2: one rational element per net and flag,
    # and in D_3 the residues of 4 and -2 coincide
    letters = (Rot(1), Refl({1}), Rot(3), Refl({2}))
    for order, distinct in ((None, 4), (3, 2)):
        rows = evaluate_word(CascadeWord(2, letters, order=order))
        assert all(type(e) is GroupElement for e in rows)
        assert len(set(rows)) == len({id(e) for e in rows}) == distinct


def test_word_params_decide_the_group():
    assert [f.name for f in fields(CascadeWord)] == ["n_vars", "letters", "order", "target_var"]
    third = Rot(Fraction(1, 3))
    with pytest.raises(TypeError, match="MGD exponents must be integers"):
        CascadeWord(1, (third,), order=3)
    assert CascadeWord(1, (Rot(1),), order=3).order == 3
    assert CascadeWord(1, (third,)).order is None


def test_word_rejects_control_beyond_n_vars():
    # every control is bound: evaluate_word folds over exactly 2^n_vars rows
    with pytest.raises(ValueError, match="x3"):
        CascadeWord(2, (Refl({3}),))

import pytest
from hypothesis import given, settings, strategies as st

from foldtrack.automorphisms import simultaneously_conjugate
from foldtrack.errors import CertificationError
from foldtrack.words import (
    _descend, conjugate, cyclic_reduce, generates_free_group,
    invert_automorphism_words, invert_word, nielsen_reduce, reduce_word,
    substitute_reduced,
)

letters = st.integers(min_value=-4, max_value=4).filter(lambda a: a != 0)
words = st.lists(letters, max_size=16).map(tuple)


@given(words)
def test_reduce_idempotent(w):
    assert reduce_word(reduce_word(w)) == reduce_word(w)


@given(words)
def test_reduce_shortens(w):
    assert len(reduce_word(w)) <= len(w)


@given(words)
def test_inverse_involution(w):
    assert invert_word(invert_word(w)) == tuple(w)


@given(words)
def test_word_times_inverse_trivial(w):
    assert reduce_word(w + invert_word(w)) == ()


@given(words)
def test_cyclic_reduce_fixed_by_rotation_length(w):
    w = cyclic_reduce(w)
    if w:
        rotated = w[1:] + w[:1]
        assert len(cyclic_reduce(rotated)) <= len(rotated)


@given(words, words)
def test_conjugate_preserves_cyclic_length(w, u):
    assert (len(cyclic_reduce(conjugate(w, u)))
            == len(cyclic_reduce(reduce_word(w))))


def test_generates_standard_cases():
    assert generates_free_group([(1,), (2,)], 2)
    assert generates_free_group([(1, 2), (1,)], 2)
    assert not generates_free_group([(1, 1), (2,)], 2)
    assert not generates_free_group([(1, 2), (2, 1)], 2)
    # conjugate basis that needs no strict reduction at all
    assert not generates_free_group([(1, 2, -1), (2,)], 2)  # a-exponent zero
    assert generates_free_group([(2, 1, -2), (2,)], 2)


def test_nielsen_reduce_moves_replay():
    words_in = [(1, 2), (1,)]
    final, moves = nielsen_reduce(words_in)
    ws = [tuple(w) for w in words_in]
    from foldtrack.words import _apply_move
    for move in moves:
        _apply_move(ws, move)
    assert tuple(ws) == final


def test_invert_automorphism_roundtrip():
    images = [(1, 2), (1,)]
    inv = invert_automorphism_words(images)
    assert inv == ((2,), (-2, 1))
    # composing both ways gives the identity exactly
    assert [substitute_reduced(w, inv) for w in images] == [(1,), (2,)]
    assert [substitute_reduced(w, images) for w in inv] == [(1,), (2,)]


def test_invert_rejects_non_basis():
    with pytest.raises(CertificationError):
        invert_automorphism_words([(1, 1), (2,)])


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1))
def test_invert_random_automorphisms(seed):
    import numpy as np
    from foldtrack.automorphisms import random_automorphism
    rng = np.random.default_rng(seed)
    aut = random_automorphism(3, 8, rng)
    inv = invert_automorphism_words(aut.images)
    assert [substitute_reduced(w, list(aut.images)) for w in inv] == \
        [(1,), (2,), (3,)]


def test_simultaneous_conjugator_finds_negative_exponents():
    # conjugator u = b a^-1: not a prefix of the first image
    u = (2, -1)
    imgs = [conjugate((i,), u) for i in (1, 2)]
    assert simultaneously_conjugate(imgs, [(1,), (2,)])


@settings(max_examples=40)
@given(words, st.integers(1, 3))
def test_simultaneous_conjugator_complete(u, n):
    basis = [(i,) for i in range(1, n + 1)]
    imgs = [conjugate(b, reduce_word(u)) for b in basis]
    assert simultaneously_conjugate(imgs, basis)


def test_simultaneous_conjugator_rejects_non_conjugate():
    assert not simultaneously_conjugate([(1, 2), (2,)], [(1,), (2,)])


@pytest.mark.parametrize("images, dirs, last, slid", [
    # a collapsed loop is not counted: both directions of the other loop
    # start with 1, so the vertex slides across 1
    ([(), (1, 2, -1)], (1, 2, -1, -2), 1, [(), (2,)]),
    # a collapsed edge to another vertex counts, and gains the letter
    ([(3, 4, -3), ()], (1, -1, 2), 3, [(4,), (-3,)]),
    # two of four directions start with 3: sliding would keep the total
    ([(3, 4, -3), (), ()], (1, -1, 2, 3), None, [(3, 4, -3), (), ()]),
])
def test_descend_counts_directions(images, dirs, last, slid):
    assert _descend(images, dirs) == last
    assert images == slid

"""The word primitives against straightforward reference implementations.

The library reduces, multiplies and substitutes long words with a few slice
and table passes.  The references below do the same work one letter at a
time, as the code did before; every test asks for identical results,
including the Nielsen move log.  Long words (10^4+ letters) are built from
drawn blocks and repeat counts so that hypothesis stays fast.
"""

from collections import deque
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foldtrack.automorphisms import (
    Automorphism, normalize_outer, random_automorphism, rose_graph,
)
from foldtrack.errors import StructuralError
from foldtrack.graph import (
    graph_from_json, graph_to_json, make_graph, path_endpoints,
    pi1_generators, pi1_word, spanning_tree,
)
from foldtrack.words import (
    _SHORT_WORD, _apply_move, _cancellation, _suffix_repeats, cyclic_reduce, invert_word, max_common_prefix, nielsen_reduce,
    reduce_word, substitute, substitute_reduced,
)


# ---------------------------------------------------------------------------
# reference implementations, one letter at a time
# ---------------------------------------------------------------------------

def ref_reduce_word(letters):
    out = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def ref_invert_word(w):
    return tuple(-a for a in reversed(w))


def ref_concat(*ws):
    return ref_reduce_word([a for w in ws for a in w])


def ref_cyclic_reduce(w):
    w = ref_reduce_word(w)
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    return tuple(w[lo:hi])


def ref_substitute(w, images):
    out = []
    for a in w:
        if a > 0:
            out.extend(images[a - 1])
        else:
            out.extend(-b for b in reversed(images[-a - 1]))
    return tuple(out)


def ref_max_common_prefix(u, v):
    n = min(len(u), len(v))
    i = 0
    while i < n and u[i] == v[i]:
        i += 1
    return i


def ref_cancellation(u, v):
    k = 0
    n = min(len(u), len(v))
    while k < n and u[len(u) - 1 - k] == -v[k]:
        k += 1
    return k


def ref_suffix_repeats(w, block):
    b = len(block)
    if b == 0:
        return 0
    r = 0
    pos = len(w)
    while pos >= b and tuple(w[pos - b:pos]) == block:
        r += 1
        pos -= b
    return r


def ref_apply_move(ws, move):
    side, i, j, eps, count = move
    wj = ws[j] if eps > 0 else ref_invert_word(ws[j])
    block = wj * count
    if side == "R":
        ws[i] = ref_concat(ws[i], block)
    else:
        ws[i] = ref_concat(block, ws[i])


def ref_best_strict_move(ws):
    n = len(ws)
    for i in range(n):
        wi = ws[i]
        if not wi:
            continue
        for j in range(n):
            if i == j or not ws[j]:
                continue
            lj = len(ws[j])
            for side in ("R", "L"):
                for eps in (1, -1):
                    wj = ws[j] if eps > 0 else ref_invert_word(ws[j])
                    inv_wj = ref_invert_word(wj)
                    if side == "R":
                        c = ref_cancellation(wi, wj)
                    else:
                        c = ref_cancellation(wj, wi)
                    if 2 * c <= lj:
                        continue
                    if side == "R":
                        full = ref_suffix_repeats(wi, inv_wj)
                    else:
                        full = ref_suffix_repeats(ref_invert_word(wi), wj)
                    if full == 0:
                        return (side, i, j, eps, 1)
                    rest = wi[:len(wi) - full * lj] if side == "R" \
                        else wi[full * lj:]
                    if side == "R":
                        extra = 1 if 2 * ref_cancellation(rest, wj) > lj else 0
                    else:
                        extra = 1 if 2 * ref_cancellation(wj, rest) > lj else 0
                    return (side, i, j, eps, full + extra)
    return None


def ref_is_signed_permutation(ws, rank):
    if len(ws) != rank or any(len(w) != 1 for w in ws):
        return False
    return len({abs(w[0]) for w in ws}) == rank


def ref_plateau_search(ws):
    start = tuple(ws)
    total = sum(len(w) for w in start)
    n = len(start)
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        state, path = queue.popleft()
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for side in ("R", "L"):
                    for eps in (1, -1):
                        move = (side, i, j, eps, 1)
                        nxt = list(state)
                        ref_apply_move(nxt, move)
                        nt = sum(len(w) for w in nxt)
                        if nt > total:
                            continue
                        nxt_t = tuple(nxt)
                        if nt < total:
                            return path + (move,), nxt_t
                        if nxt_t in seen:
                            continue
                        seen.add(nxt_t)
                        queue.append((nxt_t, path + (move,)))
    return None


def ref_nielsen_reduce(words):
    ws = [ref_reduce_word(w) for w in words]
    moves = []
    while True:
        move = ref_best_strict_move(ws)
        if move is not None:
            ref_apply_move(ws, move)
            moves.append(move)
            continue
        if ref_is_signed_permutation(ws, len(ws)):
            break
        found = ref_plateau_search(ws)
        if found is None:
            break
        path, state = found
        moves.extend(path)
        ws = [tuple(w) for w in state]
    return tuple(tuple(w) for w in ws), moves


def ref_path_endpoints(g, path):
    if not path:
        raise StructuralError("empty path has no endpoints")
    cur = g.init(path[0])
    start = cur
    for d in path:
        u, v = g.endpoints(d)
        if u != cur:
            raise StructuralError("path steps not endpoint-compatible")
        cur = v
    return start, cur


def ref_pi1_word(g, path, tree=None, gens=None):
    tree = spanning_tree(g) if tree is None else tree
    if gens is None:
        gens = pi1_generators(g, tree)
    index = {e: i + 1 for i, e in enumerate(gens)}
    out = []
    for d in path:
        e = abs(d)
        if e in tree:
            continue
        letter = index[e] if d > 0 else -index[e]
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def ref_normalize_outer(aut):
    images = tuple(aut.images)

    def total(ws):
        return sum(len(w) for w in ws)

    def conj(ws, u):
        iu = tuple(-a for a in reversed(u))
        return tuple(ref_reduce_word(iu + w + u) for w in ws)

    letters = [(s * l,) for l in range(1, aut.rank + 1) for s in (1, -1)]
    while True:
        cur_t = total(images)
        best = None
        for u in letters:
            cand = conj(images, u)
            if total(cand) < cur_t and (best is None or total(cand) < total(best)
                                        or (total(cand) == total(best) and cand < best)):
                best = cand
        if best is None:
            break
        images = best
    cur_t = total(images)
    seen = {images}
    queue = [images]
    best = images
    while queue:
        state = queue.pop()
        if state < best:
            best = state
        for u in letters:
            cand = conj(state, u)
            if total(cand) == cur_t and cand not in seen:
                seen.add(cand)
                queue.append(cand)
        if len(seen) > 10_000:
            break
    return best


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def letters(n=3):
    return st.integers(-n, n).filter(lambda a: a != 0)


short_words = st.lists(letters(), max_size=12).map(tuple)
blocks = st.lists(letters(), min_size=1, max_size=6).map(tuple)


@st.composite
def long_words(draw, n=3, max_repeat=4000):
    """Up to four drawn blocks, each repeated up to max_repeat times; the
    blocks need not be reduced, so neither is the word."""
    pieces = draw(st.lists(st.tuples(st.lists(letters(n), min_size=1,
                                              max_size=6).map(tuple),
                                     st.integers(1, max_repeat)),
                           min_size=1, max_size=4))
    return tuple(chain.from_iterable(b * k for b, k in pieces))


any_words = st.one_of(short_words, long_words())


@st.composite
def seams(draw):
    """(u, v) whose product cancels a long stretch c, often all of u or v."""
    c = ref_reduce_word(draw(any_words))
    a = draw(st.one_of(st.just(()), short_words))
    b = draw(st.one_of(st.just(()), short_words))
    return a + c, ref_invert_word(c) + b


@st.composite
def twisted_bases(draw):
    """Marking words of the twist family: x_t x_o^(+-m) or x_o^(+-m) x_t,
    with m up to 12000, at rank 2 or 3.  Conjugated by u, the power is
    stripped one letter per move (no whole blocks sit at the seam), so
    m stays small there."""
    rank = draw(st.integers(2, 3))
    t, o = draw(st.permutations(range(1, rank + 1)))[:2]
    u = ref_reduce_word(draw(short_words)) if draw(st.booleans()) else ()
    m = draw(st.integers(0, 200 if u else 12000))
    power = (draw(st.sampled_from((o, -o))),) * m
    ws = [(i,) for i in range(1, rank + 1)]
    ws[t - 1] = power + (t,) if draw(st.booleans()) else (t,) + power
    return tuple(ref_concat(u, w, ref_invert_word(u)) for w in ws)


@st.composite
def automorphism_images(draw, max_rank=3, max_length=12):
    rank = draw(st.integers(1, max_rank))
    length = draw(st.integers(0, max_length))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return random_automorphism(rank, length, np.random.default_rng(seed)).images


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(any_words)
def test_reduce_word_matches_reference(w):
    assert reduce_word(w) == ref_reduce_word(w)
    assert reduce_word(list(w)) == ref_reduce_word(w)
    r = ref_reduce_word(w)
    if len(r) > _SHORT_WORD:
        assert reduce_word(r) is r  # a long reduced word is not copied


@settings(max_examples=100, deadline=None)
@given(any_words)
def test_invert_and_cyclic_reduce_match_reference(w):
    assert invert_word(w) == ref_invert_word(w)
    assert cyclic_reduce(w) == ref_cyclic_reduce(w)


@settings(max_examples=50, deadline=None)
@given(st.lists(any_words, max_size=4), seams())
def test_concat_matches_reference(ws, seam):
    assert reduce_word(tuple(chain.from_iterable(ws))) == ref_concat(*ws)
    u, v = seam
    assert reduce_word(u + v) == ref_concat(*seam)
    assert reduce_word(u + v + invert_word(v)) == ref_reduce_word(u)


@settings(max_examples=80, deadline=None)
@given(st.one_of(seams(), st.tuples(any_words, any_words)))
def test_cancellation_and_prefix_match_reference(pair):
    u, v = pair
    assert _cancellation(u, v) == ref_cancellation(u, v)
    assert _cancellation(v, u) == ref_cancellation(v, u)
    assert _cancellation(u, u) == ref_cancellation(u, u)
    assert max_common_prefix(u, invert_word(v)) == \
        ref_max_common_prefix(u, ref_invert_word(v))
    assert max_common_prefix(u, v) == ref_max_common_prefix(u, v)


@st.composite
def repeated_blocks(draw):
    """(w, block): w ends in block repeated, block possibly empty or not
    cyclically reduced (c y c^-1), after a prefix that may repeat a part."""
    block = draw(st.one_of(st.just(()), blocks))
    if block and draw(st.booleans()):
        c = draw(blocks)
        block = ref_reduce_word(c + block + ref_invert_word(c)) or block
    count = draw(st.integers(0, 12000 // max(len(block), 1)))
    prefix = draw(st.one_of(st.just(()), short_words,
                            st.just(block[len(block) // 2:])))
    return prefix + block * count, block


@settings(max_examples=100, deadline=None)
@given(st.one_of(repeated_blocks(), st.tuples(any_words, blocks)))
def test_suffix_repeats_matches_reference(pair):
    w, block = pair
    assert _suffix_repeats(w, block) == ref_suffix_repeats(w, block)


@settings(max_examples=50, deadline=None)
@given(st.one_of(
    st.tuples(long_words(max_repeat=500),
              st.lists(short_words, min_size=3, max_size=3)),
    st.tuples(short_words,
              st.lists(long_words(max_repeat=500), min_size=3, max_size=3))))
def test_substitute_matches_reference(case):
    """Images need not be reduced, and neither need the word."""
    w, images = case
    assert substitute(w, images) == ref_substitute(w, images)
    assert substitute_reduced(w, images) == \
        ref_reduce_word(ref_substitute(w, images))
    assert substitute_reduced(w, tuple(map(list, images))) == \
        ref_reduce_word(ref_substitute(w, images))


def test_substitute_rejects_letters_outside_the_images():
    for w in ((0,), (1, 3), (-3,)):
        with pytest.raises(StructuralError):
            substitute(w, [(1,), (2,)])


# ---------------------------------------------------------------------------
# Nielsen reduction
# ---------------------------------------------------------------------------

@st.composite
def moves_on_reduced_words(draw):
    """Any move, count up to 3, on reduced words that may be conjugates
    (w_j = c y c^-1, so that w_j^count is not reduced as written)."""
    ws = []
    for _ in range(draw(st.integers(2, 3))):
        y = ref_reduce_word(draw(any_words))
        c = ref_reduce_word(draw(short_words))
        ws.append(ref_concat(c, y, ref_invert_word(c)))
    i, j = draw(st.permutations(range(len(ws))))[:2]
    move = (draw(st.sampled_from("RL")), i, j, draw(st.sampled_from((1, -1))),
            draw(st.integers(1, 3)))
    return ws, move


@settings(max_examples=80, deadline=None)
@given(moves_on_reduced_words())
def test_apply_move_matches_reference(case):
    ws, move = case
    expected = list(ws)
    ref_apply_move(expected, move)
    _apply_move(ws, move)
    assert ws == expected


@settings(max_examples=80, deadline=None)
@given(st.one_of(twisted_bases(), automorphism_images(),
                 st.lists(st.lists(letters(2), max_size=6).map(tuple),
                          min_size=2, max_size=2).map(tuple)))
def test_nielsen_reduce_matches_reference(ws):
    final, moves = nielsen_reduce(ws)
    ref_final, ref_moves = ref_nielsen_reduce(ws)
    assert final == ref_final
    assert moves == ref_moves


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def _graphs():
    rose3 = rose_graph(3)
    theta = make_graph(2, [(0, 1), (0, 1), (0, 1)], basepoint=0,
                       marking=[(1, -2), (2, -3)])
    # a tree edge hanging off a rose, plus a loop at its far end
    lollipop = make_graph(2, [(0, 0), (0, 1), (1, 1)], basepoint=0,
                          marking=[(1,), (2, 3, -2)])
    return [rose3, theta, lollipop]


@st.composite
def walks(draw):
    """A random walk on one of the test graphs, backtracking allowed, with
    up to 12000 steps drawn as a repeated short walk when long."""
    g = draw(st.sampled_from(_graphs()))
    links = g.links()
    v = draw(st.integers(0, g.num_vertices - 1))
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        d = draw(st.sampled_from(links[v]))
        steps.append(d)
        v = g.term(d)
    walk = tuple(steps)
    if g.init(walk[0]) == g.term(walk[-1]):
        walk = walk * draw(st.integers(1, 1000))
    return g, walk


@settings(max_examples=150, deadline=None)
@given(walks())
def test_path_endpoints_and_pi1_word_match_reference(case):
    g, walk = case
    assert path_endpoints(g, walk) == ref_path_endpoints(g, walk)
    assert pi1_word(g, walk) == ref_pi1_word(g, walk)
    tree = spanning_tree(g)
    gens = pi1_generators(g, tree)
    assert pi1_word(g, walk, tree, gens) == ref_pi1_word(g, walk, tree, gens)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_graphs()), st.lists(letters(3), min_size=1, max_size=8))
def test_path_endpoints_rejects_broken_paths_like_reference(g, path):
    path = tuple(path)
    try:
        expected = ref_path_endpoints(g, path)
    except StructuralError:
        with pytest.raises(StructuralError):
            path_endpoints(g, path)
    else:
        assert path_endpoints(g, path) == expected


@pytest.mark.parametrize("bad", ["zero", "above", "below"])
def test_marking_letters_outside_the_edges_rejected(bad):
    g = _graphs()[2]
    e = g.num_edges
    letter = {"zero": 0, "above": e + 1, "below": -(e + 1)}[bad]
    marking = [(1,), (2, 3, -2) + (letter,)]
    with pytest.raises(StructuralError):
        make_graph(2, g.edge_ends, basepoint=0, marking=marking)
    with pytest.raises(StructuralError):
        path_endpoints(g, (1, letter))
    with pytest.raises(StructuralError):
        pi1_word(g, (1, letter))
    data = graph_to_json(g)
    data["marking"][1].append(letter)
    with pytest.raises(StructuralError):
        graph_from_json(data)


# ---------------------------------------------------------------------------
# outer normal form
# ---------------------------------------------------------------------------

@st.composite
def conjugated_automorphisms(draw):
    images = draw(automorphism_images(max_length=10))
    rank = len(images)
    u = ref_reduce_word(draw(st.lists(letters(rank), max_size=40)))
    images = tuple(ref_concat(ref_invert_word(u), w, u) for w in images)
    if draw(st.booleans()):
        # unreduced images: normalize_outer reduces them as it goes
        pad = draw(st.lists(letters(rank), min_size=1, max_size=3))
        k = draw(st.integers(0, rank - 1))
        images = images[:k] + (images[k] + tuple(pad) + ref_invert_word(pad),) \
            + images[k + 1:]
    return Automorphism(rank, images)


@settings(max_examples=120, deadline=None)
@given(conjugated_automorphisms())
def test_normalize_outer_matches_reference(aut):
    assert normalize_outer(aut).images == ref_normalize_outer(aut)

"""The word primitives against straightforward reference implementations.

The library reduces, multiplies and substitutes long words with a few slice
and table passes.  The references below do the same work one letter at a
time, as the code did before; every test asks for identical results,
including the Nielsen move log.  Long words (10^4+ letters) are built from
drawn blocks and repeat counts so that hypothesis stays fast.
"""

import json
from collections import deque
from itertools import chain, groupby

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from foldtrack.automorphisms import (
    Automorphism, make_automorphism, normalize_outer, random_automorphism,
    rose_graph,
)
from foldtrack.errors import StructuralError
from foldtrack.graph import (
    graph_from_json, graph_to_json, load_graph, make_graph, path_endpoints,
    pi1_generators, pi1_word, spanning_tree,
)
from foldtrack.graph_map import GraphMap, edgelet_count, map_length, subdivide
from foldtrack.metric import difference_map, estimate_d, slide_normalize
from foldtrack import words
from foldtrack.words import (
    _SHORT_WORD, _apply_move, _cancellation, _check_letters, _invert_reduced,
    _prefix_repeats, _substitute_seams, _suffix_repeats, cyclic_reduce,
    invert_automorphism_words, invert_word, max_common_prefix, nielsen_reduce,
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


def ref_prefix_repeats(w, block):
    b = len(block)
    if b == 0:
        return 0
    r = 0
    pos = 0
    while pos + b <= len(w) and tuple(w[pos:pos + b]) == block:
        r += 1
        pos += b
    return r


def ref_apply_move(ws, move):
    side, i, j, eps, count = move
    wj = ws[j] if eps > 0 else ref_invert_word(ws[j])
    block = wj * count
    if side == "R":
        ws[i] = ref_concat(ws[i], block)
    else:
        ws[i] = ref_concat(block, ws[i])


def ref_seam_blocks(ws, move):
    """The whole blocks w_j^-eps at the seam of w_i, up to the move's
    count: what _best_strict_move carries to _apply_move."""
    side, i, j, eps, count = move
    wj = ws[j] if eps > 0 else ref_invert_word(ws[j])
    if side == "R":
        full = ref_suffix_repeats(ws[i], ref_invert_word(wj))
    else:
        full = ref_suffix_repeats(ref_invert_word(ws[i]), wj)
    return min(full, count)


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
    images = tuple(ref_reduce_word(w) for w in aut.images)

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


def ref_invert_automorphism_words(images):
    """The Nielsen inverse, each elementary map substituted and then reduced
    letter by letter."""
    rank = len(images)
    final, moves = ref_nielsen_reduce(images)
    psi = [None] * rank
    for i, (p,) in enumerate(final):
        psi[abs(p) - 1] = ((i + 1) if p > 0 else -(i + 1),)
    for side, i, j, eps, count in reversed(moves):
        rho = [(k + 1,) for k in range(rank)]
        tail = ((j + 1) if eps > 0 else -(j + 1),) * count
        rho[i] = (i + 1,) + tail if side == "R" else tail + (i + 1,)
        psi = [ref_reduce_word(ref_substitute(w, rho)) for w in psi]
    return tuple(psi)


def ref_difference_map(g, h):
    """The canonical difference map as it was computed before seam-only
    substitution: letter-by-letter pi_1 words, the inverse above, and each
    edge image substituted into the unreduced codomain marking and then
    reduced."""
    tree = spanning_tree(g)
    gens = pi1_generators(g, tree)
    m_inv = ref_invert_automorphism_words(
        [ref_pi1_word(g, p, tree, gens) for p in g.marking])
    emap = tuple(
        () if e in tree
        else ref_reduce_word(ref_substitute(m_inv[gens.index(e)], h.marking))
        for e in g.edge_ids)
    return GraphMap(g, h, (h.basepoint,) * g.num_vertices, emap)


def ref_estimate_d(g, h):
    f = ref_difference_map(g, h)
    candidates = [(map_length(f), f, "canonical")]
    slid = slide_normalize(f)
    if edgelet_count(slid) > 0:
        candidates.append((map_length(slid), slid, "fold-normalized"))
    return min(candidates, key=lambda t: t[0])


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


@st.composite
def long_paths(draw):
    """Words longer than _SHORT_WORD, as marking paths are.  Half are over
    letters of one sign per generator, so that no letter's inverse is in
    the word (the letter-set test); the others are over any letters, some
    reduced and some not (the scan)."""
    if draw(st.booleans()):
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=3,
                              max_size=3))
        alphabet = st.sampled_from([s * a for a, s in enumerate(signs, 1)])
    else:
        alphabet = letters()
    pieces = draw(st.lists(st.tuples(st.lists(alphabet, min_size=1,
                                              max_size=6).map(tuple),
                                     st.integers(1, 2000)),
                           min_size=1, max_size=4))
    w = tuple(chain.from_iterable(b * k for b, k in pieces))
    if draw(st.booleans()):
        w = ref_reduce_word(w)
    assume(len(w) > _SHORT_WORD)
    return w


def stored_marking_path(w):
    """The first marking path make_graph stores for the rank-3 rose marked
    by w and the petals x_2, x_3."""
    return make_graph(1, [(0, 0)] * 3, basepoint=0,
                      marking=[w, (2,), (3,)]).marking[0]


@settings(max_examples=100, deadline=None)
@given(long_paths())
def test_letter_set_reduction_matches_reference(w):
    expected = ref_reduce_word(w)
    if not expected:
        with pytest.raises(StructuralError, match="trivial marking path"):
            stored_marking_path(w)
        return
    assert stored_marking_path(w) == expected
    assert stored_marking_path(list(w)) == expected
    if expected == w:
        assert stored_marking_path(w) is w  # a reduced tuple is not copied


@pytest.mark.parametrize("w", [
    (2,) + (-1,) * 100,                     # a twist marking
    (1, 2) * 40 + (-2, 3),                  # one cancelling pair, near the end
    (1, 2, 3) * 30 + (-3, -2, -1) * 30,     # inverse pairs, all cancelling
    (1, 2, -1, -2) * 30,                    # inverse pairs, reduced
])
def test_letter_set_reduction_cases(w):
    expected = ref_reduce_word(w)
    for path in (w, list(w)):
        if expected:
            assert stored_marking_path(path) == expected
        else:
            with pytest.raises(StructuralError, match="trivial marking path"):
                stored_marking_path(path)


def test_letter_set_reduction_of_unhashable_letters():
    # integer-like letters that _check_letters accepts but set() refuses
    w = tuple(map(np.array, (2,) + (1, -1) * 40 + (-1,) * 10))
    assert [int(a) for a in stored_marking_path(w)] == [2] + [-1] * 10


@pytest.mark.parametrize("w", [(1, -1), (2, 1, 3, -3, -1, -2),
                               (1, 2) * 40 + (-2, -1) * 40])
def test_marking_path_reducing_to_the_empty_word_is_trivial(w):
    """A closed path that reduces to the empty word marks no petal, from
    Python objects and from graph JSON alike."""
    with pytest.raises(StructuralError, match="trivial marking path"):
        stored_marking_path(w)
    data = graph_to_json(rose_graph(3))
    data["marking"][0] = list(w)
    with pytest.raises(StructuralError, match="trivial marking path"):
        graph_from_json(data)


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


@st.composite
def one_letter_runs(draw):
    """(w, (x,)): w starts or ends with a run of x, whose length straddles
    _SHORT_WORD or is far past it, or is 0; the run is the whole word, or
    is followed (preceded) by a letter other than x and a tail that may
    hold x again (then the count of x is no run, and the gallop counts
    it)."""
    x = draw(letters())
    k = draw(st.one_of(st.integers(0, 3 * _SHORT_WORD),
                       st.integers(_SHORT_WORD - 2, _SHORT_WORD + 2),
                       st.integers(0, 12000)))
    rest = ()
    if draw(st.booleans()):
        y = draw(letters().filter(lambda a: a != x))
        tail = draw(st.one_of(short_words, long_words(max_repeat=200)))
        if draw(st.booleans()):
            cut = draw(st.integers(0, len(tail)))
            tail = tail[:cut] + (x,) * draw(st.integers(1, 3)) + tail[cut:]
        rest = (y,) + tail
    w = (x,) * k + rest
    return (w[::-1] if draw(st.booleans()) else w), (x,)


def run_caps(w):
    """A cap on the count of repeats: none, or one straddling _SHORT_WORD or
    the word's length."""
    return st.one_of(st.none(), st.integers(0, 3 * _SHORT_WORD),
                     st.integers(0, len(w) + 2))


@settings(max_examples=150, deadline=None)
@given(st.one_of(repeated_blocks(), st.tuples(any_words, blocks),
                 one_letter_runs()),
       st.data())
def test_suffix_repeats_matches_reference(pair, data):
    w, block = pair
    most = data.draw(run_caps(w))
    want = ref_suffix_repeats(w, block)
    assert _suffix_repeats(w, block, most) == \
        (want if most is None else min(want, most))


@settings(max_examples=150, deadline=None)
@given(st.one_of(repeated_blocks().map(lambda p: (p[0][::-1], p[1][::-1])),
                 st.tuples(any_words, blocks), one_letter_runs()),
       st.data())
def test_prefix_repeats_matches_reference(pair, data):
    w, block = pair
    most = data.draw(run_caps(w))
    want = ref_prefix_repeats(w, block)
    assert _prefix_repeats(w, block, most) == \
        (want if most is None else min(want, most))


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
    for w in ((0,), (1, 3), (-3,), (1, 0, 2), (4,), (-5,), (1.5,), ("a",),
              ([1],)):
        with pytest.raises(StructuralError):
            substitute(w, [(1,), (2,)])


@st.composite
def seam_substitutions(draw):
    """(ws, images): reduced words and reduced images whose seams cancel.

    Images share a stretch c at their ends (c, c^-1, y c, c^-1 y), so that
    a seam can cancel whole images; or they are single letters that need
    not be injective, such as ((1,), (-1,)); or a signed permutation; or
    random, possibly empty.  Either the images or the words are long, not
    both, so that the letter-by-letter reference stays fast."""
    rank = draw(st.integers(1, 3))
    long_images = draw(st.booleans())
    stretch = long_words(rank, 500) if long_images \
        else st.lists(letters(rank), min_size=1, max_size=6).map(tuple)
    kind = draw(st.sampled_from(("shared", "letters", "permutation", "any")))
    if kind == "shared":
        c = ref_reduce_word(draw(stretch))
        ends = st.sampled_from(((), c, ref_invert_word(c)))
        images = []
        for _ in range(rank):
            x = ref_reduce_word(draw(ends) + draw(st.lists(
                letters(rank), max_size=3).map(tuple)) + draw(ends))
            images.append(x or (rank,))
    elif kind == "letters":
        images = [(draw(letters(rank)),) for _ in range(rank)]
    elif kind == "permutation":
        perm = draw(st.permutations(range(1, rank + 1)))
        images = [(draw(st.sampled_from((1, -1))) * a,) for a in perm]
    else:
        images = [ref_reduce_word(draw(st.one_of(
            st.lists(letters(rank), max_size=6).map(tuple), stretch)))
            for _ in range(rank)]
    words = st.lists(letters(rank), max_size=12).map(tuple)
    if not long_images:
        words = st.one_of(words, long_words(rank, 1000))
    ws = draw(st.lists(words.map(ref_reduce_word), min_size=1, max_size=3))
    return tuple(ws), tuple(images)


@settings(max_examples=150, deadline=None)
@given(seam_substitutions())
def test_seam_substitution_matches_reduced_substitution(case):
    ws, images = case
    expected = tuple(ref_reduce_word(ref_substitute(w, images)) for w in ws)
    assert _substitute_seams(ws, images) == expected
    assert tuple(reduce_word(substitute(w, images)) for w in ws) == expected


def test_seam_substitution_cancels_whole_images():
    c = (1, 2) * 3000
    images = (c, invert_word(c) + (1,))
    assert _substitute_seams(((1, 2, 1, 2),), images) == \
        (ref_reduce_word(ref_substitute((1, 2, 1, 2), images)),)
    assert _substitute_seams(((1, 2), (2, 1), (-1, -2)), ((1,), (-1,))) == \
        ((), (), ())


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


def assert_apply_move_matches_reference(ws, move):
    """_apply_move, counting the whole blocks at the seam itself and taking
    them as counted by the reference, against ref_apply_move."""
    expected = list(ws)
    ref_apply_move(expected, move)
    counted, carried = list(ws), list(ws)
    _apply_move(counted, move)
    _apply_move(carried, move, ref_seam_blocks(ws, move))
    assert counted == expected, (ws, move)
    assert carried == expected, (ws, move)


@settings(max_examples=80, deadline=None)
@given(moves_on_reduced_words())
def test_apply_move_matches_reference(case):
    assert_apply_move_matches_reference(*case)


def _move_cases(block, side, eps):
    """[w_i, w_j] and moves (side, 0, 1, eps, count): w_j is `block`, and
    w_i is 4 4 with r whole blocks w_j^-eps (r <= 3) and then `partial`
    letters of one more at its seam, so that the move's product cancels
    r blocks and a part of the next.  The counts run below, to and above
    r.  Words that are not reduced are left out: a block c y c^-1 repeats
    only once in a reduced word."""
    inv = ref_invert_word(block) if eps > 0 else block
    for r in range(4):
        for partial in (0, 1):
            if side == "R":
                wi = (4, 4) + inv[len(inv) - partial:] + inv * r
            else:
                wi = inv * r + inv[:partial] + (4, 4)
            if ref_reduce_word(wi) != wi:
                continue
            for count in sorted({1, r, r + 1, r + 3} - {0}):
                yield [wi, block], (side, 0, 1, eps, count)


@pytest.mark.parametrize("block", [(1,), (1, 2), (3, 1, 2, -3)])
@pytest.mark.parametrize("side", "RL")
@pytest.mark.parametrize("eps", (1, -1))
def test_apply_move_cases_match_reference(block, side, eps):
    cases = list(_move_cases(block, side, eps))
    assert len(cases) >= 7
    for ws, move in cases:
        assert_apply_move_matches_reference(ws, move)


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


LONG = (1, -2, 3) * 5000


@pytest.mark.parametrize("word", [
    (2, 2.0), ("a",), ([1],), (None,), (0,), (4,), (-4,), (1.5, -0.5),
    (1, 2, 0), LONG + (0,), LONG + (4,), (-4,) + LONG, LONG + (2.0,),
    (np.array(0),), (np.array(4),), (np.array([1]),)])
def test_check_letters_refuses(word):
    """At rank 3: a letter that is not an integer, is 0, or lies beyond
    +-3 is refused, wherever it sits in the word."""
    with pytest.raises(StructuralError):
        _check_letters(word, 3)


@pytest.mark.parametrize("word", [
    (True,), (np.int64(2), -3), (np.True_, np.int64(-1)), LONG,
    LONG + (np.int64(-3),), (np.array(1), 2)])
def test_check_letters_passes_integer_letters(word):
    """bool, numpy integers and 0-d integer arrays (which do not hash) are
    integers that index a list, as the letter tables do."""
    _check_letters(word, 3)


@pytest.mark.parametrize("ids", [(1, 2), (7, 9)])
@pytest.mark.parametrize("letter", [0, 3, -3, 8, 1.5, "a", [1], None])
def test_graph_from_json_rejects_marking_letters_naming_no_edge(ids, letter):
    """Letters 0, +-(E+1), an id between the JSON ids, and non-integers
    are refused whether the JSON ids are 1..E or not."""
    data = {"rank": 2, "vertices": [0], "basepoint": 0,
            "edges": [{"id": i, "from": 0, "to": 0} for i in ids],
            "marking": [[ids[0]], [ids[1], letter]]}
    with pytest.raises(StructuralError):
        graph_from_json(data)


@pytest.mark.parametrize("ids", [(1, 2), (1.0, 2.0), (7, 9)])
def test_graph_from_json_marking_letters_become_ints(ids):
    """A letter equal to a signed JSON id, such as true or 2.0 where the id
    is 1 or 2, names that edge and is stored as an int."""
    a, b = ids
    for letters, expected in (([a, True if a == 1 else a, -b], (1, 1, -2)),
                              ([float(a), -float(b)], (1, -2)),
                              ([a, b], (1, 2))):
        data = {"rank": 2, "vertices": [0], "basepoint": 0,
                "edges": [{"id": i, "from": 0, "to": 0} for i in ids],
                "marking": [letters, [b]]}
        g = graph_from_json(data)
        assert g.marking[0] == expected
        assert [type(x) for p in g.marking for x in p] == \
            [int] * (len(expected) + 1)
        assert graph_to_json(g)["marking"] == [list(expected), [2]]


def test_graph_from_json_renumbers_json_ids():
    g = _graphs()[2]
    data = graph_to_json(g)
    assert graph_from_json(data) == g
    new_id = {1: 30, 2: 10, 3: 20}
    for d in data["edges"]:
        d["id"] = new_id[d["id"]]
    data["marking"] = [[new_id[a] if a > 0 else -new_id[-a] for a in p]
                       for p in data["marking"]]
    h = graph_from_json(data)
    # edges are renumbered in the order of their JSON ids
    order = {10: 1, 20: 2, 30: 3}
    assert h.edge_ends == tuple(g.edge_ends[e - 1]
                                for e in sorted(new_id, key=new_id.get))
    assert h.marking == tuple(
        tuple(order[new_id[a]] if a > 0 else -order[new_id[-a]] for a in p)
        for p in g.marking)


def test_graph_from_json_refuses_duplicate_vertex_ids():
    data = {"rank": 1, "vertices": [0, 0], "basepoint": 0,
            "edges": [{"id": 1, "from": 0, "to": 0}], "marking": [[1]]}
    with pytest.raises(StructuralError, match="duplicate vertex id"):
        graph_from_json(data)


def test_graph_from_json_refuses_duplicate_edge_ids():
    """Two edges with id 1 would leave the marking [[1], [1]] naming
    whichever edge sorted last."""
    data = {"rank": 2, "vertices": [0], "basepoint": 0,
            "edges": [{"id": 1, "from": 0, "to": 0}] * 2,
            "marking": [[1], [1]]}
    with pytest.raises(StructuralError, match="duplicate edge id"):
        graph_from_json(data)


def _rose_text(ids=(1, 2), vertex="0", marking="[[1], [2, -1, -1]]"):
    edges = ", ".join('{"id": %s, "from": %s, "to": %s}' % (i, vertex, vertex)
                      for i in ids)
    return ('{"rank": 2, "vertices": [%s], "edges": [%s], "basepoint": %s, '
            '"marking": %s}' % (vertex, edges, vertex, marking))


@pytest.mark.parametrize("text", [
    pytest.param(_rose_text(), id="int-letters"),
    pytest.param(_rose_text(marking="[[true], [2, -1]]"), id="true"),
    pytest.param(_rose_text(marking="[[1], [2.0, -1]]"), id="2.0"),
    pytest.param(_rose_text(marking="[[1], [2, NaN]]"), id="NaN"),
    pytest.param(_rose_text(vertex='"true"'), id="string-true"),
    pytest.param(_rose_text(ids=(7, 9), marking="[[7], [9, -7, -7]]"),
                 id="ids-7-9"),
    pytest.param(_rose_text(ids=(7, 9), marking="[[7], [9, 8]]"),
                 id="ids-7-9-letter-8"),
    pytest.param(_rose_text(marking='[[1], [2, "a"]]'), id="letter-a"),
    pytest.param(_rose_text(ids=(7, 9), marking='[[7], [9, "a"]]'),
                 id="ids-7-9-letter-a"),
    pytest.param(_rose_text(marking="[[1], [2, -2]]"), id="trivial"),
])
def test_load_graph_matches_graph_from_json(tmp_path, text):
    """load_graph skips the type pass when the decoder met only int
    numbers and the text holds no true or false; a file gives the Graph,
    or the StructuralError, that graph_from_json gives for its dict."""
    path = tmp_path / "g.json"
    path.write_text(text, encoding="utf-8")

    def outcome(read, arg):
        try:
            g = read(arg)
        except StructuralError as exc:
            return str(exc)
        assert all(type(a) is int for p in g.marking for a in p)
        return g

    want = outcome(graph_from_json, json.loads(text))
    assert outcome(load_graph, path) == want


def test_metric_command_refuses_a_bad_marking_letter(tmp_path):
    from foldtrack.cli import main
    g0 = tmp_path / "g0.json"
    bad = tmp_path / "bad.json"
    data = graph_to_json(rose_graph(2))
    g0.write_text(json.dumps(data))
    data["marking"][1].append(1.5)
    bad.write_text(json.dumps(data))
    assert main(["metric", str(g0), str(bad)]) == 2


# ---------------------------------------------------------------------------
# difference maps and metric estimates
# ---------------------------------------------------------------------------

TWIST_LABELINGS = [(petal, sign, left) for petal in (1, 2) for sign in (1, -1)
                   for left in (False, True)]


def twist_graph(m, petal, sign, left):
    """The rank-2 rose from JSON, petal x_t remarked to x_t x_o^(sign m), or
    to x_o^(sign m) x_t when `left`."""
    power = [sign * (3 - petal)] * m
    marking = [[1], [2]]
    marking[petal - 1] = power + [petal] if left else [petal] + power
    return graph_from_json({
        "rank": 2, "vertices": [0], "basepoint": 0, "marking": marking,
        "edges": [{"id": 1, "from": 0, "to": 0}, {"id": 2, "from": 0, "to": 0}]})


def _base_graphs():
    return _graphs() + [subdivide(rose_graph(2), 1, 3)[0],
                        subdivide(_graphs()[1], 2, 2)[0]]


@st.composite
def remarked_graphs(draw, rank, bases=None):
    """A graph of rank `rank` among `bases` (the test graphs, one vertex or
    several, by default), remarked through a random automorphism.  The new
    marking paths are the old marking loops joined as they are, with
    backtracks inserted, so they are unreduced."""
    g = draw(st.sampled_from([b for b in bases or _base_graphs()
                              if len(b.marking) == rank]))
    aut = random_automorphism(rank, draw(st.integers(0, 8)),
                              np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    links = g.links()
    paths = []
    for w in aut.images:
        p = list(ref_substitute(w, g.marking))
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(p)))
            v = g.basepoint if i == 0 else g.term(p[i - 1])
            d = draw(st.sampled_from(links[v]))
            p[i:i] = [d, -d]
        paths.append(tuple(p))
    return make_graph(g.num_vertices, g.edge_ends, basepoint=g.basepoint,
                      marking=paths)


@st.composite
def graph_pairs(draw):
    rank = draw(st.integers(2, 3))
    return draw(remarked_graphs(rank)), draw(remarked_graphs(rank))


@st.composite
def marked_rose_pairs(draw):
    rank = draw(st.integers(2, 4))
    roses = [rose_graph(rank)]
    return draw(remarked_graphs(rank, roses)), draw(remarked_graphs(rank, roses))


def assert_estimate_matches_reference(g, h):
    f = difference_map(g, h)
    ref = ref_difference_map(g, h)
    assert f.vertex_map == ref.vertex_map
    assert f.edge_map == ref.edge_map
    est = estimate_d(g, h)
    value, witness, method = ref_estimate_d(g, h)
    assert (est.value, est.method) == (value, method)
    assert est.witness.vertex_map == witness.vertex_map
    assert est.witness.edge_map == witness.edge_map


@settings(max_examples=80, deadline=None)
@given(graph_pairs())
def test_difference_map_matches_reference(pair):
    g, h = pair
    assert_estimate_matches_reference(g, h)
    assert_estimate_matches_reference(h, g)


@settings(max_examples=150, deadline=None)
@given(marked_rose_pairs())
def test_estimate_on_a_rose_reaches_least_conjugate_total(pair):
    """On a one-vertex domain the witness total is the least total of the
    conjugates of the canonical map's images: that total is convex in the
    conjugator, so the vertex image descent cannot stop above it."""
    g, h = pair
    images = difference_map(g, h).edge_map
    least = ref_normalize_outer(Automorphism(len(images), images))
    assert estimate_d(g, h).total_edge_length == sum(map(len, least))


@pytest.mark.parametrize("labeling", TWIST_LABELINGS)
def test_twist_estimates_match_reference(labeling):
    g0 = twist_graph(0, *labeling)
    for m in (1, 2, 65, 2000):
        gm = twist_graph(m, *labeling)
        assert_estimate_matches_reference(g0, gm)
        assert_estimate_matches_reference(gm, g0)


@pytest.mark.parametrize("labeling", TWIST_LABELINGS)
def test_twist_move_logs_match_reference(labeling):
    ws = twist_graph(2000, *labeling).marking
    assert nielsen_reduce(ws) == ref_nielsen_reduce(ws)


@pytest.mark.parametrize("m", [1, _SHORT_WORD, _SHORT_WORD + 1, 20000])
@pytest.mark.parametrize("petal, sign, left", [
    (1, 1, False), (1, 1, True), (1, -1, False), (1, -1, True),
    (2, 1, False), (2, 1, True), (2, -1, False), (2, -1, True)])
def test_twist_inverse_in_closed_form(petal, sign, left, m):
    """The benchmark's twist marking x_t -> x_t x_o^(sign m) (or
    x_o^(sign m) x_t) is inverted by x_t -> x_t x_o^(-sign m) (or its left
    form), after one Nielsen move of count m."""
    t, o = petal, 3 - petal
    ws = [(1,), (2,)]
    inverse = [(1,), (2,)]
    power, back = (sign * o,) * m, (-sign * o,) * m
    ws[t - 1] = power + (t,) if left else (t,) + power
    inverse[t - 1] = back + (t,) if left else (t,) + back
    assert _invert_reduced(ws) == tuple(inverse)
    move = ("L" if left else "R", t - 1, o - 1, -sign, m)
    assert nielsen_reduce(ws) == (((1,), (2,)), [move])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(TWIST_LABELINGS), st.sampled_from(TWIST_LABELINGS),
       st.integers(0, 1500), st.integers(0, 1500))
def test_estimates_between_twists_match_reference(a, b, m, k):
    assert_estimate_matches_reference(twist_graph(m, *a), twist_graph(k, *b))


@settings(max_examples=60, deadline=None)
@given(st.one_of(twisted_bases(), automorphism_images()))
def test_invert_automorphism_words_matches_reference(ws):
    # a conjugator may name a letter beyond the rank: then ws is no basis
    assume(max(map(abs, chain.from_iterable(ws)), default=0) <= len(ws))
    assert invert_automorphism_words(ws) == ref_invert_automorphism_words(ws)


def conjugated_twist(m, u=(2, 1, 2)):
    """(u x_1 u^-1, u x_2 x_1^m u^-1): no whole block x_1 sits at a seam,
    so Nielsen reduction strips the power one letter per move."""
    return tuple(ref_concat(u, w, ref_invert_word(u))
                 for w in ((1,), (2,) + (1,) * m))


def test_conjugated_twist_inverse_matches_reference():
    ws = conjugated_twist(300)
    inverse = invert_automorphism_words(ws)
    assert inverse == ref_invert_automorphism_words(ws)
    assert [ref_reduce_word(ref_substitute(w, ws)) for w in inverse] == \
        [(1,), (2,)]


def test_inverse_assembly_substitutes_once_per_run(monkeypatch):
    ws = conjugated_twist(4000)
    _, moves = nielsen_reduce(ws)
    runs = sum(1 for _ in groupby(moves, key=lambda move: move[:4]))
    assert len(moves) > 4000 and runs < 10
    calls = []
    substitute_seams = words._substitute_seams

    def counted(ws, images):
        calls.append(images)
        return substitute_seams(ws, images)

    monkeypatch.setattr(words, "_substitute_seams", counted)
    inverse = _invert_reduced(ws)
    assert len(calls) == runs
    assert substitute_seams(inverse, ws) == ((1,), (2,))


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
        # unreduced images: make_automorphism reduces them
        pad = draw(st.lists(letters(rank), min_size=1, max_size=3))
        k = draw(st.integers(0, rank - 1))
        images = images[:k] + (images[k] + tuple(pad) + ref_invert_word(pad),) \
            + images[k + 1:]
    return make_automorphism(images)


@settings(max_examples=120, deadline=None)
@given(conjugated_automorphisms())
def test_normalize_outer_matches_reference(aut):
    assert normalize_outer(aut).images == ref_normalize_outer(aut)


@pytest.mark.parametrize("images, expected", [
    (((1, 2, -2), (2,)), ((1,), (2,))),
    (((1,), (2, 3, -3), (3, -1, 1)), ((1,), (2,), (3,))),
])
def test_normalize_outer_of_unreduced_images(images, expected):
    """Built from unreduced words through make_automorphism, the images are
    reduced, and the descent and the plateau walk start from them, not from
    the unreduced input and its larger total."""
    aut = make_automorphism(images)
    assert normalize_outer(aut).images == expected
    assert ref_normalize_outer(aut) == expected

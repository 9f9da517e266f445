"""Free-group words and Nielsen-transformation machinery.

Words over a rank-n free group are tuples of nonzero ints: letter +i is the
i-th generator, -i its inverse.  The same encoding doubles as edge paths on
graphs (see graph.py), so the reduction helpers here are shared.
"""

from collections import deque
from itertools import chain, groupby, islice
from operator import add, index, neg

from .errors import CapacityError, CertificationError, StructuralError

# Search caps for the equal-length plateau phase of Nielsen reduction.
_PLATEAU_STATE_CAP = 200_000

# Longest word substitute and random_automorphism build: an input whose words
# grow past it is refused with CapacityError before it exhausts memory (as a
# tuple, 5 * 10^7 letters take 400 MB).
WORD_LENGTH_CAP = 50_000_000

# Words up to this length are reduced letter by letter: setting up the
# scan for a cancelling pair costs more than the loop.  Runs of up to this
# many one-letter blocks are galloped, not counted over the whole word.
_SHORT_WORD = 64


def _check_letters(word, n, ints=False):
    """Raise StructuralError unless every letter of a nonempty word is an
    integer in +-1..+-n, so that the letters can index lists of length
    2n + 1; return the set of letters, or None when they do not hash.

    One pass over the word for the sum, which is an integer only when every
    letter is, one for the set of letters, and none over a table: then the
    least and greatest letters and a search for 0 in the set, which a
    marking word holds only a few of.  Integer-like letters that do not
    hash (0-d numpy arrays) are read in the word itself.  With `ints` the
    caller knows that no letter is a number other than an int, and the sum
    is skipped: a letter that is no number (a str, None, a list) fails the
    comparisons with the bounds."""
    try:
        if not ints:
            index(sum(word))
        try:
            letters = set(word)
        except TypeError:
            letters = None
        seen = word if letters is None else letters
        ok = -n <= min(seen) and max(seen) <= n and 0 not in seen
    except TypeError:
        ok = False
    if not ok:
        raise StructuralError("word names a letter outside +-1..+-%d" % n)
    return letters


def reduce_word(letters):
    """Free reduction of a sequence: cancel adjacent inverse pairs.

    Returns a tuple.  A long word is first scanned once for an adjacent
    pair a, -a (their sum is 0); a reduced tuple is returned as it is,
    without a copy.
    """
    if len(letters) > _SHORT_WORD:
        w = letters if type(letters) is tuple else tuple(letters)
        if 0 not in map(add, w, w[1:]):
            return w
    out = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def invert_word(w):
    return tuple(map(neg, reversed(w)))


def _longest(n, same):
    """Largest k <= n with same(0, k), by galloping then bisection.

    same(lo, hi) compares positions lo..hi-1 and is only asked once
    positions 0..lo-1 are known to match, so finding k compares O(k)
    letters in O(log k) slice comparisons.
    """
    lo, step = 0, 1
    while lo < n:
        hi = min(lo + step, n)
        if not same(lo, hi):
            break
        lo = hi
        step *= 2
    else:
        return lo
    hi -= 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if same(lo, mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _cancellation(u, v):
    """Length of the maximal cancellation in the product u*v."""
    n = min(len(u), len(v))
    if not n or u[-1] != -v[0]:
        return 0
    end = len(u)
    return _longest(n, lambda lo, hi:
                    u[end - hi:end - lo] == invert_word(v[lo:hi]))


def max_common_prefix(u, v):
    n = min(len(u), len(v))
    if not n or u[0] != v[0]:
        return 0
    return _longest(n, lambda lo, hi: u[lo:hi] == v[lo:hi])


def _common_suffix(u, v):
    n = min(len(u), len(v))
    if not n or u[-1] != v[-1]:
        return 0
    eu, ev = len(u), len(v)
    return _longest(n, lambda lo, hi:
                    u[eu - hi:eu - lo] == v[ev - hi:ev - lo])


def _suffix_repeats(w, block, most=None):
    """Max r with w ending in block repeated r times, and r <= most if
    given.

    A one-letter block x, when more than _SHORT_WORD repeats may count, is
    counted in C: when x does not occur before the last c = w.count(x)
    letters, those letters are the run.  Otherwise, and for longer blocks,
    the run is galloped."""
    b = len(block)
    if b == 0:
        return 0
    end = len(w)
    n = end // b if most is None else min(end // b, most)
    if b == 1 and n > _SHORT_WORD:
        c = w.count(block[0])
        try:
            w.index(block[0], 0, end - c)
        except ValueError:
            return min(c, n)
    return _longest(n, lambda lo, hi:
                    w[end - hi * b:end - lo * b] == block * (hi - lo))


def _prefix_repeats(w, block, most=None):
    """Max r with w starting with block repeated r times, and r <= most if
    given; a one-letter block is counted as in _suffix_repeats, when x does
    not occur after the first c = w.count(x) letters."""
    b = len(block)
    if b == 0:
        return 0
    n = len(w) // b if most is None else min(len(w) // b, most)
    if b == 1 and n > _SHORT_WORD:
        c = w.count(block[0])
        try:
            w.index(block[0], c)
        except ValueError:
            return min(c, n)
    return _longest(n, lambda lo, hi:
                    w[lo * b:hi * b] == block * (hi - lo))


def _product(u, v):
    """Reduced product of two reduced words: they cancel only at the seam."""
    k = _cancellation(u, v)
    return u[:len(u) - k] + v[k:] if k else u + v


def _power(w, count):
    """Reduced w^count (count >= 1) of a reduced word w = c y c^-1 with y
    cyclically reduced: c y^count c^-1."""
    if count == 1:
        return w
    t = _cancellation(w, w)
    return w[:t] + w[t:len(w) - t] * count + w[len(w) - t:]


def cyclic_reduce(w):
    w = reduce_word(w)
    k = _cancellation(w, w)
    return w[k:len(w) - k] if k else w


def conjugate(w, u):
    """u * w * u^-1, reduced."""
    return reduce_word(u + w + invert_word(u))


class _ImageTable(dict):
    """Signed letter -> image word of an endomorphism; the image of -a is
    inverted from the image of a the first time it is read."""

    __slots__ = ()

    def __missing__(self, a):
        if a >= 0 or -a not in self:
            raise StructuralError("letter %r names no generator" % (a,))
        inverse = self[a] = invert_word(self[-a])
        return inverse


def _check_capacity(parts, images):
    if len(parts) * max(map(len, images), default=0) > WORD_LENGTH_CAP:
        n = sum(map(len, parts))
        if n > WORD_LENGTH_CAP:
            raise CapacityError(
                "substitution would build a %d-letter word (cap %d)"
                % (n, WORD_LENGTH_CAP))


def substitute(w, images):
    """Apply the endomorphism x_i -> images[i-1] to a word.  Not reduced.

    A letter that names no generator raises StructuralError.  Raises
    CapacityError when the output would exceed WORD_LENGTH_CAP."""
    table = _ImageTable(enumerate(images, 1))
    try:
        parts = list(map(table.__getitem__, w))
    except TypeError:
        raise StructuralError("word has a letter that names no generator"
                              ) from None
    _check_capacity(parts, images)
    return tuple(chain.from_iterable(parts))


def substitute_reduced(w, images):
    return reduce_word(substitute(w, images))


def _image_table(images, used):
    """Image words indexed by signed letter: table[a] is the image of a,
    table[-a] its inverse when the letter -a is in the set `used` (None
    otherwise), table[0] None.  A list lookup does not hash, so no letter
    costs more than another (in CPython hash(-1) == hash(-2), and a dict
    keyed by signed letters that holds -1 probes past it for -2)."""
    table = [None] * (2 * len(images) + 1)
    for a, w in enumerate(images, 1):
        table[a] = w
        if -a in used:
            table[-a] = invert_word(w)
    return table


def _substitute_seams(ws, images):
    """reduce_word(substitute(w, images)) for each w of ws, where the words
    and the images are reduced and their letters checked.

    Only the seams between consecutive images can cancel.  The identity
    returns the words as they are.  Otherwise the seams are read off the
    images' end letters in one pass over w; a word whose seams do not
    cancel is joined without a scan (a signed permutation's seams never
    do, and a one-letter word's image is returned without a copy), and one
    whose seams do is joined image by image, cancelling at each seam.
    An image is inverted only when some word reads its inverse: the
    letters the words use are collected in one pass, and the end letters of
    an inverse are those of the image, negated and swapped.
    """
    if all(len(x) == 1 and x[0] == a for a, x in enumerate(images, 1)):
        return tuple(ws)
    if not all(images):
        return tuple(reduce_word(substitute(w, images)) for w in ws)
    table = _image_table(images, set().union(*ws))
    heads = [0] * len(table)
    tails = [0] * len(table)
    for a, x in enumerate(images, 1):
        heads[a], tails[a] = x[0], x[-1]
        heads[-a], tails[-a] = -x[-1], -x[0]
    out = []
    for w in ws:
        parts = list(map(table.__getitem__, w))
        _check_capacity(parts, images)
        if 0 not in map(add, map(tails.__getitem__, w),
                        map(heads.__getitem__, islice(w, 1, None))):
            out.append(parts[0] if len(parts) == 1
                       else tuple(chain.from_iterable(parts)))
            continue
        acc = []
        for p in parts:
            if acc and acc[-1] == -p[0]:
                k, m = 1, min(len(acc), len(p))
                while k < m and acc[-1 - k] == -p[k]:
                    k += 1
                del acc[-k:]
                acc.extend(p[k:])
            else:
                acc.extend(p)
        out.append(tuple(acc))
    return tuple(out)


def _descend(images, dirs):
    """Slide one vertex image while that shortens the edge images, and
    return the last letter slid across (None when nothing slides).

    `images` is a list of reduced edge paths, indexed by edge id - 1 and
    changed in place; `dirs` are the directions at the vertex (e where edge
    e starts there, -e where it ends).  A slide across x prepends x^-1 to
    every direction's image, so the total drops exactly when more than half
    of the directions start with x, not counting a collapsed loop, which
    stays collapsed.  First letters are read off the images' end letters.
    A slide crosses at once the longest prefix c shared by the directions
    starting with x: they lose c and the others gain c^-1, which cannot
    cancel.
    """
    last = None
    while True:
        firsts = [(p[0] if d > 0 else -p[-1]) if (p := images[abs(d) - 1])
                  else 0 for d in dirs]
        heads = sorted(filter(None, firsts))
        # a letter starting more than half of them is the median first letter
        x = heads[len(heads) // 2] if heads else None
        counted = len(dirs)
        if 0 in firsts:
            counted -= sum(-d in dirs for d, a in zip(dirs, firsts) if not a)
        if x is None or 2 * firsts.count(x) <= counted:
            return last
        xs = [images[d - 1] if d > 0 else invert_word(images[-d - 1])
              for d, a in zip(dirs, firsts) if a == x]
        k = _longest(min(map(len, xs)),
                     lambda lo, hi: len({w[lo:hi] for w in xs}) == 1)
        c = xs[0][:k]
        inv = invert_word(c)
        for d, a in zip(dirs, firsts):
            if not a and -d in dirs:
                continue  # a collapsed loop stays collapsed
            p = images[abs(d) - 1]
            if d > 0:
                images[d - 1] = p[k:] if a == x else inv + p
            else:
                images[-d - 1] = p[:len(p) - k] if a == x else p + c
        last = c[-1]


# ---------------------------------------------------------------------------
# Nielsen reduction
# ---------------------------------------------------------------------------
#
# A move is a tuple (side, i, j, eps, count):
#   side "R": w_i <- w_i * w_j^eps, `count` times
#   side "L": w_i <- w_j^eps * w_i, `count` times
# Moves always have i != j and leave w_j untouched, so repeated application
# has the closed form w_i * w_j^(eps*count) (resp. left).


def _apply_move(ws, move, blocks=None):
    """Apply a move to a list of reduced words.  The whole blocks w_j^-eps
    at the seam of w_i, up to `count` of them, are cut off with one slice;
    the rest of the power is multiplied on, cancelling only at its seam.
    `blocks` is the number of those whole blocks when the caller has
    counted them already; otherwise they are counted here."""
    side, i, j, eps, count = move
    x, inv = ws[j], invert_word(ws[j])
    if eps < 0:
        x, inv = inv, x
    wi = ws[i]
    if side == "R":
        k = _suffix_repeats(wi, inv, count) if blocks is None else blocks
        wi = wi[:len(wi) - k * len(x)]
    else:
        k = _prefix_repeats(wi, inv, count) if blocks is None else blocks
        wi = wi[k * len(x):]
    if k < count:
        block = _power(x, count - k)
        wi = _product(wi, block) if side == "R" else _product(block, wi)
    ws[i] = wi


def _seam(side, eps, wi, x):
    """Cancellation in wi * x^eps (side R) or x^eps * wi (side L), read off
    the words without inverting x."""
    if side == "R":
        return _cancellation(wi, x) if eps > 0 else _common_suffix(wi, x)
    return _cancellation(x, wi) if eps > 0 else max_common_prefix(x, wi)


def _best_strict_move(ws):
    """First move (deterministic scan order) that strictly shortens the total,
    batched to its maximal repeat count, and the number of whole blocks
    w_j^-eps at the seam of w_i, for _apply_move; None when there is none.

    Batching counts those whole blocks rather than concatenating
    repeatedly, so that long geometric-progression words (marking twists)
    reduce in linear time.  Each candidate is first judged by its seam,
    which starts with the end letters; w_j is inverted only for the move
    that is returned.
    """
    n = len(ws)
    for i in range(n):
        wi = ws[i]
        if not wi:
            continue
        for j in range(n):
            x = ws[j]
            if i == j or not x:
                continue
            lj = len(x)
            for side in ("R", "L"):
                for eps in (1, -1):
                    if 2 * _seam(side, eps, wi, x) <= lj:
                        continue
                    inv_wj = invert_word(x) if eps > 0 else x
                    if side == "R":
                        full = _suffix_repeats(wi, inv_wj)
                    else:
                        full = _prefix_repeats(wi, inv_wj)
                    if full == 0:
                        return (side, i, j, eps, 1), 0
                    # After stripping `full` whole blocks one more partial
                    # reduction may remain; probe it cheaply.
                    rest = wi[:len(wi) - full * lj] if side == "R" \
                        else wi[full * lj:]
                    extra = 1 if 2 * _seam(side, eps, rest, x) > lj else 0
                    return (side, i, j, eps, full + extra), full
    return None


def _is_signed_permutation(ws, rank):
    """If ws is (s_1 x_{p(1)}, ...) return the signed permutation, else None."""
    if len(ws) != rank:
        return None
    perm = []
    seen = set()
    for w in ws:
        if len(w) != 1:
            return None
        if abs(w[0]) in seen:
            return None
        seen.add(abs(w[0]))
        perm.append(w[0])
    return perm


def _plateau_search(ws):
    """BFS over non-lengthening moves from a strict-descent dead end.

    Returns (moves, new_ws) leading either to a strictly shorter tuple or to a
    signed-permutation basis, or None if the plateau component has neither.
    """
    start = tuple(ws)
    total = sum(len(w) for w in start)
    n = len(start)
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        if len(seen) > _PLATEAU_STATE_CAP:
            raise CapacityError(
                "Nielsen plateau search exceeded %d states" % _PLATEAU_STATE_CAP)
        state, path = queue.popleft()
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for side in ("R", "L"):
                    for eps in (1, -1):
                        move = (side, i, j, eps, 1)
                        nxt = list(state)
                        _apply_move(nxt, move)
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


def nielsen_reduce(words):
    """Reduce a tuple of words by length-non-increasing Nielsen moves.

    Returns (final_tuple, moves).  The moves log, applied in order to the
    input tuple, yields the final tuple.
    """
    return _nielsen_reduce([reduce_word(w) for w in words])


def _nielsen_reduce(ws):
    """nielsen_reduce of reduced words: they are not scanned again."""
    ws = list(ws)
    rank = len(ws)
    moves = []
    while True:
        best = _best_strict_move(ws)
        if best is not None:
            move, blocks = best
            _apply_move(ws, move, blocks)
            moves.append(move)
            continue
        if _is_signed_permutation(ws, rank) is not None:
            break
        found = _plateau_search(ws)
        if found is None:
            break
        path, state = found
        moves.extend(path)
        ws = list(state)
    return tuple(ws), moves


def generates_free_group(words, rank):
    """True iff the words generate the full rank-`rank` free group.

    Word-level decision via Nielsen reduction; a reduced tuple generates
    exactly when its nontrivial members are distinct single letters covering
    all generators.
    """
    final, _ = nielsen_reduce(words)
    letters = set()
    for w in final:
        if not w:
            continue
        if len(w) != 1:
            return False
        letters.add(abs(w[0]))
    return letters == set(range(1, rank + 1))


def invert_automorphism_words(images):
    """Invert the automorphism x_i -> images[i].

    Raises CertificationError when the images do not form a basis.  The
    inverse is assembled from the Nielsen move log: each tuple move
    w_i <- w_i w_j^e is precomposition with the elementary map
    x_i -> x_i x_j^e, so with phi the input and rho_k the elementary maps,
    phi o rho_1 o ... o rho_t = sigma (a signed permutation), giving
    phi^-1 = rho_1 o ... o rho_t o sigma^-1.
    """
    return _invert_reduced([reduce_word(w) for w in images])


def _invert_reduced(images):
    """invert_automorphism_words of reduced words: they are not scanned
    again, and every word of the assembly is reduced, so each elementary
    map is substituted seam by seam.  A run of moves that differ at most in
    their counts is one elementary map, whose count is the sum of theirs:
    each fixes x_j, so their powers add.  A conjugated twist logs one move
    per letter of its power, and is assembled with a few substitutions."""
    rank = len(images)
    final, moves = _nielsen_reduce(images)
    perm = _is_signed_permutation(final, rank)
    if perm is None:
        raise CertificationError(
            "images do not generate a free basis: reduced to %r" % (final,))
    # sigma: x_i -> perm[i]; sigma^-1: x_{|perm[i]|} -> sign(perm[i]) * x_{i+1}
    inv = [None] * rank
    for i, p in enumerate(perm):
        inv[abs(p) - 1] = ((i + 1) if p > 0 else -(i + 1),)
    psi = inv
    for (side, i, j, eps), run in groupby(reversed(moves),
                                          key=lambda move: move[:4]):
        count = sum(move[4] for move in run)
        # rho: x_i -> x_i x_j^(eps*count) (side R) or x_j^(eps*count) x_i (L)
        rho = [((k + 1),) for k in range(rank)]
        tail = ((j + 1) if eps > 0 else -(j + 1),) * count
        if side == "R":
            rho[i] = (i + 1,) + tail
        else:
            rho[i] = tail + (i + 1,)
        psi = _substitute_seams(psi, rho)
    return tuple(psi)

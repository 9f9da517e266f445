"""Free-group automorphisms: parsing, rose representatives, reading
automorphisms off marked-graph maps, train-track certification, and
word-growth estimation.

Text grammar: "a->ab, b->a" with letters a..z; inverses as uppercase or a
^-1 suffix ("b^-1 a" and "B a" parse the same).
"""

import logging
import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain

from .errors import (
    CapacityError, CertificationError, FoldtrackError, StructuralError,
)
from .folding import (
    FoldFactorization, _factorize_tight, clean_factorize, controlled_inverse,
    inverse_stats,
)
from .graph import (
    Graph, pi1_generators, pi1_word, spanning_tree, tree_path,
)
from .graph_map import GraphMap, apply_path, direction_map, transition_matrix
from .spectra import ExpansionSpectrum, gamma_hat_many, spectrum_report
from .words import (
    WORD_LENGTH_CAP, _cancellation, _descend, cyclic_reduce,
    generates_free_group, invert_automorphism_words, invert_word, reduce_word,
    substitute_reduced,
)

__all__ = [
    "Automorphism", "parse_automorphism", "format_automorphism",
    "rose_graph", "rose_representative", "read_automorphism", "is_inner",
    "simultaneously_conjugate", "check_train_track", "stable_gates",
    "word_growth_rate", "random_automorphism", "trial_automorphisms",
    "trial_stream", "fold_inverse",
    "expansion_pair", "expansion_pairs", "ExpansionPair", "expansion_report",
    "normalize_outer", "make_automorphism", "compose_automorphisms", "power",
    "format_word",
]

log = logging.getLogger("foldtrack")

GROWTH_LENGTH_CAP = 10 ** 6
PLATEAU_STATE_CAP = 10_000  # normalize_outer's plateau walk warns and stops
# WORD_LENGTH_CAP (words) bounds every word built, growth iterates included:
# substitute and random_automorphism raise CapacityError past it.


@dataclass(frozen=True)
class Automorphism:
    """Generator images of a certified automorphism of F_n.

    The images are reduced words.  Every producer in this module keeps that
    true (parsing, the random draws, composition, powers, the outer normal
    form, fold inversion, reading a map), and the rose map of an
    automorphism and its fold factorization rely on it instead of reducing
    the images again."""

    rank: int
    images: tuple  # tuple of reduced words

    def __call__(self, w):
        return substitute_reduced(w, self.images)

    def is_identity(self):
        return all(w == (i + 1,) for i, w in enumerate(self.images))


def make_automorphism(images):
    """The Automorphism of outside images: reduced, then certified to
    generate the free group."""
    images = tuple(reduce_word(w) for w in images)
    rank = len(images)
    if not generates_free_group(images, rank):
        raise CertificationError(
            "images do not define an automorphism: %s"
            % format_automorphism(Automorphism(rank, images)))
    return Automorphism(rank, images)


def compose_automorphisms(a, b):
    """a after b."""
    if a.rank != b.rank:
        raise ValueError("rank mismatch")
    return Automorphism(a.rank, tuple(a(w) for w in b.images))


def power(a, n):
    if n < 0:
        raise ValueError("power needs n >= 0, got %d" % n)
    out = Automorphism(a.rank, tuple((i + 1,) for i in range(a.rank)))
    for _ in range(n):
        out = compose_automorphisms(a, out)
    return out


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

def _parse_word(text, letter_index):
    word = []
    i = 0
    text = text.strip()
    while i < len(text):
        ch = text[i]
        if ch == " ":
            i += 1
            continue
        if ch.isalpha():
            low = ch.lower()
            if low not in letter_index:
                raise StructuralError("unknown generator %r" % ch)
            letter = letter_index[low]
            sign = -1 if ch.isupper() else 1
            i += 1
            if text[i:i + 3] == "^-1":
                sign = -sign
                i += 3
            word.append(sign * letter)
        else:
            raise StructuralError("unexpected character %r" % ch)
    return tuple(word)


def parse_automorphism(text):
    """Parse "a->ab, b->a" into a certified Automorphism."""
    rules = [part.strip() for part in text.split(",") if part.strip()]
    if not rules:
        raise StructuralError("empty automorphism text")
    lhs = []
    rhs = []
    for rule in rules:
        if "->" not in rule:
            raise StructuralError("rule %r is missing '->'" % rule)
        left, right = rule.split("->", 1)
        left = left.strip()
        if len(left) != 1 or not left.isalpha() or not left.islower():
            raise StructuralError("left side must be a single generator: %r" % left)
        lhs.append(left)
        rhs.append(right)
    if sorted(lhs) != [chr(ord("a") + i) for i in range(len(lhs))]:
        raise StructuralError(
            "generators must be a..%s, got %r" % (chr(ord("a") + len(lhs) - 1), lhs))
    letter_index = {ch: i + 1 for i, ch in enumerate(sorted(lhs))}
    images = [None] * len(lhs)
    for left, right in zip(lhs, rhs):
        images[letter_index[left] - 1] = _parse_word(right, letter_index)
    return make_automorphism(images)


def format_word(w):
    if not w:
        return "1"
    parts = []
    for a in w:
        tok = chr(ord("a") + abs(a) - 1)
        parts.append(tok if a > 0 else tok + "^-1 ")
    return "".join(parts).strip()


def format_automorphism(aut):
    rules = []
    for i, w in enumerate(aut.images):
        rules.append("%s->%s" % (chr(ord("a") + i), format_word(w)))
    return ", ".join(rules)


# ---------------------------------------------------------------------------
# rose representatives and reading automorphisms off maps
# ---------------------------------------------------------------------------

@cache
def rose_graph(n):
    """The rose R_n with identity marking.  Built directly: every petal is
    a loop at the one vertex, so there is nothing to validate.  A Graph is
    frozen, so one rose per rank is shared: a rose self map's domain is its
    codomain."""
    return Graph(1, ((0, 0),) * n, basepoint=0,
                 marking=tuple((i,) for i in range(1, n + 1)))


def rose_representative(aut):
    """The rose self map x_i -> aut.images[i]; tight, as the images are
    reduced."""
    # any word in the letters +-1..n is a loop at the rose's one vertex
    rose = rose_graph(aut.rank)
    return GraphMap(rose, rose, (0,), aut.images)


def _conjugate_by_letter(w, x):
    """x^-1 w x for a reduced word w, reduced: only its end letters cancel."""
    if not w:
        return w
    if w[0] == x:
        return w[1:-1] if w[-1] == -x else w[1:] + (x,)
    return (-x,) + w[:-1] if w[-1] == -x else (-x,) + w + (x,)


def _letter_totals(ws, letters):
    """Total length of the reduced words ws conjugated by each single letter
    x, read off the end letters: each nonempty word gains 2, less 2 if it
    starts with x and 2 more if it ends with x^-1."""
    base = 0
    ends = {}  # x -> words starting with x plus words ending with x^-1
    for w in ws:
        if w:
            base += len(w) + 2
            x, y = w[0], -w[-1]
            ends[x] = ends.get(x, 0) + 1
            ends[y] = ends.get(y, 0) + 1
    return [base - 2 * ends.get(x, 0) for x in letters]


def normalize_outer(aut):
    """Canonical outer representative: conjugate all images by the word
    minimizing total image length, ties by lexicographically least tuple.
    The images are reduced, as every Automorphism's are, and so are the
    result's.  Logs a WARNING when the plateau walk stops at
    PLATEAU_STATE_CAP."""
    best, finished = _least_conjugate(aut.images, aut.rank)
    if not finished:
        log.warning("normalize_outer stopped at the plateau cap of %d "
                    "states (rank %d)", PLATEAU_STATE_CAP, aut.rank)
    return Automorphism(aut.rank, best)


def simultaneously_conjugate(ws, vs):
    """True iff some word u has ws[i] = u vs[i] u^-1 (reduced) for every i.

    Conjugate tuples have the same least conjugates, so the answer compares
    their normal forms.  Raises CapacityError when the plateau walk of the
    reference tuple vs stops at PLATEAU_STATE_CAP; when only the walk of ws
    stops there, ws has more least conjugates than vs, so the answer is False.
    """
    if len(ws) != len(vs):
        raise ValueError("tuples must have equal length")
    ws = tuple(map(reduce_word, ws))
    vs = tuple(map(reduce_word, vs))
    # a letter in no word never keeps the total: the walks skip it
    rank = max(map(abs, chain.from_iterable(ws + vs)), default=0)
    least, finished = _least_conjugate(vs, rank)
    if not finished:
        raise CapacityError("the reference tuple has more than %d least "
                            "conjugates" % PLATEAU_STATE_CAP)
    other, finished = _least_conjugate(ws, rank)
    return finished and other == least


def _least_conjugate(images, rank):
    """The lexicographically least of the conjugates of the reduced words
    images with least total length, and whether the walk finished (False
    when it stopped at PLATEAU_STATE_CAP states, returning the least tuple
    seen so far).

    Total conjugate length is a sum of tree-distance functions of the
    conjugator, hence convex on the Cayley tree: the rose's vertex image
    descent finds the minimum and the minimizing conjugators form a
    connected plateau, which is walked exhaustively.  Each letter's total
    comes from the images' end letters; only the images conjugated by a
    letter keeping the least total are built.
    """
    # conjugates of reduced words are reduced, so every tuple the descent
    # and the walk reach is
    ws = list(images)
    _descend(ws, (*range(1, len(ws) + 1), *range(-len(ws), 0)))
    ws = tuple(ws)
    letters = [s * l for l in range(1, rank + 1) for s in (1, -1)]
    # exhaustive walk of the minimum plateau
    cur_t = sum(map(len, ws))
    seen = {ws}
    queue = [ws]
    best = ws
    while queue:
        ws = queue.pop()
        if ws < best:
            best = ws
        totals = _letter_totals(ws, letters)
        for x, t in zip(letters, totals):
            if t != cur_t:
                continue
            cand = tuple(_conjugate_by_letter(w, x) for w in ws)
            if cand not in seen:
                seen.add(cand)
                queue.append(cand)
        if len(seen) > PLATEAU_STATE_CAP:
            return best, False
    return best, True


def read_automorphism(f):
    """The outer automorphism induced by a marking-respecting self map,
    expressed in the rose basis through spanning-tree pi_1 coordinates."""
    g = f.domain
    if g.edge_ends != f.codomain.edge_ends:
        raise ValueError("read_automorphism needs a self map")
    if g.marking is None:
        raise ValueError("domain carries no marking")
    tree = spanning_tree(g)
    gens = pi1_generators(g, tree)
    base = g.basepoint
    # marking iso m: x_i -> word of rho(x_i) in the tree basis
    m_images = [pi1_word(g, p, tree, gens) for p in g.marking]
    m_inv = invert_automorphism_words(m_images)  # CertificationError if no basis
    # induced map on the tree basis
    b_images = []
    for e in gens:
        u, v = g.edge_ends[e - 1]
        loop = tree_path(g, tree, base, u) + (e,) + tree_path(g, tree, v, base)
        b_images.append(pi1_word(g, apply_path(f, loop), tree, gens))
    phi = [substitute_reduced(substitute_reduced(m_images[i], b_images), m_inv)
           for i in range(len(m_images))]
    return normalize_outer(make_automorphism(phi))


def is_inner(images):
    """Decide whether x_i -> images[i] is conjugation by a fixed word: the
    outer normal form of the images is the basis.  The basis walk always
    finishes, so this never raises CapacityError."""
    return simultaneously_conjugate(
        images, [(i + 1,) for i in range(len(images))])


# ---------------------------------------------------------------------------
# train tracks and gates
# ---------------------------------------------------------------------------

def stable_gates(f):
    """Partition of directions by eventual collision under iterated Df.

    Directions d, d' are in the same gate when Df^m(d) = Df^m(d') for some
    m >= 1: when their eventual images agree (_eventual_images).  Each
    direction maps to the least direction of its gate.
    """
    power = _eventual_images(f)
    least = {}
    return {d: least.setdefault(power[d], d) for d in sorted(power)}


def _eventual_images(f):
    """Df^m on the non-collapsed directions, as a dict, for an m at least
    the number of directions.  The kernel of Df^m only grows with m, so it
    is stable from there on: Df is squared up to such a power."""
    power = direction_map(f)
    for _ in range(len(power).bit_length()):
        power = {d: power.get(x, x) for d, x in power.items()}
    return power


def check_train_track(f):
    """True iff every turn crossed by some f(e) is legal: no backtrack, and
    its two directions lie in distinct stable gates (their eventual Df
    images differ), so iteration never cancels.  A collapsed edge's
    directions lie in no gate."""
    at = _eventual_images(f).get
    for p in f.edge_map:
        for d, d_next in zip(p, p[1:]):
            if d_next == -d:
                return False
            x = at(-d)
            if x is not None and x == at(d_next):
                return False
    return True


# ---------------------------------------------------------------------------
# growth rates
# ---------------------------------------------------------------------------

def word_growth_rate(aut, seeds=None, k_max=40):
    """Multiplicative growth-rate estimate of cyclic lengths under iteration.

    Least-squares slope of log cyclic length over the last k_max/2 samples;
    beyond GROWTH_LENGTH_CAP letters the iteration switches to occurrence
    vectors under the transition matrix of the tightened rose map (same
    asymptotics, no exponential memory).
    """
    f = rose_representative(aut)
    return _growth_rate(aut, f, check_train_track(f), seeds, k_max)


def _growth_rate(aut, f, matrix_exact, seeds=None, k_max=40):
    """word_growth_rate given aut's rose map f and check_train_track(f)."""
    import numpy as np

    if k_max < 8:
        raise ValueError("k_max must be at least 8")
    if seeds is None:
        seeds = [(i + 1,) for i in range(aut.rank)]
    m = np.array(transition_matrix(f).entries, dtype=float)
    best = 0.0
    for seed in seeds:
        w = cyclic_reduce(seed)
        if not w:
            continue
        logs = []
        vec = None
        offset = 0.0
        if matrix_exact:
            # Certified train-track maps never cancel under iteration, so
            # lengths follow the transition matrix exactly; skip the words.
            vec = _letter_counts(aut(w), aut.rank)
            logs.append(math.log(vec.sum()))
        for _ in range(k_max - len(logs)):
            if vec is None:
                # phi(u c u^-1) is conjugate to phi(c), so iterating on the
                # cyclic reduction keeps every cyclic length and stops a
                # growing conjugator from filling memory.
                w = cyclic_reduce(aut(w))
                n = len(w)
                if n == 0:
                    logs = []
                    break
                logs.append(math.log(n))
                if n > GROWTH_LENGTH_CAP:
                    vec = _letter_counts(w, aut.rank)
            else:
                vec = m @ vec
                total = float(vec.sum())
                if total <= 0:
                    logs = []
                    break
                if total > 1e12:
                    vec /= total
                    offset += math.log(total)
                    total = 1.0
                logs.append(offset + math.log(total))
        if logs:
            best = max(best, _slope_rate(logs))
    return best


def _letter_counts(w, rank):
    import numpy as np

    counts = np.bincount(np.abs(np.asarray(w, dtype=np.int64)), minlength=rank + 1)
    return counts[1:].astype(float)


def _slope_rate(logs):
    import numpy as np

    ys = np.asarray(logs, dtype=float)
    if ys.size == 0 or not np.isfinite(ys).all():
        return 0.0
    half = max(ys.size // 2, 2)
    ks = np.arange(1, ys.size + 1, dtype=float)[-half:]
    ys = ys[-half:]
    if ys.size < 2 or np.allclose(ys, ys[0]):
        return 1.0
    slope = np.polyfit(ks, ys, 1)[0]
    return float(math.exp(max(slope, 0.0)))


# ---------------------------------------------------------------------------
# random automorphisms
# ---------------------------------------------------------------------------

def random_automorphism(rank, length, rng, positive=False):
    """Seeded product of Nielsen transformations: x_i -> x_i x_j^(+-1),
    transpositions, and inversions (the latter two skipped when positive).

    Every bounded draw is one `rng.integers(0, k)` call on the numpy
    Generator `rng`, so callers that share one Generator across several
    draws (the tests, the audit suites) get the same automorphisms from the
    same generator state, and leave `rng` where the next draw starts."""
    return _nielsen_product(rank, length, lambda k: int(rng.integers(0, k)),
                            positive)


def trial_stream(seed, stream):
    """The Philox bit generator of one experiment trial or audit stream:
    key `seed`, counter [0, 0, 0, stream].  numpy raises ValueError unless
    0 <= seed < 2**128."""
    import numpy as np

    return np.random.Philox(key=seed, counter=[0, 0, 0, stream])


def trial_automorphisms(rank, length, seed, trials):
    """[random_automorphism(rank, length, numpy.random.default_rng(
    trial_stream(seed, t))) for t in trials], drawn without a Generator:
    each trial's stream is read in blocks of 64-bit outputs and every bound
    is applied as Generator.integers applies it (`_bounded_draw`).  Nothing
    else reads a trial's stream, so reading past the last word used is
    harmless.  `trials` is a sequence of counters.  The products are
    random_automorphism's default ones, not positive ones."""
    if not trials:
        return []
    # one bit generator, set back to a fresh generator's state at each
    # trial's counter: building a new Philox costs ten times as much
    bitgen = trial_stream(seed, trials[0])
    state = bitgen.state
    # two outputs (four words) cover a move that redraws nothing; the cap
    # keeps a block small however long the word
    block = min(2 * length + 2, 1024)
    auts = []
    for trial in trials:
        state["state"]["counter"] = [0, 0, 0, trial]
        bitgen.state = state
        below = _bounded_draw(_stream_words(bitgen, block))
        auts.append(_nielsen_product(rank, length, below, False))
    return auts


def _stream_words(bitgen, block):
    """The 32-bit words of a Philox stream in the order its next_uint32
    hands them out: the low half of each 64-bit output first."""
    while True:
        outputs = bitgen.random_raw(block).astype("<u8", copy=False)
        # little-endian halves of little-endian outputs, on any host
        yield from outputs.view("<u4").tolist()


def _bounded_draw(words):
    """below(k), 1 <= k <= 2**32: a uniform int in [0, k) from the iterator
    of 32-bit words, value for value as numpy's Generator.integers(0, k)
    draws it from the same words (Lemire's multiply-and-reject).  k = 1
    reads no word; otherwise m = x k for the next word x, redrawn while
    m mod 2**32 < 2**32 mod k, and the draw is m >> 32."""
    def below(k):
        if k == 1:
            return 0
        threshold = (1 << 32) % k
        m = next(words) * k
        while m & 0xFFFFFFFF < threshold:
            m = next(words) * k
        return m >> 32
    return below


def _nielsen_product(rank, length, below, positive):
    """The Nielsen-move loop of random_automorphism; below(k) is a uniform
    draw from [0, k)."""
    images = [(i + 1,) for i in range(rank)]
    kinds = ("mult",) if positive or rank == 1 else ("mult", "swap", "invert")
    for step in range(length):
        kind = kinds[below(len(kinds))] if rank > 1 else "invert"
        if kind == "mult":
            i = below(rank)
            j = below(rank - 1)
            if j >= i:
                j += 1
            eps = 1 if positive else (1 if below(2) else -1)
            head = images[i]
            tail = images[j] if eps > 0 else invert_word(images[j])
            # reduced words cancel only at the seam: the product's length is
            # known before it is built.  It is never empty: i != j, and
            # w_i w_j^eps = 1 would make w_i = w_j^-eps, two elements of one
            # basis
            k = _cancellation(head, tail)
            if len(head) + len(tail) - 2 * k > WORD_LENGTH_CAP:
                raise CapacityError(
                    "random automorphism image exceeds %d letters after %d "
                    "of %d moves" % (WORD_LENGTH_CAP, step + 1, length))
            images[i] = head[:len(head) - k] + tail[k:] if k else head + tail
        elif kind == "swap":
            i = below(rank)
            j = below(rank - 1)
            if j >= i:
                j += 1
            images[i], images[j] = images[j], images[i]
        else:
            i = below(rank)
            images[i] = invert_word(images[i])
    return Automorphism(rank, tuple(images))


# ---------------------------------------------------------------------------
# fold-based inversion and the ratio report
# ---------------------------------------------------------------------------

def fold_inverse(aut):
    """Controlled inverse through clean_factorize of the rose map.

    Returns (inverse automorphism, factorization, stats), stats the
    inverse_stats of the controlled inverse.
    """
    fact = clean_factorize(rose_representative(aut))
    g = controlled_inverse(fact)
    return _inverse_of(g), fact, inverse_stats(fact, g)


def _inverse_of(g):
    """The normal form of the automorphism whose rose map is g, the
    controlled inverse of a rose map's factorization: g is a tightened self
    map of the same rose, and its edge images are the generator images of
    the inverse, already certified by factorize."""
    return normalize_outer(Automorphism(len(g.edge_map), g.edge_map))


@dataclass(frozen=True)
class ExpansionPair:
    """lambda(phi) and mu = lambda(phi^-1) with what they were read from:
    Gamma-hat of the rose maps of phi and of its controlled inverse.  A
    side whose map fails check_train_track reports an upper bound, not the
    expansion factor."""

    phi: Automorphism                  # normal form of the input
    inverse: Automorphism              # controlled inverse, normal form
    rose_map: GraphMap                 # rose map of phi
    inverse_rose_map: GraphMap         # rose map of inverse
    factorization: FoldFactorization   # of the rose map of phi
    controlled_map: GraphMap           # controlled_inverse(factorization)
    spectrum: ExpansionSpectrum        # Gamma-hat of phi
    inverse_spectrum: ExpansionSpectrum
    certified: bool
    inverse_certified: bool

    @cached_property
    def inverse_stats(self):
        """The LC bookkeeping of the controlled inverse, computed when first
        read: the lambda/mu values do not depend on it."""
        return inverse_stats(self.factorization, self.controlled_map)

    @property
    def lam(self):
        return self.spectrum.top()

    @property
    def mu(self):
        return self.inverse_spectrum.top()

    @property
    def ratio(self):
        """log lambda / log mu, or None when a side has no EG stratum."""
        if self.lam is None or self.mu is None:
            return None
        return math.log(self.lam) / math.log(self.mu)


def expansion_pairs(auts):
    """The ExpansionPair of each automorphism, or the FoldtrackError that
    stopped it.

    The pipeline runs stage by stage: each stage runs over every trial still
    alive before the next starts.  The stages, in order: the normal form phi;
    its rose map f; the greedy fold factorization of f; the controlled
    inverse g; the inverse's normal form; its rose map fi; Gamma-hat of every
    f and fi in one gamma_hat_many batch; the train-track check of every f,
    then of every fi; the pairs.  Each trial does the work expansion_pair
    does for it alone, so its result does not depend on its batch.  The
    images of an Automorphism are reduced and nonempty, so its rose map is
    tight as built and is folded as it is, without factorize's tightening
    and collapsed-edge test.

    A FoldtrackError raised for one trial, by any stage, becomes that trial's
    result, and the trial skips every later stage."""
    results = [None] * len(auts)
    live = range(len(auts))  # positions that no stage has stopped

    def stage(fn, args):
        """fn(args[k]) at each live position k, None elsewhere; a call that
        raises FoldtrackError stores it in results[k], which stops trial k."""
        nonlocal live
        out = [None] * len(auts)
        for k in live:
            try:
                out[k] = fn(args[k])
            except FoldtrackError as exc:
                results[k] = exc
        live = [k for k in live if results[k] is None]
        return out

    phis = stage(normalize_outer, auts)
    fs = stage(rose_representative, phis)
    facts = stage(_factorize_tight, fs)
    gs = stage(controlled_inverse, facts)
    invs = stage(_inverse_of, gs)
    fis = stage(rose_representative, invs)
    batch = gamma_hat_many([m for k in live for m in (fs[k], fis[k])])
    hats = [None] * len(auts)
    for k, hat, inv_hat in zip(live, batch[::2], batch[1::2]):
        hats[k] = hat, inv_hat
    hats = stage(_spectrum_pair, hats)
    certified = stage(check_train_track, fs)
    inverse_certified = stage(check_train_track, fis)
    debug = log.isEnabledFor(logging.DEBUG)
    for k in live:
        hat, inv_hat = hats[k]
        pair = results[k] = ExpansionPair(
            phis[k], invs[k], fs[k], fis[k], facts[k], gs[k], hat, inv_hat,
            certified[k], inverse_certified[k])
        if debug:
            log.debug("expansion pair: lambda %s (certified %s, %d EG blocks), "
                      "mu %s (certified %s, %d EG blocks)",
                      pair.lam, pair.certified,
                      len({e.stratum for e in pair.spectrum.entries}),
                      pair.mu, pair.inverse_certified,
                      len({e.stratum for e in pair.inverse_spectrum.entries}))
    return results


def _spectrum_pair(hats):
    """A trial's two gamma_hat_many results, raising the first that is an
    error."""
    for hat in hats:
        if isinstance(hat, FoldtrackError):
            raise hat
    return hats


def expansion_pair(aut):
    """lambda and mu of the outer class of aut: expansion_pairs of [aut],
    raising the error that stopped it."""
    pair = expansion_pairs([aut])[0]
    if isinstance(pair, FoldtrackError):
        raise pair
    return pair


def expansion_report(aut, k_max=40):
    """Forward and inverse expansion data: spectra with certification flags,
    word-growth cross-estimates, and the log-ratio of the top values."""
    pair = expansion_pair(aut)
    return {
        "automorphism": format_automorphism(pair.phi),
        "inverse": format_automorphism(pair.inverse),
        "lambda": pair.lam,
        "mu": pair.mu,
        "ratio": pair.ratio,
        "lambda_certified": pair.certified,
        "mu_certified": pair.inverse_certified,
        "gamma_hat_forward": pair.spectrum.values(),
        "gamma_hat_inverse": pair.inverse_spectrum.values(),
        "growth_estimates": {
            "forward": _growth_rate(pair.phi, pair.rose_map, pair.certified,
                                    k_max=k_max),
            "inverse": _growth_rate(pair.inverse, pair.inverse_rose_map,
                                    pair.inverse_certified, k_max=k_max),
        },
        "fold_count": pair.factorization.fold_count,
        "inverse_lc": pair.inverse_stats.lc,
        "lc_product_bound_ok": pair.inverse_stats.within_bound,
        # strata pair only when both maps share the invariant filtration
        "strata_paired":
            pair.spectrum.filtration == pair.inverse_spectrum.filtration,
        "forward_report": spectrum_report(pair.spectrum,
                                          certified=pair.certified),
        "inverse_report": spectrum_report(pair.inverse_spectrum,
                                          certified=pair.inverse_certified),
    }

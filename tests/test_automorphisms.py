import math
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from foldtrack.errors import CapacityError, CertificationError, StructuralError
from foldtrack.automorphisms import (
    Automorphism, _bounded_draw, _conjugate_by_letter, _letter_totals,
    _stream_words, check_train_track,
    compose_automorphisms, expansion_pair, expansion_pairs, expansion_report,
    fold_inverse, format_automorphism, format_word, is_inner, normalize_outer,
    parse_automorphism, power, random_automorphism, read_automorphism,
    rose_representative, simultaneously_conjugate, trial_automorphisms,
    trial_stream, word_growth_rate,
)
from foldtrack.graph_map import compose, identity_map, tighten_map, transition_matrix
from foldtrack.spectra import gamma
from foldtrack.words import conjugate, invert_automorphism_words, reduce_word

from conftest import seeded_rng


def test_parse_and_format():
    fib = parse_automorphism("a->ab, b->a")
    assert fib.images == ((1, 2), (1,))
    assert format_automorphism(fib) == "a->ab, b->a"
    pg = parse_automorphism("a->ac, b->a, c->b")
    assert pg.images == ((1, 3), (1,), (2,))
    inv = parse_automorphism("a->b, b->b^-1 a")
    assert inv.images == ((2,), (-2, 1))
    assert format_automorphism(inv) == "a->b, b->b^-1 a"
    upper = parse_automorphism("a->b, b->Ba")
    assert upper.images == inv.images


def test_parse_roundtrip_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        aut = random_automorphism(3, 8, rng)
        assert parse_automorphism(format_automorphism(aut)).images == aut.images


def test_parse_rejections():
    with pytest.raises(CertificationError):
        parse_automorphism("a->aa, b->b")
    with pytest.raises(StructuralError):
        parse_automorphism("a->ab")  # missing generator b
    with pytest.raises(StructuralError):
        parse_automorphism("a=>ab, b->a")


def test_rose_representative(fibonacci):
    fib = parse_automorphism("a->ab, b->a")
    f = rose_representative(fib)
    assert f.edge_map == fibonacci.edge_map
    assert transition_matrix(f).entries == [[1, 1], [1, 0]]
    ident = parse_automorphism("a->a, b->b")
    assert rose_representative(ident).edge_map == identity_map(f.domain).edge_map


def test_rose_representative_functorial():
    rng = np.random.default_rng(1)
    a = random_automorphism(3, 6, rng)
    b = random_automorphism(3, 6, rng)
    ab = compose_automorphisms(a, b)
    composed = tighten_map(compose(rose_representative(a), rose_representative(b)))
    assert composed.edge_map == rose_representative(ab).edge_map


def test_read_automorphism(fibonacci):
    aut = read_automorphism(fibonacci)
    assert format_automorphism(aut) == "a->ab, b->a"
    ident = identity_map(fibonacci.domain)
    assert read_automorphism(ident).is_identity()


def test_read_automorphism_rejects_non_basis_marking():
    from foldtrack.graph import make_graph
    g = make_graph(1, [(0, 0)] * 2, basepoint=0, marking=[(1,), (1, 1)])
    with pytest.raises(CertificationError):
        read_automorphism(identity_map(g))


def test_read_automorphism_case1_pipeline(rose2):
    # a->a, b->ab: controlled inverse reads as a->a, b->a^-1 b
    from foldtrack.folding import controlled_inverse, factorize
    from foldtrack.graph_map import make_graph_map
    f = make_graph_map(rose2, rose2, (0,), [(1,), (1, 2)])
    g = controlled_inverse(factorize(f))
    assert format_automorphism(read_automorphism(g)) == "a->a, b->a^-1 b"


def test_is_inner():
    assert is_inner([(1,), (2,)])
    assert is_inner([conjugate((1,), (1,)), conjugate((2,), (1,))])
    assert not is_inner([(1, 2), (1,)])
    u = (2, -1)
    assert is_inner([conjugate((i,), u) for i in (1, 2)])


@settings(max_examples=50)
@given(st.lists(st.integers(-3, 3).filter(bool), max_size=8))
def test_is_inner_complete_vs_bruteforce(u):
    from foldtrack.words import reduce_word
    u = reduce_word(u)
    imgs = [conjugate((i,), u) for i in (1, 2, 3)]
    assert is_inner(imgs)


def test_is_inner_sound_vs_bruteforce_length_8():
    # brute force over all conjugators up to length 8 agrees with is_inner
    from itertools import product
    from foldtrack.words import reduce_word

    def brute(imgs):
        letters = [1, -1, 2, -2]
        for k in range(9):
            for tup in product(letters, repeat=k):
                u = reduce_word(tup)
                if len(u) != k:
                    continue
                if [conjugate((i,), u) for i in (1, 2)] == list(imgs):
                    return True
        return False

    cases = [
        [(1, 2), (2,)],                                  # a->ab: not inner
        [(1,), (2,)],                                    # identity
        [conjugate((1,), (2, -1, 2)), conjugate((2,), (2, -1, 2))],
        [conjugate((1,), (1, 2, 1, 2)), conjugate((2,), (1, 2, 1, 2))],
        [(2,), (1,)],                                    # swap: not inner
    ]
    for imgs in cases:
        assert is_inner(imgs) == brute(imgs), imgs


def _reduced_words(rank, n):
    """Every reduced word of at most n letters over x_1..x_rank."""
    out = [()]
    layer = [()]
    for _ in range(n):
        layer = [u + (a,) for u in layer
                 for a in range(-rank, rank + 1) if a and (not u or u[-1] != -a)]
        out += layer
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(1, 9), st.integers(0, 2 ** 32 - 1),
       st.lists(st.integers(1, 4), min_size=2, max_size=2, unique=True),
       st.lists(st.integers(-4, 4).filter(bool), max_size=12))
# vs = (b^-1 a b, ab), no single letter; u = ab takes it to (a, ab), and u is
# no prefix of a or a^-1
@example(rank=2, length=4, seed=254, ij=[1, 2], u=[1, 2])
def test_simultaneously_conjugate_on_random_bases(rank, length, seed, ij, u):
    """Conjugating a basis by any u keeps its outer class, also when no
    reference word is a single letter; precomposing with a transvection
    x_i -> x_i x_j leaves it."""
    vs = random_automorphism(rank, length, np.random.default_rng(seed)).images
    u = reduce_word([a for a in u if abs(a) <= rank])
    ws = [conjugate(v, u) for v in vs]
    assert simultaneously_conjugate(ws, vs)
    i, j = (min(k, rank) - 1 for k in ij)
    if i == j:
        j = (i + 1) % rank
    moved = list(ws)
    moved[i] = reduce_word(ws[i] + ws[j])
    assert not simultaneously_conjugate(moved, vs)
    if len(u) <= 6:
        cands = _reduced_words(rank, len(u))
        for tup, expected in ((ws, True), (moved, False)):
            assert any(all(conjugate(v, c) == w for v, w in zip(vs, tup))
                       for c in cands) == expected


def test_simultaneously_conjugate_reports_the_cap(monkeypatch):
    """The twist marking (x_1, x_2 x_1^50) has 51 least conjugates
    (x_1, x_1^k x_2 x_1^(50-k)): past the cap, the reference walk raises
    and a walk of the other tuple alone answers False."""
    import foldtrack.automorphisms as automorphisms
    monkeypatch.setattr(automorphisms, "PLATEAU_STATE_CAP", 5)
    twist = [(1,), (2,) + (1,) * 50]
    with pytest.raises(CapacityError):
        simultaneously_conjugate(twist, twist)
    with pytest.raises(CapacityError):
        simultaneously_conjugate([(1,), (2,)], twist)
    assert not simultaneously_conjugate(twist, [(1,), (2,)])
    assert not is_inner(twist)


def test_power_refuses_negative_exponent():
    fib = parse_automorphism("a->ab, b->a")
    with pytest.raises(ValueError):
        power(fib, -1)
    assert power(fib, 0).is_identity()


def test_check_train_track():
    fib = parse_automorphism("a->ab, b->a")
    assert check_train_track(tighten_map(rose_representative(fib)))
    pg_inv = parse_automorphism("a->b, b->c, c->b^-1 a")
    assert check_train_track(tighten_map(rose_representative(pg_inv)))
    bad = parse_automorphism("a->ab, b->a^-1")
    assert not check_train_track(tighten_map(rose_representative(bad)))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(2, 4))
def test_positive_automorphisms_are_train_track(seed, n):
    # the map is a certified train track, so the growth rate iterates
    # occurrence vectors from the start and builds no words
    rng = np.random.default_rng(seed)
    aut = random_automorphism(n, 6, rng, positive=True)
    f = tighten_map(rose_representative(aut))
    assert check_train_track(f)
    spec = gamma(f)
    if len(spec.entries) == 1:
        # repeated top values across strata add a polynomial k^m factor whose
        # log-slope bias at k_max=40 exceeds 1%; assert on the dominant-block
        # family where the estimate converges geometrically
        rate = word_growth_rate(aut, k_max=40)
        assert abs(rate - spec.top()) <= 0.01 * spec.top()


def test_word_growth_examples():
    fib = parse_automorphism("a->ab, b->a")
    assert abs(word_growth_rate(fib, seeds=[(1,)], k_max=40)
               - 1.6180339887) < 1e-3
    pg_inv = parse_automorphism("a->b, b->c, c->b^-1 a")
    assert abs(word_growth_rate(pg_inv, k_max=40) - 1.3247179572) < 1e-2
    ident = parse_automorphism("a->a, b->b")
    assert word_growth_rate(ident, k_max=10) == 1.0


GROWING_CONJUGATOR = "a->c^-1 ac, b->a^-1 a^-1 b^-1 c, c->a^-1 baac^-1 baa"

_CAPPED_GROWTH = """
import resource, sys
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from foldtrack.automorphisms import parse_automorphism, word_growth_rate
word_growth_rate(parse_automorphism(sys.argv[1]))
"""


def test_word_growth_conjugator_stays_bounded():
    """Iterating this automorphism grows a conjugator: by step 9 the image
    of a has about 250,000 letters and cyclic length 1.  Growth must follow
    cyclic lengths in bounded memory.  The child runs under a 1 GiB address
    space cap, so a regression fails with MemoryError rather than exhausting
    the machine."""
    proc = subprocess.run([sys.executable, "-c", _CAPPED_GROWTH,
                           GROWING_CONJUGATOR],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_fold_inverse_examples():
    fib = parse_automorphism("a->ab, b->a")
    inv, fact, stats = fold_inverse(fib)
    assert format_automorphism(inv) == "a->b, b->b^-1 a"
    assert stats.lc == 1 and stats.within_bound
    pg = parse_automorphism("a->ac, b->a, c->b")
    pinv, _, _ = fold_inverse(pg)
    assert format_automorphism(pinv) == "a->b, b->c, c->b^-1 a"
    ident = parse_automorphism("a->a, b->b")
    iinv, ifact, _ = fold_inverse(ident)
    assert iinv.is_identity() and ifact.fold_count == 0


def test_fold_inverse_matches_nielsen_inverse():
    rng = np.random.default_rng(3)
    for _ in range(20):
        aut = random_automorphism(3, 8, rng)
        a = fold_inverse(aut)[0]
        b = Automorphism(3, invert_automorphism_words(aut.images))
        # same outer class: composing one with the other's inverse is inner
        comp = compose_automorphisms(aut, a)
        assert is_inner(list(comp.images))
        comp2 = compose_automorphisms(aut, b)
        assert is_inner(list(comp2.images))


def test_expansion_report_fibonacci():
    rep = expansion_report(parse_automorphism("a->ab, b->a"))
    assert abs(rep["lambda"] - 1.6180339887) < 1e-9
    assert abs(rep["mu"] - 1.6180339887) < 1e-9
    assert abs(rep["ratio"] - 1.0) < 1e-6
    assert rep["lambda_certified"] and rep["mu_certified"]
    assert rep["inverse"] == "a->b, b->b^-1 a"


def test_expansion_report_parageometric():
    rep = expansion_report(parse_automorphism("a->ac, b->a, c->b"))
    assert abs(rep["lambda"] - 1.4655712318767682) < 1e-7
    assert abs(rep["mu"] - 1.3247179572447458) < 1e-7
    assert abs(rep["ratio"] - 1.3593373) < 1e-3
    assert rep["lambda_certified"] and rep["mu_certified"]
    assert abs(rep["growth_estimates"]["inverse"] - rep["mu"]) <= 0.01 * rep["mu"]


def test_report_no_eg_entries():
    rep = expansion_report(parse_automorphism("a->a, b->ba"))
    assert rep["lambda"] is None and rep["ratio"] is None


def test_ratio_power_invariance():
    fib = parse_automorphism("a->ab, b->a")
    lam1 = gamma(tighten_map(rose_representative(fib))).top()
    for n in (2, 3):
        fn = power(fib, n)
        lam_n = gamma(tighten_map(rose_representative(fn))).top()
        assert abs(math.log(lam_n) - n * math.log(lam1)) < 1e-8


def test_normalize_outer_canonical():
    rng = np.random.default_rng(9)
    for _ in range(15):
        aut = random_automorphism(3, 7, rng)
        base = normalize_outer(aut)
        u = tuple(int(x) for x in rng.integers(1, 4, size=2))
        twisted = Automorphism(3, tuple(conjugate(w, u) for w in aut.images))
        assert normalize_outer(twisted).images == base.images


def test_roundtrip_inner_500_seeded():
    rng = np.random.default_rng(np.random.Philox(key=2026))
    for _ in range(100):  # acceptance runs the full 500; keep unit level light
        rank = int(rng.integers(2, 5))
        aut = random_automorphism(rank, 12, rng)
        inv, _, _ = fold_inverse(aut)
        comp = compose_automorphisms(inv, aut)
        assert is_inner(list(comp.images))


def test_expansion_pair_runs_no_clean_order_search(monkeypatch):
    """lambda and mu come from the greedy factorization: the clean-order
    search only changes LC bookkeeping, which expansion_pair does not claim."""
    import foldtrack.folding as folding

    def no_search(*args, **kwargs):
        raise AssertionError("expansion_pair ran the clean-order search")

    monkeypatch.setattr(folding, "_clean_factorize", no_search)
    for text in ("a->a, b->b^-1 db, c->ddb, d->c^-1", "a->ab, b->a"):
        pair = expansion_pair(parse_automorphism(text))
        assert pair.factorization.clean_outcome == "not-run"


def test_normalize_outer_plateau_cap_warns(monkeypatch, caplog):
    import foldtrack.automorphisms as automorphisms
    # the minimum plateau of Fibonacci holds (ab, a) and (ba, a)
    monkeypatch.setattr(automorphisms, "PLATEAU_STATE_CAP", 1)
    with caplog.at_level("WARNING", logger="foldtrack"):
        normalize_outer(parse_automorphism("a->ab, b->a"))
    assert any("plateau cap of 1 states (rank 2)" in r.getMessage()
               for r in caplog.records)


def test_expansion_pair_logs_at_debug(caplog):
    """One DEBUG line per pair: lambda, mu, certification and EG block count
    on each side; nothing is logged above DEBUG."""
    texts = ["a->ac, b->a, c->b", "a->ab, b->a, c->cd, d->c",
             "a->bc^-1, b->b^-1, c->ba^-1"]
    with caplog.at_level("INFO", logger="foldtrack"):
        for text in texts:
            expansion_pair(parse_automorphism(text))
    assert caplog.records == []
    with caplog.at_level("DEBUG", logger="foldtrack"):
        for text in texts:
            expansion_pair(parse_automorphism(text))
    assert [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("expansion pair")] == [
        "expansion pair: lambda 1.4655712318767682 (certified True, 1 EG "
        "blocks), mu 1.324717957244746 (certified True, 1 EG blocks)",
        "expansion pair: lambda 1.618033988749895 (certified True, 2 EG "
        "blocks), mu 1.618033988749895 (certified True, 2 EG blocks)",
        "expansion pair: lambda None (certified True, 0 EG blocks), "
        "mu None (certified True, 0 EG blocks)",
    ]


def test_letter_totals_are_conjugate_lengths():
    ws = ((1, 2, -1), (-2,), (), (3, 1, -3), (2, -3, 1, 2))
    letters = [s * x for x in range(1, 4) for s in (1, -1)]
    assert _letter_totals(ws, letters) == [
        sum(len(_conjugate_by_letter(w, x)) for w in ws) for x in letters]


GOLDEN_SQUARE = (3 + math.sqrt(5)) / 2


def test_braid_sigma1_sigma2_inverse_has_ratio_one(experiment_draws):
    """sigma_1 sigma_2^-1 acts on F_3 as a pseudo-Anosov braid, so lambda =
    mu = (3 + sqrt 5) / 2 with both sides certified: alone and as one trial
    of a batch."""
    braid = parse_automorphism("a->aca^-1, b->a, c->c^-1 bc")
    others = experiment_draws(3, 10, 8)
    batch = expansion_pairs(others[:4] + [braid] + others[4:])
    for pair in (expansion_pair(braid), batch[4]):
        assert abs(pair.lam - GOLDEN_SQUARE) < 1e-12
        assert abs(pair.mu - GOLDEN_SQUARE) < 1e-12
        assert pair.certified and pair.inverse_certified
        assert abs(pair.ratio - 1.0) < 1e-12


def test_certified_powers_square_lambda(experiment_draws):
    """lambda(phi^2) = lambda(phi)^2 on every side certified for both phi and
    phi^2 (r3 L10 x200, seed 1), and likewise for mu."""
    auts = experiment_draws(3, 10, 200)
    pairs = expansion_pairs(auts)
    squares = expansion_pairs([power(aut, 2) for aut in auts])
    checked = 0
    for p, q in zip(pairs, squares):
        for certified, value, square in (
                (p.certified and q.certified, p.lam, q.lam),
                (p.inverse_certified and q.inverse_certified, p.mu, q.mu)):
            if not certified:
                continue
            if value is None:
                assert square is None
                continue
            assert math.isclose(square, value ** 2, rel_tol=1e-9)
            checked += 1
    # 100 sides with an EG stratum are certified for both powers today
    assert checked >= 100


@pytest.mark.parametrize("seed", [0, 2 ** 62 - 1, 2 ** 128 - 1, "random"],
                         ids=["0", "2**62-1", "2**128-1", "random"])
def test_trial_draw_matches_shared_generator(seed):
    """trial_automorphisms reads each trial's Philox stream in blocks and
    bounds each word itself; it draws what random_automorphism draws from a
    Generator on the same stream: 552 draws per seed over ranks 1-8 and 26,
    lengths 0, 1, 10 and 40, positive or not, in runs of 8 trials from a
    random counter (2208 in all).  Positive products of 40 moves are left
    out at ranks 2 and 3, where they grow like Fibonacci numbers (3.5e7
    letters at rank 2)."""
    draws = random.Random(17)
    checked = 0
    for rank in (*range(1, 9), 26):
        for length in (0, 1, 10, 40):
            for positive in (False, True):
                if positive and length == 40 and rank <= 3:
                    continue
                key = draws.getrandbits(62) if seed == "random" else seed
                start = draws.getrandbits(32)
                trials = range(start, start + 8)
                want = [random_automorphism(rank, length, seeded_rng(key, t),
                                            positive) for t in trials]
                got = trial_automorphisms(rank, length, key, trials, positive)
                assert got == want, (rank, length, positive, key, start)
                checked += len(got)
    assert checked == 552
    assert trial_automorphisms(3, 10, key, range(0)) == []


def test_bounded_draw_redraws_as_lemire():
    """Hand-made words: k = 1 reads none; k = 3 redraws the word 0 (its
    product's low half 0 lies below 2**32 mod 3 = 1) and maps the next word
    x to 3x >> 32."""
    words = iter([0, 2 ** 32 - 1, 5, 2 ** 31 + 1])
    below = _bounded_draw(words)
    assert below(1) == 0
    assert below(3) == 2        # word 0 redrawn, then (3 (2**32 - 1)) >> 32
    assert below(2 ** 32) == 5  # 2**32 mod 2**32 = 0: nothing is redrawn
    assert below(26) == 13
    assert below(1) == 0
    assert next(words, None) is None
    assert _bounded_draw(iter([]))(1) == 0


def test_bounded_draw_matches_generator_on_redraws():
    """With bounds whose redraw share is a quarter to a half, the block
    source agrees with Generator.integers draw for draw, so the redraw
    branch is checked against numpy itself."""
    ks = [3 * 2 ** 30, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32, 1, 2, 3, 26]
    for trial in range(4):
        rng = seeded_rng(2 ** 100 + 7, trial)
        words = _stream_words(trial_stream(2 ** 100 + 7, trial), 5)
        used = []

        def counted():
            for w in words:
                used.append(w)
                yield w
        below = _bounded_draw(counted())
        draws = [ks[i % len(ks)] for i in range(400)]
        assert [below(k) for k in draws] == [int(rng.integers(0, k))
                                             for k in draws]
        # every bound above 1 reads at least one word; the excess are redraws
        assert len(used) > sum(k > 1 for k in draws)


BRAIDS = [
    # sigma_1^-1 sigma_2: mu certified, lambda an upper bound reading 2.8312
    (parse_automorphism("a->c, b->c^-1 b^-1 abc, c->b"), GOLDEN_SQUARE),
    # sigma_1^2 sigma_2^-1: mu certified, lambda reading 2 + sqrt 5
    (parse_automorphism("a->a, b->c, c->c^-1 a^-1 c^-1 bcac"), 2 + math.sqrt(3)),
    # (sigma_1 sigma_2^-1)^2: mu certified, lambda reading 7.4447
    (power(parse_automorphism("a->aca^-1, b->a, c->c^-1 bc"), 2),
     GOLDEN_SQUARE ** 2),
]


@pytest.mark.parametrize("braid,stretch", BRAIDS)
def test_braid_closed_forms(braid, stretch):
    """A braid's stretch factor is lambda = mu.  The certified side reads it
    to 1e-9; the other side is an uncertified rose bound and reads at least
    that much (until ROADMAP item 1 certifies it)."""
    pair = expansion_pair(braid)
    assert pair.inverse_certified
    assert abs(pair.mu - stretch) < 1e-9
    assert not pair.certified
    assert pair.lam >= stretch


TRIAL_24 = "a->bba^-1, b->ba^-1, c->c^-1 ba^-1"


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the uncertified rose bound reads lambda = mu = 1 + sqrt 2"
    " on r3 trial 24, while the rose map of phi^2 has no EG stratum"))
def test_power_identity_at_r3_trial_24(experiment_draws):
    """lambda(phi)^2 = lambda(phi^2) at trial 24 of experiment r3 L10 seed 1,
    where NA squares to NA."""
    phi = experiment_draws(3, 10, 25)[24]
    assert format_automorphism(phi) == TRIAL_24
    pair, square = expansion_pairs([phi, power(phi, 2)])
    for value, squared in ((pair.lam, square.lam), (pair.mu, square.mu)):
        if value is None:
            assert squared is None
        else:
            assert squared is not None
            assert math.isclose(squared, value ** 2, rel_tol=1e-9)


def _reduced_images(aut, rank):
    """aut has `rank` images, each a reduced word in the letters +-1..rank."""
    return aut.rank == rank == len(aut.images) and all(
        all(1 <= abs(a) <= rank for a in w)
        and all(a != -b for a, b in zip(w, w[1:])) for w in aut.images)


@pytest.mark.parametrize("rank", range(1, 7))
def test_every_producer_keeps_images_reduced(rank):
    """The images of an Automorphism are reduced words: the rose map, the
    factorization and the normal form of the lambda/mu path rely on it and
    reduce nothing again.  Every producer is checked on seeded samples."""
    rng = seeded_rng(20, rank)
    auts = [random_automorphism(rank, length, rng, positive)
            for length in (0, 1, 6, 12) for positive in (False, True)]
    auts += trial_automorphisms(rank, 10, 7, range(8))
    auts += trial_automorphisms(rank, 10, 7, range(4), positive=True)
    produced = list(auts)
    for aut in auts:
        # unreduced text: a cancelling pair of letters inside each image
        text = ", ".join(
            "%s->%s" % (chr(ord("a") + i),
                        format_word(w[:1] + (-i - 1, i + 1) + w[1:]))
            for i, w in enumerate(aut.images))
        parsed = parse_automorphism(text)
        assert parsed == aut
        produced += [parsed, normalize_outer(aut), power(aut, 2),
                     compose_automorphisms(aut, auts[0]),
                     fold_inverse(aut)[0],
                     read_automorphism(rose_representative(aut))]
    for pair in expansion_pairs(auts):
        produced += [pair.phi, pair.inverse]
    for aut in produced:
        assert _reduced_images(aut, rank), aut


def test_lambda_mu_path_reads_no_lc_bound(monkeypatch, tmp_path):
    """The controlled inverse's LC bookkeeping is computed only where it is
    read: experiment and expansion_pairs never call inverse_stats."""
    from foldtrack import automorphisms, cli, folding

    def no_stats(fact, g):
        raise AssertionError("inverse_stats called on the lambda/mu path")

    out = tmp_path / "plain.tsv"
    argv = ["experiment", "--rank", "3", "--length", "10", "--trials", "20",
            "--seed", "1", "--out"]
    assert cli.main(argv + [str(out)]) == 0
    for module in (automorphisms, folding):
        monkeypatch.setattr(module, "inverse_stats", no_stats)
    patched = tmp_path / "patched.tsv"
    assert cli.main(argv + [str(patched)]) == 0
    assert patched.read_text() == out.read_text()
    pairs = expansion_pairs(trial_automorphisms(4, 30, 1, range(10)))
    assert all(isinstance(p, automorphisms.ExpansionPair) for p in pairs)


@pytest.mark.parametrize("text, folds, lc, stage_lcs, log_bound", [
    ("a->ab, b->a", 1, 1, (1, 1), 2.5649493574615367),
    ("a->ac, b->a, c->b", 1, 1, (1, 1), 3.258096538021482),
    # sigma_1^-1 sigma_2
    ("a->c, b->c^-1 b^-1 abc, c->b", 4, 2, (1, 1, 1, 1, 1),
     13.032386152085929),
])
def test_inverse_stats_where_read(tmp_path, text, folds, lc, stage_lcs,
                                  log_bound):
    """The LC bookkeeping that ratio and invert report, as it was computed
    with the controlled inverse on every call: the pair's, fold_inverse's
    and the CLI's JSON agree."""
    import json

    from foldtrack import cli
    aut = parse_automorphism(text)
    for stats in (expansion_pair(aut).inverse_stats, fold_inverse(aut)[2]):
        assert (stats.fold_count, stats.lc, stats.stage_lcs,
                stats.log_bound, stats.within_bound) == (
                    folds, lc, stage_lcs, log_bound, True)
    ratio, invert = tmp_path / "ratio.json", tmp_path / "invert.json"
    assert cli.main(["ratio", text, "--out", str(ratio)]) == 0
    assert cli.main(["invert", text, "--out", str(invert)]) == 0
    ratio = json.loads(ratio.read_text())
    invert = json.loads(invert.read_text())
    assert (ratio["inverse_lc"], ratio["lc_product_bound_ok"]) == (lc, True)
    assert (invert["inverse_lc"], invert["stage_lcs"],
            invert["lc_product_bound_ok"]) == (lc, list(stage_lcs), True)

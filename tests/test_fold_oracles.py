"""The fold engine against the immutable fold implementation it replaced.

The library folds one mutable state in place and builds fold records,
markings and the controlled inverse on demand.  The references below
rebuild the graph and the map on every fold, carry the marking through each
quotient as it is made and compose the stage inverses literally, as the
code did before.  Every test asks for identical results: specs, flags,
each record's quotient, inverse and folded graph (with its basepoint,
marking and filtration), the terminal map and its inverse, the controlled
inverse and its LC bookkeeping.
"""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foldtrack.audits import pg_chain
from foldtrack.automorphisms import (
    normalize_outer, parse_automorphism, random_automorphism, rose_graph,
    rose_representative, trial_automorphisms,
)
from foldtrack import folding
from foldtrack.errors import CertificationError, StructuralError
from foldtrack.folding import (
    FoldFactorization, InverseStats, _clean_factorize, _factorize_tight,
    _fold_greedily, _FoldState, _try_invert_homeo, apply_fold_move,
    certify_homotopy_equivalence, controlled_inverse, edge_bound, factorize,
    inverse_stats,
)
from foldtrack.graph import Graph, rank, spanning_tree, tree_path
from foldtrack.graph_map import (
    GraphMap, apply_path, compose, direction_map, edgelet_count,
    make_graph_map, subdivide, tighten_map, transition_matrix,
)
from foldtrack.words import max_common_prefix, reduce_word


# ---------------------------------------------------------------------------
# reference implementation: a new graph and map per fold
# ---------------------------------------------------------------------------

RefRecord = namedtuple("RefRecord", "spec case quotient inverse flags")


def ref_fold_candidates(f):
    df = direction_map(f)
    links = f.domain.links()
    out = []
    for v in range(f.domain.num_vertices):
        by_image = {}
        for d in sorted(links[v]):
            if d in df:
                by_image.setdefault(df[d], []).append(d)
        for ds in by_image.values():
            for i in range(len(ds)):
                for k in range(i + 1, len(ds)):
                    out.append((v, ds[i], ds[k]))
    return out


def ref_normalize_spec(f, v, da, db):
    pa, pb = f.image(da), f.image(db)
    c = max_common_prefix(pa, pb)
    if c == 0:
        raise StructuralError("directions do not share an image prefix")
    fa, fb = c == len(pa), c == len(pb)
    flags = []
    g = f.domain
    if fa and fb:
        case = 3

        def dirty(dA):
            t = g.term(dA)
            if t == g.init(dA):
                return True
            return any(u == w == t and e != abs(dA)
                       for e, (u, w) in enumerate(g.edge_ends, start=1))

        d1, d2 = sorted((da, db))
        if dirty(d1) and not dirty(d2):
            d1, d2 = d2, d1
        if dirty(d1):
            flags.append("case3-loop-at-v1")
    elif fa != fb:
        case = 1
        d1, d2 = (db, da) if fa else (da, db)
    else:
        case = 2
        d1, d2 = sorted((da, db))
    return (v, d1, d2, c, case, tuple(flags))


def ref_find_fold(f):
    assert tighten_map(f) == f
    fallback = None
    for v, da, db in sorted(ref_fold_candidates(f)):
        spec = ref_normalize_spec(f, v, da, db)
        if "case3-loop-at-v1" in spec[5]:
            if fallback is None:
                fallback = spec
            continue
        return spec
    return fallback


def ref_fold_move(g, spec):
    _, d1, d2, _, case, _ = spec
    m1, m2 = abs(d1), abs(d2)
    if m1 == m2 and d1 == d2:
        raise StructuralError("cannot fold a direction with itself")
    if m1 == m2 and case != 2:
        raise StructuralError("self-fold of a loop must be a case-2 fold")
    v0 = g.init(d1)
    if g.init(d2) != v0:
        raise StructuralError("fold directions must share their initial vertex")
    v1, v2 = g.term(d1), g.term(d2)
    ident = tuple(range(g.num_vertices))
    if case == 1:
        ends = list(g.edge_ends)
        ends[m1 - 1] = (v2, v1)
        gstar = Graph(g.num_vertices, tuple(ends))
        p_edges = [(e,) for e in g.edge_ids]
        p_edges[m1 - 1] = (d2, m1) if d1 > 0 else (-m1, -d2)
        q_edges = [(e,) for e in gstar.edge_ids]
        q_edges[m1 - 1] = (-d2, d1)
        return (gstar, GraphMap(g, gstar, ident, tuple(p_edges)),
                GraphMap(gstar, g, ident, tuple(q_edges)))
    if case == 2:
        w = g.num_vertices
        ends = list(g.edge_ends)
        p_edges = [(e,) for e in g.edge_ids]
        q_edges = [(e,) for e in g.edge_ids]
        if m1 == m2:
            ends[m1 - 1] = (w, w)
            estar = len(ends) + 1
            p_edges[m1 - 1] = (estar, m1, -estar) if d1 > 0 \
                else (estar, -m1, -estar)
            q_edges[m1 - 1] = (d1,)
        else:
            ends[m1 - 1] = (w, v1)
            ends[m2 - 1] = (w, v2)
            estar = len(ends) + 1
            p_edges[m1 - 1] = (estar, m1) if d1 > 0 else (-m1, -estar)
            p_edges[m2 - 1] = (estar, m2) if d2 > 0 else (-m2, -estar)
            q_edges[m1 - 1] = (d1,)
            q_edges[m2 - 1] = (d2,)
        ends.append((v0, w))
        q_edges.append(())
        gstar = Graph(g.num_vertices + 1, tuple(ends))
        return (gstar, GraphMap(g, gstar, ident, tuple(p_edges)),
                GraphMap(gstar, g, ident + (v0,), tuple(q_edges)))
    if v1 == v2:
        raise StructuralError("full-full fold of parallel edges collapses rank")
    vkeep, vdrop = min(v1, v2), max(v1, v2)
    vmap = [vkeep if v == vdrop else v - 1 if v > vdrop else v
            for v in range(g.num_vertices)]
    emap = {e: e if e < m1 else e - 1 for e in g.edge_ids if e != m1}
    ends = [None] * (g.num_edges - 1)
    for e, ne in emap.items():
        u, v = g.edge_ends[e - 1]
        ends[ne - 1] = (vmap[u], vmap[v])
    gstar = Graph(g.num_vertices - 1, tuple(ends))

    def signed(d):
        return emap[abs(d)] if d > 0 else -emap[abs(d)]

    p_edges = [((signed(d2),) if d1 > 0 else (-signed(d2),)) if e == m1
               else (signed(e),) for e in g.edge_ids]
    q_vmap = [v2 if nv == vmap[v1] else nv if nv < vdrop else nv + 1
              for nv in range(gstar.num_vertices)]
    q_edges = [None] * gstar.num_edges
    for e, ne in emap.items():
        u, v = g.edge_ends[e - 1]
        path = (e,)
        if u == v1:
            path = (-d2, d1) + path
        if v == v1:
            path = path + (-d1, d2)
        q_edges[ne - 1] = path
    return (gstar, GraphMap(g, gstar, tuple(vmap), tuple(p_edges)),
            GraphMap(gstar, g, tuple(q_vmap), tuple(q_edges)))


def ref_push_graph_data(g, gstar, p):
    basepoint = p.vertex_map[g.basepoint] if g.basepoint is not None else None
    marking = None
    if g.marking is not None:
        marking = tuple(reduce_word(apply_path(p, mp)) for mp in g.marking)
    levels, flags = None, ()
    if g.filtration is not None:
        levels = tuple(frozenset(abs(d) for e in lev for d in p.edge_map[e - 1])
                       for lev in g.filtration)
        if any(not lo < hi for lo, hi in zip(levels, levels[1:])):
            levels, flags = None, ("pushed-filtration-degenerate",)
    g2 = Graph(gstar.num_vertices, gstar.edge_ends, basepoint, marking,
               levels, g.weak_filtration if levels is not None else False)
    return g2, flags


def ref_apply_fold_move(g, spec):
    gstar, p, q = ref_fold_move(g, spec)
    gstar, push_flags = ref_push_graph_data(g, gstar, p)
    return RefRecord(spec, spec[4], GraphMap(g, gstar, p.vertex_map, p.edge_map),
                     GraphMap(gstar, g, q.vertex_map, q.edge_map),
                     spec[5] + push_flags)


def ref_apply_fold(f, spec):
    g, h = f.domain, f.codomain
    _, d1, d2, c, case, _ = spec
    pa, pb = f.image(d1), f.image(d2)
    record = ref_apply_fold_move(g, spec)
    gstar = record.quotient.codomain
    m1, m2 = abs(d1), abs(d2)
    emap = list(f.edge_map)
    vmap = f.vertex_map
    if case == 1:
        emap[m1 - 1] = pa[c:]
    elif case == 2:
        if m1 == m2:
            emap[m1 - 1] = pa[c:len(pa) - c]
            if not emap[m1 - 1]:
                raise StructuralError("overlapping self-fold segments")
        else:
            emap[m1 - 1] = pa[c:]
            emap[m2 - 1] = pb[c:]
        emap.append(pa[:c])
        vmap = vmap + (h.term(pa[c - 1]),)
    else:
        if vmap[g.term(d1)] != vmap[g.term(d2)]:
            raise StructuralError("case-3 fold with mismatched terminal images")
        del emap[m1 - 1]
        vdrop = max(g.term(d1), g.term(d2))
        vmap = tuple(w for v, w in enumerate(vmap) if v != vdrop)
    f1 = GraphMap(gstar, h, vmap, tuple(emap))
    if edgelet_count(f1) >= edgelet_count(f):
        raise StructuralError("fold failed to decrease the edgelet count")
    return record, f1


def ref_try_invert_homeo(f):
    g, h = f.domain, f.codomain
    counts = [0] * (h.num_edges + 1)
    for p in f.edge_map:
        if not p or reduce_word(p) != p:
            return None
        for d in p:
            counts[abs(d)] += 1
    if any(c != 1 for c in counts[1:]):
        return None
    vmap = [None] * h.num_vertices
    for v in range(g.num_vertices):
        if vmap[f.vertex_map[v]] is not None:
            return None
        vmap[f.vertex_map[v]] = v
    emap = [None] * h.num_edges
    for e in g.edge_ids:
        path = f.edge_map[e - 1]
        emap[abs(path[0]) - 1] = (e,) if path[0] > 0 else (-e,)
        for d in path[:-1]:
            if vmap[h.term(d)] is not None:
                return None
            vmap[h.term(d)] = g.term(e)
        for d in path[1:]:
            emap[abs(d) - 1] = ()
    if any(v is None for v in vmap):
        return None
    return GraphMap(h, g, tuple(vmap), tuple(emap))


def ref_fold_greedily(f):
    records = []
    while (spec := ref_find_fold(f)) is not None:
        record, f = ref_apply_fold(f, spec)
        records.append(record)
    return records, f


def ref_factorize(f):
    """(records, theta, theta_inverse) of the greedy factorization, or
    CertificationError."""
    f = tighten_map(f)
    if any(not p for p in f.edge_map):
        raise CertificationError("cannot factor a map with collapsed edges")
    try:
        records, f = ref_fold_greedily(f)
    except StructuralError as exc:
        raise CertificationError(
            "%s; the input was not a homotopy equivalence" % exc) from exc
    theta_inv = ref_try_invert_homeo(f)
    if theta_inv is None:
        raise CertificationError(
            "terminal immersion is not a homeomorphism; "
            "the input was not a homotopy equivalence")
    return records, f, theta_inv


def ref_clean_factorize(f, budget):
    seen = set()
    stack = [(tighten_map(f), ())]
    steps = 0
    while stack:
        if steps == budget:
            return "budget", steps, None
        steps += 1
        cur, recs = stack.pop()
        key = (cur.domain.edge_ends, cur.vertex_map, cur.edge_map)
        if key in seen:
            continue
        seen.add(key)
        cands = ref_fold_candidates(cur)
        if not cands:
            if ref_try_invert_homeo(cur) is not None:
                return "clean", steps, (recs, cur)
            continue
        branches = []
        for v, da, db in cands:
            spec = ref_normalize_spec(cur, v, da, db)
            if "case3-loop-at-v1" in spec[5]:
                continue
            try:
                record, nxt = ref_apply_fold(cur, spec)
            except StructuralError:
                continue
            branches.append((nxt, recs + (record,)))
        stack.extend(reversed(branches))
    return "none-exists", steps, None


def ref_controlled_inverse(source, records, theta_inv):
    g = tighten_map(theta_inv)
    for record in reversed(records):
        g = tighten_map(compose(record.inverse, g))

    def lc_of(m):
        return int(np.max(transition_matrix(m).entries, initial=0))

    stage_lcs = [lc_of(r.inverse) for r in records] + [lc_of(theta_inv)]
    k = len(stage_lcs)
    log_bound = (k - 1) * np.log(edge_bound(rank(source))) + sum(
        np.log(max(c, 1)) for c in stage_lcs)
    lc = lc_of(g)
    return g, InverseStats(len(records), lc, float(log_bound),
                           bool(np.log(max(lc, 1)) <= log_bound + 1e-9),
                           tuple(stage_lcs))


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def spec_tuple(spec):
    return (spec.vertex, spec.d1, spec.d2, spec.prefix_len, spec.case,
            spec.flags)


def assert_records_match(records, refs):
    assert [spec_tuple(r.spec) for r in records] == [r.spec for r in refs]
    for record, ref in zip(records, refs):
        assert record.case == ref.case
        assert record.flags == ref.flags
        # GraphMap equality covers both graphs with basepoint, marking and
        # filtration
        assert record.quotient == ref.quotient
        assert record.inverse == ref.inverse
        assert record.graph_star == ref.quotient.codomain


def assert_factorization_matches(f, fold=factorize):
    try:
        refs, theta, theta_inv = ref_factorize(f)
    except CertificationError:
        with pytest.raises(CertificationError):
            fold(f)
        return
    fact = fold(f)
    assert_records_match(fact.records, refs)
    assert fact.theta == theta
    assert fact.theta_inverse == theta_inv
    g = controlled_inverse(fact)
    stats = inverse_stats(fact, g)
    ref_g, ref_stats = ref_controlled_inverse(fact.source, refs, theta_inv)
    assert g == ref_g
    assert stats == ref_stats
    return fact


def assert_clean_order_matches(f, found, ref_found):
    """The records and terminal map of a clean order found by the search,
    and the controlled inverse and LC bookkeeping read off those records.
    The search's branches share record prefixes, and each record keeps
    what its fold computed when it was made."""
    records, terminal = found
    ref_records, ref_terminal = ref_found
    fact = FoldFactorization(f.domain, f.codomain, records, terminal,
                             _try_invert_homeo(terminal))
    g = controlled_inverse(fact)
    stats = inverse_stats(fact, g)
    ref_g, ref_stats = ref_controlled_inverse(
        f.domain, ref_records, ref_try_invert_homeo(ref_terminal))
    assert g == ref_g
    assert stats == ref_stats
    assert_records_match(records, ref_records)
    assert terminal.edge_map == ref_terminal.edge_map
    assert terminal.vertex_map == ref_terminal.vertex_map


def assert_greedy_folds_match(f):
    """The greedy fold sequence and the immersion it ends in, also when f
    is not a homotopy equivalence; a fold that cannot be made raises the
    same error in both."""
    f = tighten_map(f)
    try:
        refs, ref_terminal = ref_fold_greedily(f)
    except StructuralError as exc:
        with pytest.raises(StructuralError, match=str(exc)):
            _fold_greedily(_FoldState(f.domain, f))
        return
    state = _FoldState(f.domain, f)
    _fold_greedily(state)
    records = state.records()
    assert_records_match(records, refs)
    assert state.as_map(records[-1].graph_star if records else f.domain) \
        == ref_terminal
    if all(f.edge_map) and ref_try_invert_homeo(ref_terminal) is not None:
        assert_factorization_matches(f)


def random_graph(rng, nv, ne):
    """A connected graph: a random spanning tree, then random edges, each
    edge randomly oriented and the edge ids shuffled."""
    ends = [(int(rng.integers(0, v)), v) for v in range(1, nv)]
    ends += [(int(rng.integers(0, nv)), int(rng.integers(0, nv)))
             for _ in range(ne - nv + 1)]
    ends = [(u, v) if rng.integers(0, 2) else (v, u)
            for u, v in (ends[i] for i in rng.permutation(len(ends)))]
    return Graph(nv, tuple(ends))


def random_map(rng, g, h, max_walk):
    """A map g -> h: random vertex images, each edge image a random walk
    closed up by a tree path, reduced (possibly empty)."""
    links, tree = h.links(), spanning_tree(h)
    vmap = [int(rng.integers(0, h.num_vertices)) for _ in range(g.num_vertices)]
    emap = []
    for u, v in g.edge_ends:
        cur, path = vmap[u], []
        for _ in range(int(rng.integers(0, max_walk + 1))):
            d = links[cur][int(rng.integers(0, len(links[cur])))]
            path.append(d)
            cur = h.term(d)
        emap.append(reduce_word(tuple(path) + tree_path(h, tree, cur, vmap[v])))
    return make_graph_map(g, h, vmap, emap)


def subdivided_equivalence(rng, f, cuts):
    """A homotopy equivalence with many vertices on both sides from a rose
    map f: the codomain is subdivided, and so is the domain, each domain
    chain mapped onto consecutive pieces of its old image."""
    h = f.codomain
    for _ in range(cuts):
        h, smap = subdivide(h, int(rng.integers(1, h.num_edges + 1)),
                            int(rng.integers(2, 4)))
        f = compose(smap, f)
    g = f.domain
    for _ in range(cuts):
        e = int(rng.integers(1, g.num_edges + 1))
        image = f.edge_map[e - 1]
        k = min(int(rng.integers(2, 4)), len(image))
        if k < 2:
            continue
        g, smap = subdivide(g, e, k)
        chain = smap.edge_map[e - 1]
        cut = sorted(int(c) for c in rng.choice(
            np.arange(1, len(image)), size=k - 1, replace=False))
        bounds = [0] + cut + [len(image)]
        emap = list(f.edge_map) + [None] * (k - 1)
        vmap = list(f.vertex_map) + [None] * (k - 1)
        for i, d in enumerate(chain):
            emap[d - 1] = image[bounds[i]:bounds[i + 1]]
            if i < k - 1:
                vmap[g.term(d)] = h.term(image[bounds[i + 1] - 1])
        f = make_graph_map(g, h, vmap, emap)
    return f


def rose_map(images):
    rose = rose_graph(len(images))
    return tighten_map(GraphMap(rose, rose, (0,), tuple(images)))


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(2, 6), st.integers(0, 24))
def test_factorize_matches_reference_on_random_roses(seed, n, length):
    aut = random_automorphism(n, length, np.random.default_rng(seed))
    f = tighten_map(rose_representative(aut))
    assert_factorization_matches(f)
    # expansion_pairs folds the rose map as built, without factorize's
    # tightening and collapsed-edge test: an Automorphism's images are
    # reduced and nonempty, so the reference, which tightens, folds the same
    assert_factorization_matches(rose_representative(aut), _factorize_tight)


def test_pipeline_fold_matches_reference_on_the_experiment_ensemble(
        monkeypatch):
    """The trials of `experiment --rank 3 --length 10 --seed 1`, flagged
    greedy folds among them, each folded as expansion_pairs folds it.  A
    flagged record is kept only after the search past a flagged least
    candidate, which reads the letter groups the greedy step has scanned:
    every flagged trial takes that path, and none rebuilds the groups
    through candidates()."""
    fallback = _FoldState._unflagged_fold
    searched = []

    def counted(self, groups, first):
        searched.append(first)
        return fallback(self, groups, first)

    def refused(self):
        raise AssertionError("the greedy fold rebuilt its letter groups")

    monkeypatch.setattr(_FoldState, "_unflagged_fold", counted)
    monkeypatch.setattr(_FoldState, "candidates", refused)
    flagged = 0
    for aut in trial_automorphisms(3, 10, 1, range(200)):
        del searched[:]
        fact = assert_factorization_matches(
            rose_representative(normalize_outer(aut)), _factorize_tight)
        kept = [r.spec for r in fact.records if r.spec.flags]
        assert set(kept) <= set(searched)
        flagged += bool(kept)
    assert flagged


def test_controlled_inverse_wraps_only_columns_that_change(monkeypatch):
    """A stage column with empty pre and post words, an edge of G* that is
    its own edge of G turned round or not, or the new edge of a case-2 fold,
    leaves its path as it is: over the 1000 trials of `experiment --rank 3
    --length 10 --seed 1` no _wrap call gets two empty words.  The test
    above checks the first 200 of these inverses against the reference."""
    wrap = folding._wrap
    calls = []

    def counted(path, pre, post):
        calls.append(bool(pre or post))
        return wrap(path, pre, post)

    monkeypatch.setattr(folding, "_wrap", counted)
    for aut in trial_automorphisms(3, 10, 1, range(1000)):
        controlled_inverse(
            _factorize_tight(rose_representative(normalize_outer(aut))))
    assert calls and all(calls)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 4), st.integers(0, 3),
       st.integers(1, 4), st.integers(0, 3), st.integers(0, 6))
def test_greedy_folds_match_reference_on_random_graph_maps(
        seed, nv, extra, hv, hextra, walk):
    """Arbitrary tight maps between multi-vertex graphs: vertex images and
    split points differ from vertex to vertex."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, nv, nv - 1 + extra)
    h = random_graph(rng, hv, hv + hextra)
    assert_greedy_folds_match(random_map(rng, g, h, walk))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(2, 4), st.integers(1, 16),
       st.integers(1, 4))
def test_factorize_matches_reference_on_subdivided_equivalences(
        seed, n, length, cuts):
    rng = np.random.default_rng(seed)
    aut = random_automorphism(n, length, rng)
    f = subdivided_equivalence(rng, tighten_map(rose_representative(aut)),
                               cuts)
    assert_greedy_folds_match(f)
    assert_factorization_matches(f)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(2, 4), st.integers(1, 12))
def test_pg_chains_match_reference(seed, n, length):
    """Filtered chains of case-1 folds into lower strata: the records carry
    the filtration, and factorizing the composed chain map folds a filtered
    domain."""
    f, g, records = pg_chain(np.random.default_rng(seed), n, length)
    cur = records[0].quotient.domain
    refs = []
    for record in records:
        refs.append(ref_apply_fold_move(cur, spec_tuple(record.spec)))
        cur = refs[-1].quotient.codomain
    assert_records_match(records, refs)
    assert_factorization_matches(f)
    assert_factorization_matches(g)
    assert certify_homotopy_equivalence(f)


@settings(max_examples=5, deadline=None)
@given(st.integers(1, 2000), st.integers(0, 3), st.sampled_from([1, -1]),
       st.booleans())
def test_twists_match_reference(m, shift, sign, left):
    """x2 -> x2 x1^m and its relatives: one long image loses a letter per
    fold, and the inverse gains one per stage."""
    power = (sign,) * m
    body = (2,) + power if not left else power + (2,)
    body = (1,) * shift + body + (-1,) * shift
    assert_factorization_matches(rose_map([(1,), body]))


def test_twist_at_two_thousand_matches_reference():
    fact = assert_factorization_matches(rose_map([(1,), (2,) + (1,) * 2000]))
    assert fact.fold_count == 2000


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(2, 5), st.integers(4, 16))
def test_clean_search_matches_reference(seed, n, length):
    aut = random_automorphism(n, length, np.random.default_rng(seed))
    f = tighten_map(rose_representative(aut))
    outcome, steps, found = _clean_factorize(f, budget=300)
    ref_outcome, ref_steps, ref_found = ref_clean_factorize(f, budget=300)
    assert (outcome, steps) == (ref_outcome, ref_steps)
    assert (found is None) == (ref_found is None)
    if found is not None:
        assert_clean_order_matches(f, found, ref_found)


@pytest.mark.parametrize("text", [
    "a->a, b->b^-1 db, c->ddb, d->c^-1",
    "a->ac^-1, b->b, c->ca^-1 a^-1",
    "a->ac, b->a, c->b",
])
def test_flagged_maps_match_reference(text):
    f = tighten_map(rose_representative(parse_automorphism(text)))
    assert_factorization_matches(f)
    outcome, steps, found = _clean_factorize(f, budget=2_000_000)
    ref_outcome, ref_steps, ref_found = ref_clean_factorize(f, 2_000_000)
    assert (outcome, steps) == (ref_outcome, ref_steps)
    assert (found is None) == (ref_found is None)
    if found is not None:
        assert_clean_order_matches(f, found, ref_found)


@pytest.mark.parametrize("images", [
    [(1, 1), (2,)], [(1, 2, 1), (2, 1, 2)], [(1,), (1,)], [(1, 2), (1, 2)],
])
def test_non_equivalences_fail_like_reference(images):
    errors = []
    for run in (ref_factorize, factorize):
        with pytest.raises(CertificationError) as err:
            run(rose_map(images))
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]

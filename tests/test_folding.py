import subprocess
import sys
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foldtrack.audits import _pi1_surjective
from foldtrack.automorphisms import simultaneously_conjugate
from foldtrack.errors import CertificationError, StructuralError
from foldtrack.folding import (
    FoldSpec, apply_fold, apply_fold_move, certify_homotopy_equivalence,
    collapse_edges, controlled_inverse, edge_bound, factorize, find_fold,
    folds_into_lower_strata, inverse_stats, invert_fold, invert_homeomorphism,
    is_homeomorphism,
)
from foldtrack.graph import (
    components, frontier, make_graph, rank, spanning_tree, tree_path,
)
from foldtrack.graph_map import (
    apply_path, compose, edgelet_count, gate_count, identity_map,
    make_graph_map, subdivide, tighten_map, transition_matrix,
)
from foldtrack.graph import pi1_word
from foldtrack.words import reduce_word


def outer_trivial(f):
    """f : G -> G induces the identity outer automorphism."""
    g = f.domain
    from dataclasses import replace
    g = replace(g, basepoint=g.basepoint if g.basepoint is not None else 0)
    tree = spanning_tree(g)
    gens = [e for e in g.edge_ids if e not in tree]
    ws, vs = [], []
    for e in gens:
        u, v = g.edge_ends[e - 1]
        loop = tree_path(g, tree, g.basepoint, u) + (e,) + \
            tree_path(g, tree, v, g.basepoint)
        ws.append(pi1_word(g, apply_path(f, loop), tree))
        vs.append(pi1_word(g, loop, tree))
    return simultaneously_conjugate(ws, vs)


def test_find_fold_examples(rose2, fibonacci):
    spec = find_fold(fibonacci)
    assert (spec.d1, spec.d2, spec.case) == (1, 2, 1)
    ident = identity_map(rose2)
    assert find_fold(ident) is None
    f = make_graph_map(rose2, rose2, (0,), [(1,), (1, 2)])
    spec2 = find_fold(f)
    assert spec2.case == 1 and spec2.d1 == 2 and spec2.d2 == 1


def test_case1_fold_quotient(rose2):
    f = make_graph_map(rose2, rose2, (0,), [(1,), (1, 2)])
    record, f1 = apply_fold(f, find_fold(f))
    assert record.case == 1
    assert record.quotient.edge_map == ((1,), (1, 2))  # p(b) = a b*
    assert f1.edge_map == ((1,), (2,))
    assert is_homeomorphism(f1)
    assert record.inverse.edge_map == ((1,), (-1, 2))  # q(b*) = a^-1 b
    assert compose(f1, record.quotient).edge_map == f.edge_map


def test_case2_fold_creates_trivalent_vertex(rose3):
    # only fold candidate pairs directions 1, 2 with both segments proper
    f = make_graph_map(rose3, rose3, (0,), [(1, 2), (1, 3), (3, 3)])
    spec = find_fold(f)
    assert spec.case == 2
    record, f1 = apply_fold(f, spec)
    w_star = f.domain.num_vertices  # the new vertex gets the appended id
    assert record.graph_star.num_vertices == f.domain.num_vertices + 1
    assert gate_count(f1, w_star) == 3
    assert compose(f1, record.quotient).edge_map == f.edge_map
    assert outer_trivial(tighten_map(compose(record.inverse, record.quotient)))


def test_case3_fold(rose2):
    g = make_graph(3, [(0, 1), (0, 2), (1, 1), (2, 1)])
    h = rose2
    f = make_graph_map(g, h, (0, 0, 0), [(1,), (1,), (2,), (1,)])
    spec = find_fold(f)
    assert spec.case == 3
    # labelling prefers the loop-free terminal as v1
    assert g.term(spec.d1) == 2 and "case3-loop-at-v1" not in spec.flags
    record, f1 = apply_fold(f, spec)
    assert record.graph_star.num_vertices == g.num_vertices - 1
    assert record.graph_star.num_edges == g.num_edges - 1
    assert compose(f1, record.quotient).edge_map == f.edge_map
    assert outer_trivial(tighten_map(compose(record.inverse, record.quotient)))
    from foldtrack.spectra import lc
    assert lc(transition_matrix(record.inverse).entries) == 1


def test_fold_decreases_edgelets(fibonacci):
    record, f1 = apply_fold(fibonacci, find_fold(fibonacci))
    assert edgelet_count(f1) < edgelet_count(fibonacci)


def test_factorize_homeomorphism_is_zero_folds(rose2):
    ident = identity_map(rose2)
    fact = factorize(ident)
    assert fact.fold_count == 0
    assert fact.theta.edge_map == ident.edge_map


def test_factorize_single_fold(rose2):
    f = make_graph_map(rose2, rose2, (0,), [(1,), (1, 2)])
    fact = factorize(f)
    assert fact.fold_count == 1
    g = controlled_inverse(fact)
    assert tighten_map(g).edge_map == ((1,), (-1, 2))


def test_factorize_fibonacci_recomposition(fibonacci):
    fact = factorize(fibonacci)
    recomposed = fact.theta
    for record in reversed(fact.records):
        recomposed = compose(recomposed, record.quotient)
    assert recomposed.edge_map == fibonacci.edge_map
    assert recomposed.vertex_map == fibonacci.vertex_map


def test_controlled_inverse_examples(rose2, fibonacci, parageometric):
    fact = factorize(fibonacci)
    g = controlled_inverse(fact)
    stats = inverse_stats(fact, g)
    assert tighten_map(g).edge_map == ((2,), (-2, 1))
    assert stats.lc >= 1 and stats.within_bound
    ident = identity_map(rose2)
    gi = controlled_inverse(factorize(ident))
    assert tighten_map(gi).edge_map == ident.edge_map
    from foldtrack.automorphisms import rose_representative
    pg = rose_representative(parageometric)
    gp = controlled_inverse(factorize(pg))
    assert tighten_map(gp).edge_map == ((2,), (3,), (-2, 1))


def test_every_record_inverse_lc_one(fibonacci, parageometric):
    from foldtrack.automorphisms import rose_representative
    from foldtrack.spectra import lc
    for f in (fibonacci, rose_representative(parageometric)):
        fact = factorize(f)
        for record in fact.records:
            assert lc(transition_matrix(record.inverse).entries) == 1
            assert outer_trivial(
                tighten_map(compose(record.inverse, record.quotient)))


def test_invert_homeomorphism_cases(rose2):
    # simplicial isomorphism: a relabelling
    swap = make_graph_map(rose2, rose2, (0,), [(2,), (1,)])
    inv = invert_homeomorphism(swap)
    assert inv.edge_map == ((2,), (1,))
    # pure subdivision: inverse collapses
    g2, smap = subdivide(rose2, 1, 3)
    inv2 = invert_homeomorphism(smap)
    assert sum(1 for p in inv2.edge_map if p == ()) == 2
    assert tighten_map(compose(inv2, smap)).edge_map == ((1,), (2,))
    # subdivision followed by an isomorphism (swap the two petal chains)
    ids = identity_map(g2)
    comp = compose(ids, smap)
    inv3 = invert_homeomorphism(comp)
    assert tighten_map(compose(inv3, comp)).edge_map == ((1,), (2,))
    with pytest.raises(CertificationError):
        invert_homeomorphism(make_graph_map(rose2, rose2, (0,), [(1, 2), (1,)]))
    # onto, and each failing one condition only: a petal collapsed; a
    # segment closed up into a circle; two parallel edges onto one edge; a
    # loop whose image passes through the image of an isolated vertex
    circle = make_graph(1, [(0, 0)])
    assert not is_homeomorphism(make_graph_map(rose2, circle, (0,), [(1,), ()]))
    segment = make_graph(2, [(0, 1)])
    assert not is_homeomorphism(make_graph_map(segment, circle, (0, 0), [(1,)]))
    theta1 = make_graph(2, [(0, 1), (0, 1)])
    assert not is_homeomorphism(
        make_graph_map(theta1, segment, (0, 1), [(1,), (1,)]))
    loop_and_point = make_graph(2, [(0, 0)])
    two_cycle = make_graph(2, [(0, 1), (1, 0)])
    assert not is_homeomorphism(
        make_graph_map(loop_and_point, two_cycle, (0, 1), [(1, 2)]))


def test_factorize_rejects_non_equivalence(rose2):
    bad = make_graph_map(rose2, rose2, (0,), [(1, 1), (2,)])
    with pytest.raises(CertificationError) as err:
        factorize(bad)
    assert err.value.residual is not None


def test_folds_into_lower_strata():
    from foldtrack.audits import pg_chain
    rng = np.random.default_rng(3)
    f, g, records = pg_chain(rng, rank=3, length=5)
    for record in records:
        assert folds_into_lower_strata(record, 2)
    # a fold of two stratum-2 edges is not into lower strata
    rose = make_graph(1, [(0, 0)] * 3, basepoint=0, marking=[(1,), (2,), (3,)],
                      filtration=[{1}, {1, 2, 3}])
    spec = FoldSpec(vertex=0, d1=2, d2=3, prefix_len=1, case=1)
    record = apply_fold_move(rose, spec)
    assert not folds_into_lower_strata(record, 2)


def test_pg_equality_single_instance():
    from foldtrack.audits import pg_chain
    rng = np.random.default_rng(11)
    f, g, records = pg_chain(rng, rank=3, length=6)
    assert transition_matrix(f).entries == transition_matrix(g).entries


def test_pushed_filtration_index_ordering():
    # transition matrices stay filtration-ordered after every pushforward
    from foldtrack.audits import pg_chain
    rng = np.random.default_rng(4)
    _, _, records = pg_chain(rng, rank=3, length=5)
    for record in records:
        tm = transition_matrix(record.quotient)
        assert tm.row_levels == tuple(sorted(tm.row_levels))
        assert tm.col_levels == tuple(sorted(tm.col_levels))
        assert record.graph_star.filtration is not None


def test_lc_product_bound_on_random_inverses():
    from foldtrack.automorphisms import random_automorphism, rose_representative
    rng = np.random.default_rng(5)
    for _ in range(20):
        aut = random_automorphism(3, 8, rng)
        fact = factorize(tighten_map(rose_representative(aut)))
        stats = inverse_stats(fact, controlled_inverse(fact))
        assert stats.within_bound


def test_frontier_monotone_along_supported_factorization():
    g = make_graph(1, [(0, 0)] * 3, basepoint=0, marking=[(1,), (2,), (3,)],
                   filtration=[{1, 2}, {1, 2, 3}])
    f = make_graph_map(g, g, (0,), [(1,), (2, 1), (3,)])
    fact = factorize(f)
    sizes = []
    for record in fact.records:
        dom = record.quotient.domain
        if dom.filtration is not None:
            sizes.append(len(frontier(dom, 1, 1)))
    star = fact.records[-1].graph_star if fact.records else g
    if star.filtration is not None:
        sizes.append(len(frontier(star, 1, 1)))
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_invert_fold_support_bookkeeping():
    from foldtrack.audits import pg_chain
    rng = np.random.default_rng(2)
    _, _, records = pg_chain(rng, rank=3, length=3)
    q, supported, widened = invert_fold(records[0], b=2, a=2)
    assert q is records[0].inverse
    assert not widened


def test_certify_homotopy_equivalence(rose2, fibonacci):
    assert certify_homotopy_equivalence(fibonacci)
    assert certify_homotopy_equivalence(identity_map(rose2))
    # degree-2 circle cover is not a homotopy equivalence
    circle = make_graph(1, [(0, 0)], basepoint=0, marking=[(1,)])
    deg2 = make_graph_map(circle, circle, (0,), [(1, 1)])
    assert not certify_homotopy_equivalence(deg2)
    # collapsed tree edge is fine
    g2, smap = subdivide(rose2, 1, 2)
    inv = invert_homeomorphism(smap)
    assert certify_homotopy_equivalence(inv)
    # collapsed essential loop is not
    bad = make_graph_map(rose2, rose2, (0,), [(), (2,)])
    assert not certify_homotopy_equivalence(bad)


def test_collapse_edges(theta):
    g2, cmap = collapse_edges(theta, {1})
    assert g2.num_vertices == 1 and g2.num_edges == 2
    assert rank(g2) == rank(theta)
    with pytest.raises(StructuralError):
        collapse_edges(theta, {1, 2})  # contains a cycle


def test_forced_loop_merge_has_lc_two():
    """Some homotopy equivalences admit no fold factorization in which every
    explicit inverse has LC = 1: every fold order eventually merges two
    loop-carrying vertices, and the inverse then crosses the connecting path
    twice.  The engine flags exactly those records and LC never exceeds 2.
    (Exhaustive search over all fold orders confirms no clean sequence for
    this map; see the README's "Notes on guarantees".)"""
    from foldtrack.automorphisms import parse_automorphism, rose_representative
    from foldtrack.folding import _clean_factorize
    from foldtrack.spectra import lc
    aut = parse_automorphism("a->a, b->b^-1 db, c->ddb, d->c^-1")
    f = tighten_map(rose_representative(aut))
    outcome, _, found = _clean_factorize(f, budget=2_000_000)
    assert outcome == "none-exists" and found is None
    fact = factorize(f)
    bad = [r for r in fact.records
           if lc(transition_matrix(r.inverse).entries) != 1]
    assert bad, "expected at least one LC=2 record on this map"
    for record in fact.records:
        value = lc(transition_matrix(record.inverse).entries)
        assert value <= 2
        assert (value == 1) == ("case3-loop-at-v1" not in record.flags)
    # the controlled inverse is still correct
    g = controlled_inverse(fact)
    assert outer_trivial(tighten_map(compose(g, f)))


def test_factorize_and_inverse_log_at_debug(caplog):
    from foldtrack.automorphisms import parse_automorphism, rose_representative
    aut = parse_automorphism("a->a, b->b^-1 db, c->ddb, d->c^-1")
    f = tighten_map(rose_representative(aut))
    with caplog.at_level("DEBUG", logger="foldtrack"):
        controlled_inverse(factorize(f))
    assert [r.getMessage() for r in caplog.records] == [
        "factorize: 3 folds (case 1: 1, case 2: 1, case 3: 1); "
        "flagged records [(3, ('case3-loop-at-v1',))]",
        "controlled inverse: 4 stages (3 folds and the terminal "
        "homeomorphism), LC 2",
    ]


def test_clean_factorize_reports_search_outcome():
    """factorize never searches; clean_factorize says why its search
    stopped: a clean order found, none exists, or the budget ran out."""
    from foldtrack.automorphisms import parse_automorphism, rose_representative
    from foldtrack.folding import _clean_factorize, clean_factorize

    def rose_map(text):
        return tighten_map(rose_representative(parse_automorphism(text)))

    def flagged(fact):
        return sum("case3-loop-at-v1" in r.flags for r in fact.records)

    # greedy order dirty, a clean order exists
    f = rose_map("a->ac^-1, b->b, c->ca^-1 a^-1")
    greedy = factorize(f)
    assert flagged(greedy) == 1
    assert (greedy.clean_outcome, greedy.clean_steps) == ("not-run", 0)
    fact = clean_factorize(f)
    assert fact.clean_outcome == "clean" and fact.clean_steps > 0
    assert flagged(fact) == 0
    g = controlled_inverse(fact)
    assert outer_trivial(tighten_map(compose(g, f)))
    assert _clean_factorize(f, budget=1) == ("budget", 1, None)
    # no clean order: the greedy records are kept
    forced = rose_map("a->a, b->b^-1 db, c->ddb, d->c^-1")
    fact = clean_factorize(forced)
    assert fact.clean_outcome == "none-exists" and fact.clean_steps > 0
    assert fact.records == factorize(forced).records
    # greedy order already clean: nothing to search
    fib = clean_factorize(rose_map("a->ab, b->a"))
    assert (fib.clean_outcome, fib.clean_steps) == ("clean", 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(2, 4))
def test_factorize_roundtrip_random(seed, n):
    from foldtrack.automorphisms import random_automorphism, rose_representative
    rng = np.random.default_rng(seed)
    aut = random_automorphism(n, 8, rng)
    f = tighten_map(rose_representative(aut))
    fact = factorize(f)
    # edgelet counts strictly decrease stage by stage
    counts = [edgelet_count(f)]
    cur = f
    for record in fact.records:
        _, cur = apply_fold(cur, record.spec)
        counts.append(edgelet_count(cur))
    assert all(a > b for a, b in zip(counts, counts[1:]))
    assert fact.fold_count <= edgelet_count(f)
    g = controlled_inverse(fact)
    assert outer_trivial(tighten_map(compose(g, f)))
    assert outer_trivial(tighten_map(compose(f, g)))


_TWIST_FOLDS = """
import sys, time
from foldtrack.automorphisms import rose_graph
from foldtrack.folding import controlled_inverse, factorize, inverse_stats
from foldtrack.graph_map import GraphMap
m = int(sys.argv[1])
rose = rose_graph(2)
f = GraphMap(rose, rose, (0,), ((1,), (2,) + (1,) * m))
t0 = time.perf_counter()
fact = factorize(f)
g = controlled_inverse(fact)
inverse_stats(fact, g)
elapsed = time.perf_counter() - t0
assert fact.fold_count == m and g.edge_map == ((1,), (2,) + (-1,) * m)
print(elapsed)
"""


def test_twist_folds_in_near_linear_time():
    """x2 -> x2 x1^m folds one letter per fold, and one inverse image grows
    by a letter per stage.  At m = 10^5, factorize, controlled_inverse and
    its inverse_stats must fit the acceptance-6 budget of 5 s; a fold or a
    stage that copies the long image makes this quadratic (minutes).  The
    child process is cut at 60 s, so a regression fails instead of
    hanging."""
    proc = subprocess.run([sys.executable, "-c", _TWIST_FOLDS, "100000"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert float(proc.stdout) < 5.0


def _random_small_map(rng):
    """A map between two random graphs of 1-3 vertices and 0-4 edges,
    loops and several components allowed.  Each domain component goes to a
    random codomain component; each edge to a random walk of 0-3 steps
    closed up by a shortest path, then reduced, so sometimes empty."""
    def graph():
        nv, ne = int(rng.integers(1, 4)), int(rng.integers(0, 5))
        return make_graph(nv, [(int(rng.integers(0, nv)),
                                int(rng.integers(0, nv))) for _ in range(ne)])

    g, h = graph(), graph()
    links = h.links()

    def shortest_path(u, v):
        paths, queue = {u: ()}, deque([u])
        while v not in paths:
            w = queue.popleft()
            for d in links[w]:
                if h.term(d) not in paths:
                    paths[h.term(d)] = paths[w] + (d,)
                    queue.append(h.term(d))
        return paths[v]

    cod_comps = [sorted(c) for c in components(h)]
    vmap = [None] * g.num_vertices
    for comp in components(g):
        target = cod_comps[int(rng.integers(0, len(cod_comps)))]
        for v in comp:
            vmap[v] = target[int(rng.integers(0, len(target)))]
    emap = []
    for u, v in g.edge_ends:
        cur, path = vmap[u], []
        for _ in range(int(rng.integers(0, 4))):
            if not links[cur]:
                break
            d = links[cur][int(rng.integers(0, len(links[cur])))]
            path.append(d)
            cur = h.term(d)
        emap.append(reduce_word(tuple(path) + shortest_path(cur, vmap[v])))
    return make_graph_map(g, h, vmap, emap)


def test_certification_matches_pi1_oracle_on_small_maps():
    """Fold certification agrees with the word-level pi_1 certificate on
    random small maps, disconnected ones and ones collapsing edges among
    them; the sample holds equivalences of both kinds."""
    rng = np.random.default_rng(14)
    kinds = Counter()
    for _ in range(5000):
        f = _random_small_map(rng)
        certified = certify_homotopy_equivalence(f)
        assert certified == _pi1_surjective(f), f
        if certified:
            kinds["equivalence"] += 1
            kinds["disconnected"] += len(components(f.domain)) > 1
            kinds["collapsing"] += not all(f.edge_map)
    assert min(kinds[k] for k in
               ("equivalence", "disconnected", "collapsing")) > 0, kinds


def test_lambda_mu_and_invert_paths_build_no_stage_maps(monkeypatch,
                                                       parageometric):
    """expansion_pair and the clean factorization with its controlled
    inverse read fold specs only: no record's quotient, stage inverse or
    pushed filtration is built on either path."""
    from foldtrack import folding
    from foldtrack.automorphisms import (
        expansion_pair, parse_automorphism, rose_representative,
    )

    def no_stage_maps(g, record):
        raise AssertionError("stage maps built for %r" % (record.spec,))

    monkeypatch.setattr(folding, "_stage_maps", no_stage_maps)
    assert expansion_pair(parageometric).factorization.fold_count > 0
    # the flagged map of the CLI's clean-search outcome test
    f = tighten_map(rose_representative(
        parse_automorphism("a->a, b->b^-1 db, c->ddb, d->c^-1")))
    fact = folding.clean_factorize(f)
    assert fact.clean_outcome == "none-exists"
    stats = folding.inverse_stats(fact, controlled_inverse(fact))
    assert stats.lc == 2


def test_one_graph_move_per_fold(monkeypatch):
    """Each fold's vertices and stage-inverse columns are worked out once,
    when the fold is made: the controlled inverse, its LC bookkeeping and
    the stage maps read them off the records."""
    from foldtrack import folding
    from foldtrack.automorphisms import expansion_pairs, trial_automorphisms

    calls = Counter()

    def counted(name):
        function = getattr(folding, name)

        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        monkeypatch.setattr(folding, name, wrapper)

    counted("_fold_vertices")
    counted("_inverse_columns")
    pairs = expansion_pairs(trial_automorphisms(3, 10, 1, range(100)))
    folds = sum(p.factorization.fold_count for p in pairs)
    assert folds > 100
    assert sum(p.inverse_stats.fold_count for p in pairs) == folds
    assert calls == {"_fold_vertices": folds, "_inverse_columns": folds}
    for pair in pairs:
        for record in pair.factorization.records:
            assert record.inverse.codomain == record.quotient.domain
    assert calls == {"_fold_vertices": folds, "_inverse_columns": folds}

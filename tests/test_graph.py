import json
import random

import pytest
from hypothesis import given, strategies as st

from foldtrack.errors import StructuralError
from foldtrack.folding import collapse_edges
from foldtrack.graph import (
    Graph, components, frontier, graph_from_json, graph_to_json, make_graph,
    pi1_word, rank, spanning_tree, stratum, subgraph_components,
    subgraph_rank, tighten, tree_path, validate_filtration,
)


def test_rank_examples(rose2, theta):
    assert rank(rose2) == 2
    assert rank(theta) == 2
    tree = make_graph(2, [(0, 1)])
    assert rank(tree) == 0


def test_tighten_examples(rose2):
    assert tighten(rose2, (1, -1, 2)) == (2,)
    assert tighten(rose2, (1, 2)) == (1, 2)
    assert tighten(rose2, (1, 2, -2, -1)) == ()


def test_tighten_rejects_broken_paths(theta):
    with pytest.raises(StructuralError):
        tighten(theta, (1, 2))  # both run 0->1; not composable


def test_tighten_idempotent_and_shortening(rose2):
    p = (1, 1, -1, 2, -2, 1)
    t = tighten(rose2, p)
    assert tighten(rose2, t) == t
    assert len(t) <= len(p)


def test_stratum_and_frontier(rose2):
    g = rose2.with_filtration([{1}, {1, 2}])
    vs, es = stratum(g, 1, 1)
    assert es == {1}
    vs2, es2 = stratum(g, 2, 2)
    assert es2 == {2} and vs2 == {0}
    vs3, es3 = stratum(g, 2, 1)
    assert es3 == {1, 2}
    assert frontier(g, 1, 1) == {0}
    assert frontier(g, 2, 2) == frozenset()
    with pytest.raises(ValueError):
        stratum(g, 3, 1)


def test_frontier_empty_for_disjoint_circle():
    # G_1 a circle untouched by the higher edges
    g = make_graph(2, [(0, 0), (1, 1)], filtration=[{1}, {1, 2}])
    assert frontier(g, 1, 1) == frozenset()


def test_filtration_validation_rejects_valence_one():
    with pytest.raises(StructuralError):
        make_graph(2, [(0, 1), (0, 0), (1, 1)],
                   filtration=[{1}, {1, 2, 3}])  # G_1 is an arc


def test_filtration_length_bound():
    g = make_graph(1, [(0, 0)] * 2)
    with pytest.raises(StructuralError):
        # length 4 > 2*2-1 for rank 2 cannot even be properly nested here,
        # nesting fails first; use an explicit length check instead
        g.with_filtration([{1}, {1, 2}, {1, 2}, {1, 2}])


def test_filtration_progression():
    # each level must raise rank or drop component count; valid 2-level chain
    g = make_graph(2, [(0, 0), (1, 1), (0, 1)])
    g = g.with_filtration([{1, 2}, {1, 2, 3}])
    validate_filtration(g)


def test_spanning_tree_deterministic(theta):
    assert spanning_tree(theta) == frozenset({1})
    g = make_graph(3, [(0, 1), (1, 2), (0, 2), (2, 2)], basepoint=0)
    assert spanning_tree(g) == frozenset({1, 2})


def test_tree_path_and_pi1(theta):
    tree = spanning_tree(theta)
    assert tree_path(theta, tree, 0, 1) == (1,)
    # pi_1 basis: edges 2,3 -> generators 1,2
    assert pi1_word(theta, (1, -2)) == (-1,)
    assert pi1_word(theta, (2, -3)) == (1, -2)


def test_components():
    g = make_graph(4, [(0, 1), (2, 2)])
    comps = components(g)
    assert sorted(sorted(c) for c in comps) == [[0, 1], [2], [3]]
    assert subgraph_rank(g, {2}) == 1


def _reference_components(n, ends):
    """Components of the vertices 0..n-1 under the given edge ends, by
    depth-first search from each unseen vertex in increasing order."""
    adjacent = [[] for _ in range(n)]
    for u, v in ends:
        adjacent[u].append(v)
        adjacent[v].append(u)
    seen, comps = set(), []
    for start in range(n):
        if start not in seen:
            seen.add(start)
            comp, stack = {start}, [start]
            while stack:
                for w in adjacent[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        comp.add(w)
                        stack.append(w)
            comps.append(comp)
    return comps


def _reference_prim_tree(g, base):
    """Grow a tree from base, always adding the lowest-id edge that reaches
    a new vertex; None when the graph is not connected."""
    tree, reached = set(), {base}
    while len(reached) < g.num_vertices:
        best = next((e for e, (u, v) in enumerate(g.edge_ends, start=1)
                     if (u in reached) != (v in reached)), None)
        if best is None:
            return None
        tree.add(best)
        reached.update(g.edge_ends[best - 1])
    return frozenset(tree)


def _random_multigraph(rng):
    """1-8 vertices and 0-14 edges drawn uniformly: loops, parallel edges,
    isolated vertices and several components all occur."""
    n = rng.randint(1, 8)
    ends = [(rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(0, 14))]
    return Graph(n, tuple(ends))


def test_union_find_callers_match_reference():
    """components, rank, subgraph_components, subgraph_rank, spanning_tree
    and collapse_edges share one union-find; each agrees with a search
    written out here, component order and collapse numbering included."""
    rng = random.Random(24)
    kinds = set()
    for _ in range(600):
        g = _random_multigraph(rng)
        n, ends = g.num_vertices, g.edge_ends
        comps = _reference_components(n, ends)
        assert components(g) == comps
        assert rank(g) == len(ends) - n + len(comps)
        kinds.update(("loop" if u == v else "edge") for u, v in ends)
        kinds.add("parallel" if len(set(ends)) < len(ends) else None)
        kinds.add("isolated" if any(len(c) == 1 for c in comps) else None)
        kinds.add("disconnected" if len(comps) > 1 else None)

        subset = frozenset(e for e in g.edge_ids if rng.random() < 0.5)
        closure = {x for e in subset for x in ends[e - 1]}
        sub = [c & closure for c in _reference_components(
            n, [ends[e - 1] for e in subset]) if c & closure]
        assert subgraph_components(g, subset) == sub
        assert subgraph_rank(g, subset) == len(subset) - len(closure) + len(sub)

        prim = _reference_prim_tree(g, rng.randrange(n))
        if prim is None:
            with pytest.raises(StructuralError):
                spanning_tree(g)
        else:
            assert spanning_tree(g) == prim

        forest = []
        for e in rng.sample(list(g.edge_ids), len(ends)):
            joined = [ends[d - 1] for d in forest + [e]]
            if len(_reference_components(n, joined)) == n - len(joined):
                forest.append(e)
        g2, cmap = collapse_edges(g, forest)
        classes = _reference_components(n, [ends[e - 1] for e in forest])
        vmap = tuple(next(i for i, c in enumerate(classes) if v in c)
                     for v in range(n))
        kept = [e for e in g.edge_ids if e not in forest]
        assert cmap.vertex_map == vmap
        assert cmap.edge_map == tuple(
            () if e in forest else (kept.index(e) + 1,) for e in g.edge_ids)
        assert g2 == Graph(len(classes), tuple(
            (vmap[ends[e - 1][0]], vmap[ends[e - 1][1]]) for e in kept))
        if subgraph_rank(g, subset) > 0:
            with pytest.raises(StructuralError):
                collapse_edges(g, subset)
    assert kinds >= {"loop", "edge", "parallel", "isolated", "disconnected"}


def test_json_roundtrip(rose2):
    g = rose2.with_filtration([{1}, {1, 2}])
    data = graph_to_json(g)
    text = json.dumps(data)
    g2 = graph_from_json(json.loads(text))
    assert g2.edge_ends == g.edge_ends
    assert g2.marking == g.marking
    assert g2.filtration == g.filtration
    assert g2.basepoint == g.basepoint


def test_marked_graph_validation():
    with pytest.raises(StructuralError):
        make_graph(2, [(0, 0), (1, 1)], basepoint=0, marking=[(1,), (2,)])
    with pytest.raises(StructuralError):
        make_graph(1, [(0, 0), (0, 0)], basepoint=0, marking=[(1,)])
    # letters must be signed edge ids: 0 is no edge, 5 and -3 do not exist
    for bad in (0, 5, -3):
        with pytest.raises(StructuralError):
            make_graph(1, [(0, 0), (0, 0)], basepoint=0, marking=[(1,), (bad,)])


@given(st.integers(2, 5))
def test_rose_rank(n):
    g = make_graph(1, [(0, 0)] * n)
    assert rank(g) == n

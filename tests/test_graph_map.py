import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foldtrack.errors import StructuralError
from foldtrack.graph import make_graph, rank
from foldtrack.graph_map import (
    apply_path, compose, edgelet_count, gate_count, identity_map,
    is_marking_respecting, is_supported_on, make_graph_map, map_from_json,
    map_length, map_to_json, respects_filtration, restrict, subdivide,
    submatrix, tighten_map, transition_matrix,
)
from foldtrack.graph import reverse_path


def test_apply_examples(rose2, fibonacci):
    assert apply_path(fibonacci, (1, 2)) == (1, 2, 1)
    ident = identity_map(rose2)
    assert apply_path(ident, (1, 2, -1)) == (1, 2, -1)
    p = (1, -2, 1)
    assert apply_path(fibonacci, reverse_path(p)) == \
        reverse_path(apply_path(fibonacci, p))


THETA_IDENTITY = ((0, 1), ((1,), (2,), (3,)))


@pytest.mark.parametrize("vmap, emap", [
    ((0, 1), ((1, 2), (2,), (3,))),      # image is not a path
    ((0, 1), ((1, -2), (2,), (3,))),     # image ends do not match vertex images
    ((0, 1), ((), (2,), (3,))),          # collapsed edge, distinct vertex images
    ((1, 0), ((0,), (-2,), (-3,))),      # letter 0 (valid if read as -3)
    ((0, 1), ((1,), (4,), (3,))),        # letter beyond +-E
    ((0, 1), ((1,), (2,), (-4,))),
    ((0, 2), THETA_IDENTITY[1]),         # vertex image out of range
    ((0,), THETA_IDENTITY[1]),           # vertex_map of the wrong size
    ((0, 1), ((1,), (2,))),              # edge_map of the wrong size
])
def test_make_graph_map_rejects(theta, vmap, emap):
    make_graph_map(theta, theta, *THETA_IDENTITY)
    with pytest.raises(StructuralError):
        make_graph_map(theta, theta, vmap, emap)


def test_apply_rejects_foreign_path(fibonacci):
    with pytest.raises(StructuralError):
        apply_path(fibonacci, (3,))


def test_compose_examples(rose2, fibonacci):
    ident = identity_map(rose2)
    assert compose(fibonacci, ident).edge_map == fibonacci.edge_map
    assert compose(ident, fibonacci).edge_map == fibonacci.edge_map
    ff = compose(fibonacci, fibonacci)
    assert ff.edge_map == ((1, 2, 1), (1, 2))


def int_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def test_transition_matrix_multiplicativity(rose2, fibonacci):
    """M(f2 f1) = M(f2) M(f1) in int arithmetic, on Fibonacci and on rose
    maps of seeded random automorphisms of ranks 2-4 over a rose filtered
    in a random edge order; each stratum block of submatrix holds the
    occurrence counts of its edges in level order."""
    from foldtrack.automorphisms import (
        random_automorphism, rose_graph, rose_representative,
    )
    m = transition_matrix(fibonacci).entries
    assert m == [[1, 1], [1, 0]]
    ff = compose(fibonacci, fibonacci)
    assert transition_matrix(ff).entries == int_product(m, m)
    # tightening only shrinks entries
    g = make_graph_map(rose2, rose2, (0,), [(1, -1, 2), (2,)])
    tight = transition_matrix(tighten_map(g)).entries
    loose = transition_matrix(g).entries
    assert all(x <= y for r, s in zip(tight, loose) for x, y in zip(r, s))
    rng = np.random.default_rng(25)
    for n in (2, 3, 4) * 5:
        order = [int(e) for e in rng.permutation(n) + 1]
        g = rose_graph(n).with_filtration(
            [order[:k] for k in range(1, n + 1)])
        f1, f2 = (make_graph_map(g, g, (0,), rose_representative(
            random_automorphism(n, 6, rng)).edge_map) for _ in range(2))
        f21 = compose(f2, f1)
        m1, m2, m21 = map(transition_matrix, (f1, f2, f21))
        for tm in (m1, m2, m21):
            assert all(type(x) is int for row in tm.entries for x in row)
        assert m21.entries == int_product(m2.entries, m1.entries)
        for r in range(1, n + 1):
            for s in range(r, n + 1):
                edges = order[r - 1:s]
                images = [[abs(d) for d in f21.edge_map[b - 1]]
                          for b in edges]
                block = submatrix(m21, r, s)
                assert block.row_edges == block.col_edges == tuple(edges)
                assert block.entries == [[image.count(a) for image in images]
                                         for a in edges]


def test_transition_matrix_identity_and_collapse(rose2):
    ident = identity_map(rose2)
    assert transition_matrix(ident).entries == [[1, 0], [0, 1]]
    collapsed = make_graph_map(rose2, rose2, (0,), [(), (2,)])
    m = transition_matrix(collapsed).entries
    assert [row[0] for row in m] == [0, 0]


def test_tighten_map_examples(rose2):
    f = make_graph_map(rose2, rose2, (0,), [(1, -1, 2), (1,)])
    tf = tighten_map(f)
    assert tf.edge_map == ((2,), (1,))
    assert tighten_map(tf).edge_map == tf.edge_map
    assert map_length(tf) <= map_length(f)


def test_map_length(rose2, fibonacci):
    assert math.isclose(map_length(fibonacci), math.log(3))
    assert math.isclose(map_length(identity_map(rose2)), math.log(2))
    degenerate = make_graph_map(rose2, rose2, (0,), [(), ()])
    with pytest.raises(StructuralError):
        map_length(degenerate)


def test_gate_count(rose2, fibonacci):
    assert gate_count(fibonacci, 0) == 3
    ident = identity_map(rose2)
    assert gate_count(ident, 0) == 4  # valence of the rose vertex


@settings(max_examples=40)
@given(st.integers(0, 2 ** 31), st.integers(2, 3))
def test_gates_lemma(seed, n):
    from foldtrack.automorphisms import random_automorphism, rose_representative
    rng = np.random.default_rng(seed)
    f1 = tighten_map(rose_representative(random_automorphism(n, 5, rng)))
    f2 = tighten_map(rose_representative(random_automorphism(n, 5, rng)))
    comp = compose(f2, f1)
    for v in range(f1.domain.num_vertices):
        assert len(f1.domain.links()[v]) >= gate_count(f1, v)
        assert gate_count(comp, v) <= min(
            gate_count(f1, v), gate_count(f2, f1.vertex_map[v]))


def test_submatrix(rose2):
    g = rose2.with_filtration([{1}, {1, 2}])
    f = make_graph_map(g, g, (0,), [(1,), (2, 1)])
    tm = transition_matrix(f)
    assert tm.row_levels == (1, 2) and tm.col_levels == (1, 2)
    low = submatrix(tm, 1, 1)
    assert low.entries == [[1]]
    top = submatrix(tm, 2, 2)
    assert top.entries == [[1]]
    with pytest.raises(ValueError):
        submatrix(transition_matrix(identity_map(rose2)), 1, 1)


def test_respects_filtration(rose2):
    g = rose2.with_filtration([{1}, {1, 2}])
    f = make_graph_map(g, g, (0,), [(1,), (2, 1)])
    assert respects_filtration(f)
    bad = make_graph_map(g, g, (0,), [(2,), (1,)])
    assert not respects_filtration(bad)
    # length-1 filtration: reduces to being a homotopy equivalence
    g1 = rose2.with_filtration([{1, 2}])
    fib = make_graph_map(g1, g1, (0,), [(1, 2), (1,)])
    assert respects_filtration(fib)


def test_is_supported_on():
    # 2-level filtration on rank-3 rose, fold-like map touching only level 1
    g = make_graph(1, [(0, 0)] * 3, basepoint=0, marking=[(1,), (2,), (3,)],
                   filtration=[{1, 2}, {1, 2, 3}])
    f = make_graph_map(g, g, (0,), [(1,), (2, 1), (3,)])
    assert is_supported_on(f, 1, 1)
    # moving a level-2 edge over level 1 with a=2 violates (s1)... here (s2):
    h = make_graph_map(g, g, (0,), [(1,), (2,), (3, 1)])
    assert not is_supported_on(h, 1, 1)
    assert is_supported_on(h, 2, 2)
    # full span is vacuous
    assert is_supported_on(f, 2, 1)


def test_marking_respecting(rose2, fibonacci):
    assert is_marking_respecting(identity_map(rose2))
    # fib as a self map of the identity-marked rose is NOT marking-respecting
    assert not is_marking_respecting(fibonacci)
    # but as a map onto the fib-remarked rose it is
    remarked = make_graph(1, [(0, 0)] * 2, basepoint=0, marking=[(1, 2), (1,)])
    f = make_graph_map(rose2, remarked, (0,), [(1, 2), (1,)])
    assert is_marking_respecting(f)


def test_marking_respecting_conjugation_by_a_non_letter():
    """e -> u e u^-1 with u = (ab)^2 is homotopic to the identity; no
    marking word is a single letter, and u is no prefix of an image word."""
    g = make_graph(1, [(0, 0)] * 2, basepoint=0, marking=[(1, 2), (1, 2, 2)])
    u = (1, 2, 1, 2)
    f = make_graph_map(g, g, (0,), [u + (e,) + reverse_path(u) for e in (1, 2)])
    assert is_marking_respecting(f)
    assert not is_marking_respecting(make_graph_map(g, g, (0,), [(1, 2), (2,)]))


def test_subdivide(rose2):
    g2, smap = subdivide(rose2, 1, 2)
    assert g2.num_vertices == 2 and g2.num_edges == 3
    assert rank(g2) == rank(rose2)
    assert smap.edge_map[0] == (1, 3)
    from foldtrack.folding import invert_homeomorphism
    inv = invert_homeomorphism(smap)
    roundtrip = compose(inv, smap)
    assert tighten_map(roundtrip).edge_map == identity_map(rose2).edge_map


@given(st.integers(2, 5), st.integers(2, 4))
def test_subdivide_preserves_rank(n, k):
    g = make_graph(1, [(0, 0)] * n, basepoint=0,
                   marking=[(i,) for i in range(1, n + 1)])
    g2, _ = subdivide(g, 1, k)
    assert rank(g2) == n


def test_map_json_roundtrip(fibonacci):
    data = map_to_json(fibonacci)
    f2 = map_from_json(data)
    assert f2.edge_map == fibonacci.edge_map
    assert f2.vertex_map == fibonacci.vertex_map


def renumbered_map_json(f, vertex_ids, edge_ids):
    """map_to_json(f) with both graphs and the map tables written in the
    given JSON vertex and edge ids."""
    def edge(d):
        return edge_ids[d] if d > 0 else -edge_ids[-d]

    def graph(data):
        data["vertices"] = [vertex_ids[v] for v in data["vertices"]]
        data["basepoint"] = vertex_ids[data["basepoint"]]
        for d in data["edges"]:
            d.update(id=edge_ids[d["id"]], **{k: vertex_ids[d[k]]
                                               for k in ("from", "to")})
        data["marking"] = [[edge(d) for d in p] for p in data["marking"]]

    data = map_to_json(f)
    graph(data["domain"])
    graph(data["codomain"])
    data["vertex_map"] = {str(vertex_ids[int(v)]): vertex_ids[w]
                          for v, w in data["vertex_map"].items()}
    data["edge_map"] = {str(edge_ids[int(e)]): [edge(d) for d in p]
                        for e, p in data["edge_map"].items()}
    return data


@pytest.mark.parametrize("vertex_ids, edge_ids", [
    ({0: 0}, {1: 7, 2: 9}),
    ({0: 5}, {1: 1, 2: 2}),
    ({0: 5}, {1: 7, 2: 9}),
    ({0: "v"}, {1: 7, 2: 9}),
])
def test_map_json_reads_the_graphs_json_ids(fibonacci, vertex_ids, edge_ids):
    """vertex_map and edge_map are keyed by the domain's JSON ids, and
    vertex images and letters are the codomain's: renumbered ids decode to
    the map that the dense ids map_to_json writes decode to."""
    dense = map_from_json(map_to_json(fibonacci))
    assert dense.edge_map == fibonacci.edge_map
    data = renumbered_map_json(fibonacci, vertex_ids, edge_ids)
    assert map_from_json(data) == dense


def _drop_markings(data):
    for side in ("domain", "codomain"):
        del data[side]["marking"]


NO_EDGE_ID = "is no signed edge id of the file"
NO_DIRECTION = "does not name exactly one edge direction of the file"


@pytest.mark.parametrize("edge_ids, edit, letter, reason", [
    ({1: 7, 2: 9}, lambda d: d["domain"].update(marking=[[7], [8]]), 8,
     NO_EDGE_ID),
    ({1: 7, 2: 9}, lambda d: d["edge_map"].update({"7": [-8]}), -8,
     NO_EDGE_ID),
    ({1: 0, 2: 1}, lambda d: None, 0, NO_DIRECTION),
    ({1: 0, 2: 1}, lambda d: d["domain"].update(marking=[[False], [1]]),
     False, NO_DIRECTION),
    ({1: 0, 2: 1}, lambda d: d["domain"].update(marking=[[0.0], [1]]), 0.0,
     NO_DIRECTION),
    ({1: 3, 2: -3}, lambda d: None, -3, NO_DIRECTION),
    ({1: 7, 2: 9}, lambda d: d["edge_map"].update({"7": [False]}), 0,
     NO_DIRECTION),
    ({1: 3, 2: -3}, _drop_markings, -3, NO_DIRECTION),
], ids=["graph-marking", "map-image", "graph-zero", "graph-false",
        "graph-float-zero", "graph-negative-id", "map-false",
        "map-negative-id"])
def test_map_json_names_a_letter_outside_the_ids(fibonacci, edge_ids, edit,
                                                 letter, reason):
    """A marking letter or image letter that is no edge id of the file, or
    that names no single edge direction (zero, or a negative letter that is
    itself an edge id), is named as the file writes it, not against the
    graph's ids 1..E."""
    data = renumbered_map_json(fibonacci, {0: 0}, edge_ids)
    edit(data)
    with pytest.raises(StructuralError, match=re.escape(
            "the letter %r, which %s" % (letter, reason))):
        map_from_json(data)


def test_map_json_reads_ids_of_a_two_vertex_map(theta):
    f = make_graph_map(theta, theta, (1, 0), [(-2,), (-3,), (-1,)])
    data = renumbered_map_json(f, {0: "x", 1: 5}, {1: 4, 2: 8, 3: 15})
    assert data["vertex_map"] == {"x": 5, "5": "x"}
    assert map_from_json(data) == map_from_json(map_to_json(f))


def test_map_json_refuses_ids_with_one_key(theta):
    """The JSON ids 5 and "5" are two vertices of a graph, but one key of
    vertex_map."""
    f = make_graph_map(theta, theta, (0, 1), [(1,), (2,), (3,)])
    data = renumbered_map_json(f, {0: 5, 1: "5"}, {1: 1, 2: 2, 3: 3})
    data["vertex_map"] = {"5": 5}
    with pytest.raises(StructuralError, match="one map key"):
        map_from_json(data)


def test_restrict(rose2):
    g = rose2.with_filtration([{1}, {1, 2}])
    f = make_graph_map(g, g, (0,), [(1,), (2, 1)])
    rf, _, _ = restrict(f, {1})
    assert rf.domain.num_edges == 1
    assert rf.edge_map == ((1,),)

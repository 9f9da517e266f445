"""Homotopy equivalences between marked graphs as combinatorial data.

A GraphMap stores a vertex map and, per domain edge, the image edge path in
the codomain (empty path = collapsed edge).  Composition is literal (no
tightening): occurrence counts then multiply exactly, which is what the
product inequalities are stated against.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import StructuralError
from .graph import (
    Graph, _graph_from_json, build_subgraph, edge_level, graph_to_json,
    pi1_word, reverse_path, spanning_tree,
)
from .words import reduce_word

__all__ = [
    "GraphMap", "make_graph_map", "identity_map", "apply_path", "compose",
    "tighten_map", "map_length", "edgelet_count", "gate_count", "direction_map",
    "TransitionMatrix", "transition_matrix", "submatrix",
    "respects_filtration", "is_marking_respecting",
    "subdivide", "restrict", "map_to_json", "map_from_json",
]


@dataclass(frozen=True)
class GraphMap:
    domain: Graph
    codomain: Graph
    vertex_map: tuple   # vertex -> vertex
    edge_map: tuple     # edge id e -> image path of +e (tuple of signed ids)

    def image(self, d):
        """Image path of the signed edge d."""
        p = self.edge_map[abs(d) - 1]
        return p if d > 0 else reverse_path(p)

    def __call__(self, path):
        return apply_path(self, path)


def make_graph_map(domain, codomain, vertex_map, edge_map):
    """Validating constructor for maps built from outside data.  Maps the
    library derives from valid maps are built as GraphMap directly."""
    g, h = domain, codomain
    vertex_map = tuple(vertex_map)
    edge_map = tuple(tuple(p) for p in edge_map)
    if len(vertex_map) != g.num_vertices:
        raise StructuralError("vertex map has wrong size")
    if any(not 0 <= w < h.num_vertices for w in vertex_map):
        raise StructuralError("vertex image out of range")
    if len(edge_map) != g.num_edges:
        raise StructuralError("edge map has wrong size")
    for e in g.edge_ids:
        u, v = g.edge_ends[e - 1]
        p = edge_map[e - 1]
        if any(not 1 <= abs(d) <= h.num_edges for d in p):
            raise StructuralError(
                "image of edge %d names an edge outside 1..%d"
                % (e, h.num_edges))
        if p:
            cur = a = h.init(p[0])
            for d in p:
                x, y = h.endpoints(d)
                if x != cur:
                    raise StructuralError("image of edge %d is not a path" % e)
                cur = y
            if (a, cur) != (vertex_map[u], vertex_map[v]):
                raise StructuralError(
                    "image of edge %d not compatible with vertex images" % e)
        elif vertex_map[u] != vertex_map[v]:
            raise StructuralError(
                "collapsed edge %d with distinct vertex images" % e)
    return GraphMap(domain, codomain, vertex_map, edge_map)


def identity_map(g):
    return GraphMap(g, g, tuple(range(g.num_vertices)),
                    tuple((e,) for e in g.edge_ids))


def apply_path(f, path):
    """Image of an edge path: concatenated edge images, not tightened."""
    out = []
    ne = f.domain.num_edges
    for d in path:
        if not 1 <= abs(d) <= ne:
            raise StructuralError("path step %d outside domain" % d)
        out.extend(f.image(d))
    return tuple(out)


def compose(f2, f1):
    """f2 after f1.  Codomain of f1 must be the domain of f2 (same object
    shape; compared structurally)."""
    if f1.codomain.edge_ends != f2.domain.edge_ends or \
            f1.codomain.num_vertices != f2.domain.num_vertices:
        raise StructuralError("composition mismatch: codomain(f1) != domain(f2)")
    vmap = tuple(f2.vertex_map[v] for v in f1.vertex_map)
    emap = tuple(apply_path(f2, p) for p in f1.edge_map)
    return GraphMap(f1.domain, f2.codomain, vmap, emap)


def tighten_map(f):
    """Tighten every edge image (homotopic rel vertices)."""
    return GraphMap(f.domain, f.codomain, f.vertex_map,
                    tuple(reduce_word(p) for p in f.edge_map))


def edgelet_count(f):
    return sum(len(p) for p in f.edge_map)


def map_length(f):
    """L(f) = log of total edge length; collapsed edges contribute zero."""
    total = edgelet_count(f)
    if total == 0:
        raise StructuralError("degenerate map: every edge is collapsed")
    return math.log(total)


# -- links and gates -----------------------------------------------------------

def direction_map(f):
    """Df on non-collapsed directions: signed edge -> first signed edge of its
    image.  Returned as a dict."""
    df = {}
    for e in f.domain.edge_ids:
        p = f.edge_map[e - 1]
        if p:
            df[e] = p[0]
            df[-e] = -p[-1]
    return df


def gate_count(f, v):
    """T(f,v): size of the Df-image of the non-collapsed link at v."""
    df = direction_map(f)
    lk = f.domain.links()[v]
    return len({df[d] for d in lk if d in df})


# -- transition matrices -------------------------------------------------------

class TransitionMatrix(NamedTuple):
    """Nonnegative integer occurrence matrix, codomain edges x domain edges,
    as rows of Python ints, with indices ordered so higher filtration levels
    get larger indices."""

    entries: list
    row_edges: tuple
    col_edges: tuple
    row_levels: tuple = None
    col_levels: tuple = None


def _edge_order(g):
    if g.filtration is None:
        return tuple(g.edge_ids), None
    order = tuple(sorted(g.edge_ids, key=lambda e: (edge_level(g, e), e)))
    return order, tuple(edge_level(g, e) for e in order)


def transition_matrix(f):
    """M(f): entries[i][j] counts how often the image of col_edges[j]
    crosses row_edges[i].  A map whose domain is its codomain (a rose self
    map: one rose graph per rank) orders its edges once."""
    row_edges, row_levels = order = _edge_order(f.codomain)
    col_edges, col_levels = (order if f.domain is f.codomain
                             else _edge_order(f.domain))
    entries = [[0] * len(col_edges) for _ in row_edges]
    row_of = [None] * (len(row_edges) + 1)   # by codomain edge id
    for e, row in zip(row_edges, entries):
        row_of[e] = row
    for j, e in enumerate(col_edges):
        for d in f.edge_map[e - 1]:
            row_of[abs(d)][j] += 1
    return TransitionMatrix(entries, row_edges, col_edges, row_levels,
                            col_levels)


def submatrix(tm, r, s):
    """M_rs: the block of rows/columns whose levels lie in [r, s]."""
    if tm.row_levels is None or tm.col_levels is None:
        raise ValueError("submatrix requires a filtered transition matrix")
    ri = [i for i, l in enumerate(tm.row_levels) if r <= l <= s]
    ci = [i for i, l in enumerate(tm.col_levels) if r <= l <= s]
    return TransitionMatrix(
        [[tm.entries[i][j] for j in ci] for i in ri],
        tuple(tm.row_edges[i] for i in ri),
        tuple(tm.col_edges[i] for i in ci),
        tuple(tm.row_levels[i] for i in ri),
        tuple(tm.col_levels[i] for i in ci),
    )


# -- filtration respect and marking respect ------------------------------------

def _image_edges(f, edges):
    """The edge ids that the images of the given edges cross."""
    return frozenset([abs(d) for e in edges for d in f.edge_map[e - 1]])


def restrict(f, edges, cod_edges=None):
    """Restriction of f to the closure of an edge subset.

    Returns (restricted map, domain maps, codomain maps); the codomain is the
    closure of `cod_edges` (default: the image subgraph).
    """
    g, h = f.domain, f.codomain
    dom_g, dvmap, demap = build_subgraph(g, edges)
    if cod_edges is None:
        cod_edges = _image_edges(f, demap)
    # vertices whose image is an isolated vertex still need a home
    cod_g, cvmap, cemap = build_subgraph(
        h, cod_edges, {f.vertex_map[v] for v in dvmap})
    vmap = [None] * dom_g.num_vertices
    for v, i in dvmap.items():
        vmap[i] = cvmap[f.vertex_map[v]]
    emap = [None] * dom_g.num_edges
    for e, i in demap.items():
        p = f.edge_map[e - 1]
        try:
            emap[i - 1] = tuple(
                (cemap[abs(d)] if d > 0 else -cemap[abs(d)]) for d in p)
        except KeyError:
            raise StructuralError(
                "image of edge %d leaves the stated codomain subgraph" % e)
    rf = GraphMap(dom_g, cod_g, tuple(vmap), tuple(emap))
    return rf, (dvmap, demap), (cvmap, cemap)


def respects_filtration(f):
    """True iff f(G_i) lies in G'_i and each restriction G_i -> G'_i is a
    homotopy equivalence (certified through fold factorization)."""
    from .folding import certify_homotopy_equivalence

    g, h = f.domain, f.codomain
    if g.filtration is None or h.filtration is None:
        raise ValueError("both graphs must be filtered")
    if len(g.filtration) != len(h.filtration):
        raise ValueError("filtration lengths differ")
    for gi, hi in zip(g.filtration, h.filtration):
        if not _image_edges(f, gi) <= set(hi):
            return False
        rf, _, _ = restrict(f, gi, cod_edges=hi)
        if not certify_homotopy_equivalence(rf):
            return False
    return True


def is_marking_respecting(f):
    """Marking compatibility: the f-image of the domain marking agrees with the
    codomain marking up to one common basepoint-change conjugator, decided
    by comparing outer normal forms."""
    from .automorphisms import simultaneously_conjugate

    g, h = f.domain, f.codomain
    if g.marking is None or h.marking is None:
        raise ValueError("both graphs must be marked")
    tree = spanning_tree(h)
    ws = [pi1_word(h, apply_path(f, p), tree) for p in g.marking]
    vs = [pi1_word(h, p, tree) for p in h.marking]
    return simultaneously_conjugate(ws, vs)


# -- subdivision ----------------------------------------------------------------

def map_to_json(f):
    return {
        "domain": graph_to_json(f.domain),
        "codomain": graph_to_json(f.codomain),
        "vertex_map": {str(v): w for v, w in enumerate(f.vertex_map)},
        "edge_map": {str(e): list(f.edge_map[e - 1]) for e in f.domain.edge_ids},
    }


def map_from_json(data):
    """Decode and validate a map; malformed input raises StructuralError.

    vertex_map and edge_map are keyed by the domain's JSON ids.  Vertex
    images are the codomain's JSON vertex ids, and image letters its signed
    JSON edge ids; a number among them must be an int."""
    try:
        dom, dom_ids = _graph_from_json(data["domain"], False)
        cod, cod_ids = _graph_from_json(data["codomain"], False)
        vtab, etab = data["vertex_map"], data["edge_map"]
        vkeys, ekeys = dom_ids.keys()
        vmap = [cod_ids.vertex(vtab[k]) for k in vkeys]
        emap = [cod_ids.path(etab[k]) for k in ekeys]
    except (KeyError, TypeError) as exc:
        raise StructuralError("malformed map JSON: %s: %s"
                              % (type(exc).__name__, exc)) from None
    if len(vtab) != dom.num_vertices or len(etab) != dom.num_edges:
        raise StructuralError("map JSON has a key naming no domain vertex or edge")
    return make_graph_map(dom, cod, vmap, emap)


def subdivide(g, e, k):
    """Replace edge e by a chain of k edges.  Returns (graph, subdivision map).

    The chain reuses slot e for its first edge and appends the rest at the end;
    new interior vertices are appended after the old ones.  Marking and
    filtration are transported.
    """
    if not 1 <= e <= g.num_edges:
        raise ValueError("no such edge: %r" % (e,))
    if k < 2:
        raise ValueError("subdivision needs k >= 2")
    u, v = g.edge_ends[e - 1]
    nv = g.num_vertices
    new_vertices = list(range(nv, nv + k - 1))
    ends = list(g.edge_ends)
    chain_ids = [e]
    ends[e - 1] = (u, new_vertices[0])
    for i in range(1, k):
        a = new_vertices[i - 1]
        b = new_vertices[i] if i < k - 1 else v
        ends.append((a, b))
        chain_ids.append(len(ends))
    chain = tuple(chain_ids)

    def image_path(d):
        if abs(d) != e:
            return (d,)
        return chain if d > 0 else reverse_path(chain)

    marking = None
    if g.marking is not None:
        marking = tuple(sum((image_path(d) for d in p), ()) for p in g.marking)
    filtration = None
    if g.filtration is not None:
        filtration = tuple(
            frozenset(lev | set(chain) if e in lev else lev)
            for lev in g.filtration)
    g2 = Graph(nv + k - 1, tuple(ends), g.basepoint, marking, filtration,
               g.weak_filtration)
    smap = GraphMap(g, g2, tuple(range(nv)),
                    tuple(image_path(i) for i in g.edge_ids))
    return g2, smap

"""Finite graphs with oriented edges, markings, filtrations, strata, frontiers.

Conventions:
  * vertices are dense ints 0..V-1;
  * unoriented edges are dense ints 1..E, a signed id +e / -e selects the
    forward / backward orientation (reversal is negation);
  * an edge path is a tuple of signed ids with endpoint-compatible steps;
  * a marking assigns to each rose petal a closed edge path at the basepoint;
  * a filtration is the increasing tuple of cumulative edge sets G_1 .. G_N.
"""

import json
from dataclasses import dataclass, replace
from operator import countOf, index, neg
from typing import NamedTuple

from .errors import StructuralError
from .words import _check_letters, invert_word, reduce_word

__all__ = [
    "Graph", "make_graph", "rank", "components", "tighten", "reverse_path",
    "path_endpoints", "stratum", "frontier", "spanning_tree",
    "pi1_word", "tree_path", "subgraph_closure", "build_subgraph",
    "subgraph_rank", "valences", "validate_filtration", "edge_level",
    "graph_to_json", "graph_from_json", "load_graph", "dump_graph",
    "pi1_generators", "subgraph_components",
]


@dataclass(frozen=True)
class Graph:
    """Immutable combinatorial graph, optionally marked and filtered.

    The marking paths are reduced: make_graph reduces them, and the graphs
    built internally (folds, subdivisions, roses) carry reduced paths."""

    num_vertices: int
    edge_ends: tuple  # edge_ends[e-1] = (init, term) for edge id e
    basepoint: int = None
    marking: tuple = None     # one reduced closed edge path per petal
    filtration: tuple = None  # cumulative frozensets of edge ids
    weak_filtration: bool = False

    @property
    def num_edges(self):
        return len(self.edge_ends)

    @property
    def edge_ids(self):
        return range(1, len(self.edge_ends) + 1)

    def endpoints(self, d):
        """(init, term) of the signed edge d."""
        u, v = self.edge_ends[abs(d) - 1]
        return (u, v) if d > 0 else (v, u)

    def init(self, d):
        return self.endpoints(d)[0]

    def term(self, d):
        return self.endpoints(d)[1]

    @property
    def rank(self):
        return rank(self)

    def links(self):
        """Per-vertex lists of outgoing signed edge ids (loops appear twice)."""
        lk = [[] for _ in range(self.num_vertices)]
        for e, (u, v) in enumerate(self.edge_ends, start=1):
            lk[u].append(e)
            lk[v].append(-e)
        return lk

    def level_of(self, e):
        return edge_level(self, e)

    def with_filtration(self, levels, weak=False):
        levels = tuple(frozenset(l) for l in levels)
        g = replace(self, filtration=levels, weak_filtration=weak)
        validate_filtration(g)
        return g


def make_graph(num_vertices, edge_ends, basepoint=None, marking=None,
               filtration=None, weak_filtration=False):
    """Validating constructor.  A marking additionally needs a basepoint, a
    connected graph, one petal per unit of rank, and closed marking paths.
    Each marking path is stored reduced; one that reduces to the empty
    word is refused as trivial."""
    return _make_graph(num_vertices, edge_ends, basepoint, marking,
                       filtration, weak_filtration, False)


def _make_graph(num_vertices, edge_ends, basepoint, marking, filtration,
                weak_filtration, ints):
    """make_graph; with `ints` no marking letter is a number other than an
    int (see _check_letters)."""
    edge_ends = tuple((int(u), int(v)) for u, v in edge_ends)
    for u, v in edge_ends:
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise StructuralError("edge endpoint out of range")
    g = Graph(num_vertices, edge_ends, basepoint, None,
              tuple(frozenset(l) for l in filtration) if filtration else None,
              weak_filtration)
    if g.filtration is not None:
        validate_filtration(g)
    if marking is not None:
        if g.basepoint is None:
            raise StructuralError("marked graph needs a basepoint")
        joins = _union_find(num_vertices, edge_ends)[1]
        if len(joins) != num_vertices - 1:
            raise StructuralError("marked graph must be connected")
        marking = [tuple(p) for p in marking]
        n = len(edge_ends) - len(joins)
        if len(marking) != n:
            raise StructuralError(
                "marking has %d petals but graph has rank %d"
                % (len(marking), n))
        g = replace(g, marking=tuple(
            [_marking_path(g, p, ints) for p in marking]))
    return g


def _marking_path(g, p, ints):
    """The marking path p of g, checked and reduced.  A path whose set of
    letters holds no letter together with its inverse has no cancelling
    pair, so only a path whose set holds some a and -a, or whose letters do
    not hash, is reduced; a reduced tuple is returned as it is."""
    if p:
        letters = _check_letters(p, g.num_edges, ints)
        if _endpoints(g, p) != (g.basepoint, g.basepoint):
            raise StructuralError("marking path not closed at basepoint")
        if letters is None or not letters.isdisjoint(map(neg, letters)):
            p = reduce_word(p)
    if not p:
        raise StructuralError("trivial marking path")
    return p


def _union_find(num_vertices, ends):
    """Connectivity of the vertices 0..num_vertices-1 under the edges with
    the given (init, term) ends, joined in order; each root is the least
    vertex of its class.  Returns (label, joins): label[v] numbers v's
    component, components numbered in the order of their least vertices,
    and joins lists the positions in `ends` of the edges that joined two
    components."""
    parent = list(range(num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joins = []
    for i, (u, v) in enumerate(ends):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            joins.append(i)
    if len(joins) == num_vertices - 1:  # connected: one class
        return [0] * num_vertices, joins
    roots = [find(v) for v in range(num_vertices)]
    # a root first appears as itself, the least vertex of its class
    number = {r: i for i, r in enumerate(dict.fromkeys(roots))}
    return [number[r] for r in roots], joins


def _classes(label, vertices):
    """The given vertices grouped by label, in the order of each group's
    first vertex."""
    comps = {}
    for v in vertices:
        comps.setdefault(label[v], set()).add(v)
    return list(comps.values())


def rank(g):
    """First Betti number: E - V + #components, the edges that close a
    cycle."""
    return g.num_edges - len(_union_find(g.num_vertices, g.edge_ends)[1])


def components(g):
    """Vertex sets of connected components (isolated vertices included),
    in the order of their least vertices."""
    label = _union_find(g.num_vertices, g.edge_ends)[0]
    return _classes(label, range(g.num_vertices))


def valences(g, edges=None):
    """Vertex valences, restricted to an edge subset when given (loops count twice)."""
    val = [0] * g.num_vertices
    for e in (g.edge_ids if edges is None else edges):
        u, v = g.edge_ends[e - 1]
        val[u] += 1
        val[v] += 1
    return val


# -- edge paths --------------------------------------------------------------

def path_endpoints(g, path):
    """(init, term) of a nonempty endpoint-compatible path; raises otherwise.

    The letters are checked once, so that they can index lists of edge ends;
    on a one-vertex graph every path of edges is compatible and no table is
    read.
    """
    if not path:
        raise StructuralError("empty path has no endpoints")
    _check_letters(path, g.num_edges)
    return _endpoints(g, path)


def _endpoints(g, path):
    """path_endpoints of a nonempty path whose letters are checked."""
    if g.num_vertices == 1:
        return 0, 0
    inits = [None] * (2 * g.num_edges + 1)  # indexed by signed edge id
    terms = inits[:]
    for e, (u, v) in enumerate(g.edge_ends, start=1):
        inits[e] = terms[-e] = u
        terms[e] = inits[-e] = v
    starts = list(map(inits.__getitem__, path))
    stops = list(map(terms.__getitem__, path))
    if starts[1:] != stops[:-1]:
        raise StructuralError("path steps not endpoint-compatible")
    return starts[0], stops[-1]


def reverse_path(path):
    return invert_word(path)


def tighten(g, path):
    """The reduced path freely homotopic rel endpoints; validates the input."""
    if path:
        path_endpoints(g, path)
    return reduce_word(path)


# -- filtrations, strata, frontiers ------------------------------------------

def validate_filtration(g):
    """Checks nesting, the final level, valence-one freedom and the length
    bound for strict filtrations, and the rank/component progression."""
    levels = g.filtration
    if levels is None:
        raise StructuralError("graph carries no filtration")
    all_edges = frozenset(g.edge_ids)
    prev = frozenset()
    for i, lev in enumerate(levels):
        if not prev < lev:
            raise StructuralError("filtration levels must be properly nested")
        prev = lev
    if prev != all_edges:
        raise StructuralError("top filtration level must contain every edge")
    if not g.weak_filtration:
        n = rank(g)
        if len(levels) > max(1, 2 * n - 1):
            raise StructuralError(
                "strict filtration length %d exceeds 2n-1" % len(levels))
        for lev in levels:
            if 1 in valences(g, lev):
                raise StructuralError("strict filtration level has a valence-one vertex")
        for lo, hi in zip(levels, levels[1:]):
            r0, c0 = subgraph_rank(g, lo), len(subgraph_components(g, lo))
            r1, c1 = subgraph_rank(g, hi), len(subgraph_components(g, hi))
            if not (r1 > r0 or c1 < c0):
                raise StructuralError(
                    "consecutive levels change neither rank nor components")


def edge_level(g, e):
    """1-based filtration level of an edge (its first level of appearance)."""
    if g.filtration is None:
        return 1
    for i, lev in enumerate(g.filtration, start=1):
        if e in lev:
            return i
    raise StructuralError("edge %d missing from filtration" % e)


def _check_levels(g, b, a):
    if g.filtration is None:
        raise ValueError("graph carries no filtration")
    n = len(g.filtration)
    if not 1 <= a <= b <= n:
        raise ValueError("need 1 <= a <= b <= %d, got a=%d b=%d" % (n, a, b))


def subgraph_closure(g, edges):
    """(vertex set, edge set) of the closure of an edge subset."""
    eset = frozenset(edges)
    vset = set()
    for e in eset:
        u, v = g.edge_ends[e - 1]
        vset.add(u)
        vset.add(v)
    return frozenset(vset), eset


def stratum(g, b, a=None):
    """G(b,a) = closure(G_b minus G_{a-1}) as a (vertices, edges) pair."""
    if a is None:
        a = b
    _check_levels(g, b, a)
    gb = g.filtration[b - 1]
    below = g.filtration[a - 2] if a >= 2 else frozenset()
    return subgraph_closure(g, gb - below)


def frontier(g, b, a):
    """Fr(G,b,a): frontier vertices of G_b not contained in G_{a-1}."""
    _check_levels(g, b, a)
    gb = g.filtration[b - 1]
    vb, _ = subgraph_closure(g, gb)
    touched, _ = subgraph_closure(g, frozenset(g.edge_ids) - gb)
    below = g.filtration[a - 2] if a >= 2 else frozenset()
    vbelow, _ = subgraph_closure(g, below)
    return frozenset(v for v in vb if v in touched and v not in vbelow)


def subgraph_rank(g, edges):
    """First Betti number of an edge subset's closure."""
    ends = [g.edge_ends[e - 1] for e in frozenset(edges)]
    return len(ends) - len(_union_find(g.num_vertices, ends)[1])


def subgraph_components(g, edges):
    """Connected components (vertex frozensets) of an edge subset's closure,
    in the order of their least vertices."""
    vset, eset = subgraph_closure(g, edges)
    ends = [g.edge_ends[e - 1] for e in eset]
    label = _union_find(g.num_vertices, ends)[0]
    return [frozenset(c) for c in _classes(label, sorted(vset))]


def build_subgraph(g, edges, extra_vertices=()):
    """Closure of an edge subset, with the given extra vertices, as a
    standalone Graph with dense ids.

    Returns (graph, vertex_map old->new, edge_map old->new).
    """
    vset, eset = subgraph_closure(g, edges)
    vs = sorted(vset.union(extra_vertices))
    es = sorted(eset)
    vmap = {v: i for i, v in enumerate(vs)}
    emap = {e: i + 1 for i, e in enumerate(es)}
    ends = tuple((vmap[g.edge_ends[e - 1][0]], vmap[g.edge_ends[e - 1][1]])
                 for e in es)
    return Graph(len(vs), ends), vmap, emap


# -- spanning trees and pi_1 coordinates -------------------------------------

def spanning_tree(g):
    """The spanning tree of least edge ids: Kruskal's tree with edge ids as
    weights, which are distinct, so the minimum spanning tree is unique.  It
    is the tree grown from any vertex by always adding the lowest-id edge
    reaching a new vertex.  Requires a connected graph."""
    joins = _union_find(g.num_vertices, g.edge_ends)[1]
    if len(joins) < g.num_vertices - 1:
        raise StructuralError("graph is not connected")
    return frozenset([i + 1 for i in joins])


def tree_path(g, tree, u, v):
    """The reduced edge path from u to v inside a spanning tree."""
    if u == v:
        return ()
    adj = {}
    for e in tree:
        a, b = g.edge_ends[e - 1]
        adj.setdefault(a, []).append((b, e))
        adj.setdefault(b, []).append((a, -e))
    prev = {u: None}
    queue = [u]
    while queue:
        x = queue.pop(0)
        if x == v:
            break
        for y, d in adj.get(x, ()):
            if y not in prev:
                prev[y] = (x, d)
                queue.append(y)
    if v not in prev:
        raise StructuralError("vertices in different tree components")
    path = []
    cur = v
    while prev[cur] is not None:
        x, d = prev[cur]
        path.append(d)
        cur = x
    return tuple(reversed(path))


def pi1_generators(g, tree=None):
    """Non-tree edge ids in increasing order: the pi_1 basis through `tree`."""
    tree = spanning_tree(g) if tree is None else tree
    return [e for e in g.edge_ids if e not in tree]


def pi1_word(g, path, tree=None, gens=None):
    """Express a loop as a reduced word in the spanning-tree pi_1 basis.

    Tree edges contribute nothing, so any loop (at any vertex) yields the
    basepoint-consistent element obtained by conjugating along tree geodesics.
    """
    tree = spanning_tree(g) if tree is None else tree
    if gens is None:
        gens = pi1_generators(g, tree)
    if path:
        _check_letters(path, g.num_edges)
    return _pi1_word(g, path, tree, gens)


def _pi1_word(g, path, tree, gens):
    """pi1_word of a path whose letters are checked.  With an empty tree
    and the generators 1..E the letters are the word's: only the
    reduction reads it."""
    gens = list(gens)
    if not tree and gens == list(g.edge_ids):
        return reduce_word(path)
    letter = [None] * (2 * g.num_edges + 1)
    for e in tree:
        letter[e] = letter[-e] = 0
    for i, e in enumerate(gens, start=1):
        letter[e], letter[-e] = i, -i
    word = list(map(letter.__getitem__, path))
    if None in letter[1:] and None in word:
        raise StructuralError("path names an edge outside the tree and the "
                              "pi_1 generators")
    return reduce_word(tuple(filter(None, word)))


# -- JSON interchange ---------------------------------------------------------

def graph_to_json(g):
    data = {
        "rank": rank(g),
        "vertices": list(range(g.num_vertices)),
        "edges": [{"id": e, "from": u, "to": v}
                  for e, (u, v) in enumerate(g.edge_ends, start=1)],
        "basepoint": g.basepoint,
    }
    if g.marking is not None:
        data["marking"] = [list(p) for p in g.marking]
    if g.filtration is not None:
        data["filtration"] = [sorted(l) for l in g.filtration]
    return data


def _all_ints(seq):
    """True when every item of a sequence has type int (not bool or
    float)."""
    return countOf(map(type, seq), int) == len(seq)


def graph_from_json(data):
    """Decode and validate a graph; malformed input raises StructuralError.

    Vertex ids and edge ids must be distinct.  Marking letters are signed
    JSON edge ids.  When the ids are the ints 1..E, a path of int letters is
    the graph's path, and make_graph checks it; other ids, and letters of
    other types (true, 2.0), are renumbered to ints through a table keyed by
    unsigned id."""
    return _graph_from_json(data, False)[0]


class _JsonIds(NamedTuple):
    """The JSON ids a graph was decoded from: vertices maps each JSON vertex
    id to the graph's vertex, edges each JSON edge id to the graph's edge,
    both in the graph's order."""

    vertices: dict
    edges: dict

    def keys(self):
        """The vertex ids and the edge ids as JSON object keys, in the
        graph's order: a string as itself, any other id as its JSON text
        (5 as "5").  Two ids with one key raise StructuralError."""
        tables = []
        for table in (self.vertices, self.edges):
            keys = [a if isinstance(a, str) else json.dumps(a) for a in table]
            if len(set(keys)) != len(keys):
                raise StructuralError(
                    "two JSON ids of a graph name one map key")
            tables.append(keys)
        return tables

    def vertex(self, v):
        """The graph's vertex of a JSON vertex id; a number must be an int."""
        return self.vertices[v if isinstance(v, str) else index(v)]

    def path(self, letters):
        """The graph's path of signed JSON edge ids, which must be ints."""
        return _renumbered(tuple(map(index, letters)), self.edges)


def _graph_from_json(data, ints):
    """(graph, its _JsonIds) of graph_from_json.  With `ints` every number
    in data is an int, so the marking letters need no type pass."""
    try:
        vs = list(data["vertices"])
        vmap = {v: i for i, v in enumerate(vs)}
        if len(vmap) != len(vs):
            raise StructuralError("duplicate vertex id in graph JSON")
        edges = sorted(data["edges"], key=lambda d: d["id"])
        ids = [d["id"] for d in edges]
        emap = {e: i for i, e in enumerate(ids, start=1)}
        if len(emap) != len(ids):
            raise StructuralError("duplicate edge id in graph JSON")
        # with ids e and -e, the letter -e names no single edge direction,
        # so the edge -e could be named in no word
        for e in ids:
            if isinstance(e, (int, float)) and e > 0 and -e in emap:
                raise StructuralError(
                    "edge ids %r and %r of the graph JSON are one letter "
                    "and its inverse" % (e, -e))
        ends = [(vmap[d["from"]], vmap[d["to"]]) for d in edges]
        marking = data.get("marking")
        same = ids == list(range(1, len(ids) + 1)) and _all_ints(ids)
        if marking is not None:
            paths = [tuple(p) for p in marking]
            marking = [p if same and (ints or _all_ints(p)) else
                       _renumbered(p, emap) for p in paths]
        filtration = [frozenset(emap[e] for e in lev)
                      for lev in data.get("filtration") or ()]
        base = data.get("basepoint")
        base = vmap[base] if base is not None else None
    except (KeyError, TypeError) as exc:
        raise StructuralError("malformed graph JSON: %s: %s"
                              % (type(exc).__name__, exc)) from None
    # the letters are ints, proven or renumbered, or no numbers at all, so
    # make_graph skips the letter check's sum
    try:
        g = _make_graph(len(vs), ends, base, marking, filtration or None,
                        bool(data.get("weak_filtration", False)), True)
    except StructuralError:
        # with dense ids the letters are passed as they are: one that is no
        # edge id of the file is named, as renumbering names it
        if same and marking:
            for p in marking:
                _renumbered(p, emap)
        raise
    return g, _JsonIds(vmap, emap)


def _renumbered(path, emap):
    """A path of signed JSON edge ids as a path of the graph's edge ids.

    A positive letter is its edge forward and a negative one the reverse of
    its negation.  A letter that names no single edge direction is refused:
    zero (0, 0.0, false), and a negative letter that is itself an edge id."""
    out = []
    for a in path:
        try:
            if a == 0 or a < 0 and a in emap:
                raise StructuralError(
                    "word names the letter %r, which does not name exactly "
                    "one edge direction of the file" % (a,))
            out.append(emap[a] if a > 0 else -emap[-a])
        except (KeyError, TypeError):
            raise StructuralError(
                "word names the letter %r, which is no signed edge id of "
                "the file" % (a,)) from None
    return tuple(out)


def load_graph(path):
    """graph_from_json of a UTF-8 graph JSON file.

    The decoder notes each number that is not an int (a float, NaN or an
    infinity).  When it meets none and the text holds neither true nor
    false, every number in the file is an int, and the marking letters are
    not read again for their types.  A text without the letter u (l) holds
    no true (false), and one-character searches run at memchr speed."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    other = []

    def noted(s):
        other.append(s)
        return float(s)

    data = json.loads(text, parse_float=noted, parse_constant=noted)
    ints = (not other and ("u" not in text or "true" not in text)
            and ("l" not in text or "false" not in text))
    return _graph_from_json(data, ints)[0]


def dump_graph(g, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_json(g), fh, indent=1, sort_keys=True)
        fh.write("\n")

"""Stallings folds: detection, application, explicit inverses, factorization.

A fold identifies initial segments of two directions d1, d2 at a common
vertex whose images share their maximal common prefix.  The quotient graph,
the fold map p, and its homotopy inverse q depend only on the pair and on
which of the two segments are full edges; that pattern is the case split:

  case 1:  segment of d1 proper, d2 full   (p(e1) = e2 e1*)
  case 2:  both proper                      (blow up the base vertex)
  case 3:  both full                        (delete e1, identify endpoints)

Every inverse q has LC(M(q)) = 1, except a case-3 fold flagged
case3-loop-at-v1 (LC = 2), and q o p induces the identity outer automorphism.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import CertificationError, StructuralError
from .graph import (
    Graph, rank, reverse_path, subgraph_components, subgraph_rank, frontier,
)
from .graph_map import (
    GraphMap, apply_path, compose, direction_map, edgelet_count,
    identity_map, is_tight, tighten_map, transition_matrix,
)
from .words import max_common_prefix, reduce_word

__all__ = [
    "FoldSpec", "FoldRecord", "FoldFactorization", "find_fold", "apply_fold",
    "apply_fold_move", "fold_move", "invert_fold",
    "invert_homeomorphism",
    "is_homeomorphism", "factorize", "clean_factorize", "controlled_inverse",
    "folds_into_lower_strata", "certify_homotopy_equivalence",
    "collapse_edges", "vertex_bound", "edge_bound",
]


def vertex_bound(n):
    """V_n: twice the relative-train-track vertex bound 6n-6."""
    return max(2 * (6 * n - 6), 2)


def edge_bound(n):
    """Edge_n: edge count bound for rank-n graphs with at most V_n vertices."""
    return max(n + vertex_bound(n) - 1, 1)


@dataclass(frozen=True)
class FoldSpec:
    """A normalized fold candidate.  d1/d2 are signed edge ids out of vertex,
    prefix_len the length of the shared image prefix."""

    vertex: int
    d1: int
    d2: int
    prefix_len: int
    case: int
    flags: tuple = ()


@dataclass(frozen=True)
class FoldRecord:
    spec: FoldSpec
    case: int
    quotient: GraphMap        # p : G -> G*
    inverse: GraphMap         # q : G* -> G
    flags: tuple = ()

    @property
    def graph_star(self):
        return self.quotient.codomain


@dataclass(frozen=True)
class FoldFactorization:
    source: Graph
    target: Graph
    records: tuple            # FoldRecord per fold, in application order
    theta: GraphMap           # terminal homeomorphism K^k -> G'
    theta_inverse: GraphMap   # its explicit inverse
    # clean_factorize's search: clean | none-exists | budget; else not-run
    clean_outcome: str = "not-run"
    clean_steps: int = 0

    @property
    def fold_count(self):
        return len(self.records)


# ---------------------------------------------------------------------------
# fold detection
# ---------------------------------------------------------------------------

def find_fold(f):
    """Deterministic fold candidate for a tightened map, or None when f is an
    immersion.

    Case-3 candidates whose identified vertex carries a loop are deferred:
    their explicit inverses would cross the connecting path twice, spoiling
    the LC(M(q)) = 1 guarantee.  One is still returned when no clean
    candidate exists.
    """
    if not is_tight(f):
        raise StructuralError("find_fold requires a tightened map")
    fallback = None
    for v, da, db in sorted(_fold_candidates(f)):
        spec = _normalize_spec(f, v, da, db)
        if "case3-loop-at-v1" in spec.flags:
            if fallback is None:
                fallback = spec
            continue
        return spec
    return fallback


def _fold_candidates(f):
    """(vertex, d, d') for every pair of directions at a vertex whose images
    start with the same direction."""
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


def _normalize_spec(f, v, da, db):
    """Case classification and labelling of (e1, e2)."""
    pa, pb = f.image(da), f.image(db)
    c = max_common_prefix(pa, pb)
    if c == 0:
        raise StructuralError("directions do not share an image prefix")
    fa, fb = c == len(pa), c == len(pb)
    flags = []
    g = f.domain
    if fa and fb:
        case = 3
        # The explicit inverse conjugates the v1-side link by the connector
        # e2^-1 e1, so an edge meeting v1 twice picks up a doubled occurrence.
        # That happens when a surviving loop sits at v1, or when e1 itself is
        # a loop (then e2 starts at v1).  Prefer a labelling avoiding both.
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
    return FoldSpec(v, d1, d2, c, case, tuple(flags))


# ---------------------------------------------------------------------------
# fold application
# ---------------------------------------------------------------------------

def fold_move(g, spec):
    """Carry out the quotient for a fold spec on the graph alone.

    Returns (gstar, p, q).  Graph ids stay dense: replacement edges reuse the replaced slot, new
    material is appended, deletions shift higher ids down.
    """
    d1, d2, case = spec.d1, spec.d2, spec.case
    m1, m2 = abs(d1), abs(d2)
    if m1 == m2 and d1 == d2:
        raise StructuralError("cannot fold a direction with itself")
    if m1 == m2 and case != 2:
        # both ends of a loop share a prefix; the segments are always proper
        # and disjoint (a reduced word never equals its own reversal half-way)
        raise StructuralError("self-fold of a loop must be a case-2 fold")
    v0 = g.init(d1)
    if g.init(d2) != v0:
        raise StructuralError("fold directions must share their initial vertex")
    v1, v2 = g.term(d1), g.term(d2)

    if case == 1:
        ends = list(g.edge_ends)
        ends[m1 - 1] = (v2, v1)
        gstar = Graph(g.num_vertices, tuple(ends))
        p_edges = [(e,) for e in g.edge_ids]
        p_edges[m1 - 1] = (d2, m1) if d1 > 0 else (-m1, -d2)
        p = GraphMap(g, gstar, tuple(range(g.num_vertices)), tuple(p_edges))
        q_edges = [(e,) for e in gstar.edge_ids]
        q_edges[m1 - 1] = (-d2, d1)
        q = GraphMap(gstar, g, tuple(range(g.num_vertices)), tuple(q_edges))
        return gstar, p, q

    if case == 2:
        w = g.num_vertices
        ends = list(g.edge_ends)
        if m1 == m2:
            # self-fold of a loop: e becomes e* l* e*^-1 with l* a loop at w*
            ends[m1 - 1] = (w, w)
            estar = len(ends) + 1
            ends.append((v0, w))
            gstar = Graph(g.num_vertices + 1, tuple(ends))
            p_edges = [(e,) for e in g.edge_ids]
            p_edges[m1 - 1] = (estar, m1, -estar) if d1 > 0 \
                else (estar, -m1, -estar)
            p = GraphMap(g, gstar, tuple(range(g.num_vertices)), tuple(p_edges))
            q_vmap = tuple(range(g.num_vertices)) + (v0,)
            q_edges = [(e,) for e in g.edge_ids]
            q_edges[m1 - 1] = (d1,)
            q_edges.append(())
            q = GraphMap(gstar, g, q_vmap, tuple(q_edges))
            return gstar, p, q
        ends[m1 - 1] = (w, v1)
        ends[m2 - 1] = (w, v2)
        estar = len(ends) + 1
        ends.append((v0, w))
        gstar = Graph(g.num_vertices + 1, tuple(ends))
        p_edges = [(e,) for e in g.edge_ids]
        p_edges[m1 - 1] = (estar, m1) if d1 > 0 else (-m1, -estar)
        p_edges[m2 - 1] = (estar, m2) if d2 > 0 else (-m2, -estar)
        p = GraphMap(g, gstar, tuple(range(g.num_vertices)), tuple(p_edges))
        q_vmap = tuple(range(g.num_vertices)) + (v0,)
        q_edges = [(e,) for e in g.edge_ids]
        q_edges[m1 - 1] = (d1,)
        q_edges[m2 - 1] = (d2,)
        q_edges.append(())
        q = GraphMap(gstar, g, q_vmap, tuple(q_edges))
        return gstar, p, q

    if case == 3:
        if v1 == v2:
            raise StructuralError(
                "full-full fold of parallel edges collapses rank")
        vkeep, vdrop = min(v1, v2), max(v1, v2)
        vmap = []
        for v in range(g.num_vertices):
            if v == vdrop:
                vmap.append(vkeep)
            elif v > vdrop:
                vmap.append(v - 1)
            else:
                vmap.append(v)
        emap = {}
        for e in g.edge_ids:
            if e == m1:
                continue
            emap[e] = e if e < m1 else e - 1
        ends = [None] * (g.num_edges - 1)
        for e, ne in emap.items():
            u, v = g.edge_ends[e - 1]
            ends[ne - 1] = (vmap[u], vmap[v])
        gstar = Graph(g.num_vertices - 1, tuple(ends))

        def signed(d):
            return emap[abs(d)] if d > 0 else -emap[abs(d)]

        p_edges = []
        for e in g.edge_ids:
            if e == m1:
                p_edges.append((signed(d2),) if d1 > 0 else (-signed(d2),))
            else:
                p_edges.append((signed(e),))
        p = GraphMap(g, gstar, tuple(vmap), tuple(p_edges))

        q_vmap = []
        merged_new = vmap[v1]
        for nv in range(gstar.num_vertices):
            if nv == merged_new:
                q_vmap.append(v2)
            else:
                q_vmap.append(nv if nv < vdrop else nv + 1)
        q_edges = [None] * gstar.num_edges
        for e, ne in emap.items():
            u, v = g.edge_ends[e - 1]
            path = (e,)
            if u == v1:
                path = (-d2, d1) + path
            if v == v1:
                path = path + (-d1, d2)
            q_edges[ne - 1] = path
        q = GraphMap(gstar, g, tuple(q_vmap), tuple(q_edges))
        return gstar, p, q

    raise ValueError("unknown fold case %r" % (case,))


def _push_filtration(g, p):
    """G*_i = p(G_i); returns (levels or None, flags)."""
    if g.filtration is None:
        return None, ()
    levels = []
    for lev in g.filtration:
        pushed = set()
        for e in lev:
            pushed.update(abs(d) for d in p.edge_map[e - 1])
        levels.append(frozenset(pushed))
    for lo, hi in zip(levels, levels[1:]):
        if not lo < hi:
            return None, ("pushed-filtration-degenerate",)
    return tuple(levels), ()


def _push_graph_data(g, gstar, p):
    """Transport basepoint, marking, filtration through the fold quotient."""
    basepoint = p.vertex_map[g.basepoint] if g.basepoint is not None else None
    marking = None
    if g.marking is not None:
        marking = tuple(reduce_word(apply_path(p, mp)) for mp in g.marking)
    levels, flags = _push_filtration(g, p)
    g2 = Graph(gstar.num_vertices, gstar.edge_ends, basepoint, marking,
               levels, g.weak_filtration if levels is not None else False)
    return g2, flags


def apply_fold_move(g, spec):
    """Carry out a fold on a graph alone (no map being factored): the record
    with quotient, inverse, and pushed filtration/marking data."""
    gstar_raw, p, q = fold_move(g, spec)
    gstar, push_flags = _push_graph_data(g, gstar_raw, p)
    p = GraphMap(g, gstar, p.vertex_map, p.edge_map)
    q = GraphMap(gstar, g, q.vertex_map, q.edge_map)
    return FoldRecord(spec, spec.case, p, q, tuple(spec.flags) + push_flags)


def apply_fold(f, spec):
    """Apply a fold to the map being factored: f = f1 o p.

    Returns (record, f1).  The subdivision at image split points is implicit
    in the case constructions (the new vertex of a case-2 fold is the split
    point; a case-1 split point is absorbed into v2).
    """
    g = f.domain
    pa, pb = f.image(spec.d1), f.image(spec.d2)
    c = spec.prefix_len
    if pa[:c] != pb[:c]:
        raise StructuralError("fold spec does not match the map")
    record = apply_fold_move(g, spec)
    gstar = record.graph_star

    m1, m2 = abs(spec.d1), abs(spec.d2)
    h = f.codomain
    if spec.case == 1:
        emap = list(f.edge_map)
        rest = pa[c:]
        emap[m1 - 1] = rest
        vmap = f.vertex_map
        f1 = GraphMap(gstar, h, vmap, tuple(emap))
    elif spec.case == 2:
        emap = list(f.edge_map)
        if m1 == m2:
            emap[m1 - 1] = pa[c:len(pa) - c]
            if not emap[m1 - 1]:
                raise StructuralError("overlapping self-fold segments")
        else:
            emap[m1 - 1] = pa[c:]
            emap[m2 - 1] = pb[c:]
        emap.append(pa[:c])
        split_vertex = h.term(pa[c - 1])
        vmap = f.vertex_map + (split_vertex,)
        f1 = GraphMap(gstar, h, vmap, tuple(emap))
    else:
        if f.vertex_map[g.term(spec.d1)] != f.vertex_map[g.term(spec.d2)]:
            raise StructuralError("case-3 fold with mismatched terminal images")
        emap = []
        for e in g.edge_ids:
            if e == m1:
                continue
            emap.append(f.edge_map[e - 1])
        vdrop = max(g.term(spec.d1), g.term(spec.d2))
        vmap = tuple(w for v, w in enumerate(f.vertex_map) if v != vdrop)
        f1 = GraphMap(gstar, h, vmap, tuple(emap))

    if edgelet_count(f1) >= edgelet_count(f):
        raise StructuralError("fold failed to decrease the edgelet count")
    return record, f1


def invert_fold(record, b=None, a=None):
    """The explicit inverse q of a fold, with its support bookkeeping.

    Returns (q, supported, widened): q is always produced; `supported` says
    whether q is supported on G*(b,a); case-3 folds with v1 in Fr(G,b,a) widen
    the support, mirroring the frontier dichotomy.
    """
    q = record.inverse
    if b is None or a is None or record.quotient.domain.filtration is None:
        return q, None, False
    g = record.quotient.domain
    spec = record.spec
    widened = False
    if record.case == 3:
        widened = g.term(spec.d1) in frontier(g, b, a)
    return q, not widened, widened


def folds_into_lower_strata(record, a):
    """True when the fully folded edge e2 lies in G_{a-1}."""
    g = record.quotient.domain
    if g.filtration is None:
        raise ValueError("record has no filtration context")
    return g.level_of(abs(record.spec.d2)) <= a - 1


# ---------------------------------------------------------------------------
# homeomorphisms
# ---------------------------------------------------------------------------

def _try_invert_homeo(f):
    """Inverse of a subdivision-followed-by-isomorphism, or None."""
    g, h = f.domain, f.codomain
    deg = [0] * (h.num_edges + 1)
    for p in f.edge_map:
        if not p or reduce_word(p) != p:
            return None
        for d in p:
            deg[abs(d)] += 1
    if any(d != 1 for d in deg[1:]):
        return None
    vmap = [None] * h.num_vertices
    for v in range(g.num_vertices):
        w = f.vertex_map[v]
        if vmap[w] is not None:
            return None
        vmap[w] = v
    emap = [None] * h.num_edges
    for e in g.edge_ids:
        path = f.edge_map[e - 1]
        first = path[0]
        emap[abs(first) - 1] = (e,) if first > 0 else (-e,)
        term = g.term(e)
        cur = h.init(path[0])
        for d in path[:-1]:
            cur = h.term(d)
            if vmap[cur] is not None:
                return None
            vmap[cur] = term
        for d in path[1:]:
            emap[abs(d) - 1] = ()
    if any(v is None for v in vmap):
        return None
    inv = GraphMap(h, g, tuple(vmap), tuple(emap))
    return inv


def is_homeomorphism(f):
    return _try_invert_homeo(f) is not None


def invert_homeomorphism(f):
    """Inverse of a homeomorphism; LC(M) = 1 by construction."""
    inv = _try_invert_homeo(f)
    if inv is None:
        raise CertificationError("map is not a homeomorphism")
    return inv


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

CLEAN_SEARCH_BUDGET = 50_000


def _fold_greedily(f):
    """Fold in find_fold's order until f is an immersion: (records, terminal).
    apply_fold raises unless the edgelet count drops, so the loop ends."""
    records = []
    while (spec := find_fold(f)) is not None:
        record, f = apply_fold(f, spec)
        records.append(record)
    return records, f


def _clean_factorize(f, budget=CLEAN_SEARCH_BUDGET):
    """Depth-first search for a factorization avoiding dirty case-3 folds
    (inverse LC = 2).  Returns (outcome, states popped, found): "clean" with
    (records, terminal), or "none-exists" / "budget" with None."""
    seen = set()
    stack = [(f, ())]
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
        cands = _fold_candidates(cur)
        if not cands:
            if _try_invert_homeo(cur) is not None:
                return "clean", steps, (recs, cur)
            continue
        # push in reverse so the deterministic first candidate pops first
        branches = []
        for v, da, db in cands:
            spec = _normalize_spec(cur, v, da, db)
            if "case3-loop-at-v1" in spec.flags:
                continue
            try:
                record, nxt = apply_fold(cur, spec)
            except StructuralError:
                continue
            branches.append((nxt, recs + (record,)))
        stack.extend(reversed(branches))
    return "none-exists", steps, None


def factorize(f):
    """Factor f into folds, in find_fold's greedy order, followed by a
    homeomorphism.

    Raises CertificationError (with the residual map attached) when the
    terminal immersion is not a homeomorphism, which happens exactly when f
    was not a homotopy equivalence.  A record flagged case3-loop-at-v1 has
    an inverse with LC = 2; clean_factorize looks for an order without one.
    """
    f = tighten_map(f)
    if any(not p for p in f.edge_map):
        raise CertificationError(
            "cannot factor a map with collapsed edges", residual=f)
    records, cur = _fold_greedily(f)
    theta_inv = _try_invert_homeo(cur)
    if theta_inv is None:
        raise CertificationError(
            "terminal immersion is not a homeomorphism; "
            "the input was not a homotopy equivalence", residual=cur)
    return FoldFactorization(f.domain, f.codomain, tuple(records), cur,
                             theta_inv)


def clean_factorize(f):
    """factorize, then, if a greedy record is flagged, the search for an
    order in which every record has LC(M(q)) = 1.  The greedy records are
    kept when it finds none; clean_outcome says why."""
    f = tighten_map(f)
    fact = factorize(f)
    if not any("case3-loop-at-v1" in r.flags for r in fact.records):
        return replace(fact, clean_outcome="clean")
    outcome, steps, found = _clean_factorize(f)
    if found is None:
        return replace(fact, clean_outcome=outcome, clean_steps=steps)
    records, terminal = found
    return FoldFactorization(f.domain, f.codomain, records, terminal,
                             _try_invert_homeo(terminal), outcome, steps)


@dataclass(frozen=True)
class InverseStats:
    fold_count: int
    lc: int
    log_bound: float
    within_bound: bool
    stage_lcs: tuple


def controlled_inverse(fact):
    """Homotopy inverse g = q_1 o ... o q_k o theta', tightened.

    Returns (g, stats): stats is the LC bookkeeping against the
    Edge_n^{k-1} * prod LC(M(q_i)) product bound.
    """
    # reduction commutes with substitution: per-stage tightening, same g
    g = tighten_map(fact.theta_inverse)
    for record in reversed(fact.records):
        g = tighten_map(compose(record.inverse, g))
    stage_lcs = [int(transition_matrix(r.inverse).entries.max(initial=0))
                 for r in fact.records]
    stage_lcs.append(int(transition_matrix(fact.theta_inverse).entries.max(initial=0)))
    k = len(stage_lcs)
    n = rank(fact.source)
    log_bound = (k - 1) * np.log(edge_bound(n)) + sum(
        np.log(max(c, 1)) for c in stage_lcs)
    lc = int(transition_matrix(g).entries.max(initial=0))
    stats = InverseStats(fact.fold_count, lc, float(log_bound),
                         bool(np.log(max(lc, 1)) <= log_bound + 1e-9),
                         tuple(stage_lcs))
    return g, stats


# ---------------------------------------------------------------------------
# homotopy-equivalence certification
# ---------------------------------------------------------------------------

def collapse_edges(g, edges):
    """Collapse a subforest.  Returns (graph, collapse map)."""
    edges = frozenset(edges)
    if not edges:
        return g, identity_map(g)
    if subgraph_rank(g, edges) != 0:
        raise StructuralError("collapsing a subgraph with a cycle changes rank")
    parent = list(range(g.num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        u, v = g.edge_ends[e - 1]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    reps = sorted({find(v) for v in range(g.num_vertices)})
    new_id = {r: i for i, r in enumerate(reps)}
    vmap = tuple(new_id[find(v)] for v in range(g.num_vertices))
    surviving = [e for e in g.edge_ids if e not in edges]
    emap = {e: i + 1 for i, e in enumerate(surviving)}
    ends = tuple((vmap[g.edge_ends[e - 1][0]], vmap[g.edge_ends[e - 1][1]])
                 for e in surviving)
    g2 = Graph(len(reps), ends)
    p_edges = tuple(() if e in edges else (emap[e],) for e in g.edge_ids)
    cmap = GraphMap(g, g2, vmap, p_edges)
    return g2, cmap


def _component_maps(f):
    """Split f by domain components; None when components don't biject."""
    g, h = f.domain, f.codomain
    from .graph import components as graph_components
    dom_comps = graph_components(g)
    cod_comps = graph_components(h)
    cod_index = {}
    for i, comp in enumerate(cod_comps):
        for v in comp:
            cod_index[v] = i
    hit = {}
    for comp in dom_comps:
        target = cod_index[f.vertex_map[next(iter(comp))]]
        if target in hit:
            return None
        hit[target] = comp
    if len(hit) != len(cod_comps):
        return None
    pairs = []
    from .graph_map import restrict
    for i, cod_comp in enumerate(cod_comps):
        dom_comp = hit[i]
        dom_edges = [e for e in g.edge_ids
                     if g.edge_ends[e - 1][0] in dom_comp]
        cod_edges = [e for e in h.edge_ids
                     if h.edge_ends[e - 1][0] in cod_comp]
        rf, _, _ = restrict(f, dom_edges, cod_edges=frozenset(cod_edges))
        pairs.append(rf)
    return pairs


def _terminal_is_embedding(f):
    """Injectivity of an immersion: edges covered at most once, vertex map
    injective, and no interior pass colliding with a vertex image or another
    interior pass."""
    h = f.codomain
    deg = [0] * (h.num_edges + 1)
    for p in f.edge_map:
        for d in p:
            deg[abs(d)] += 1
    if any(d > 1 for d in deg[1:]):
        return False
    seen = set()
    for v in range(f.domain.num_vertices):
        w = f.vertex_map[v]
        if w in seen:
            return False
        seen.add(w)
    interior = set()
    for p in f.edge_map:
        for d in p[:-1]:
            w = h.term(d)
            if w in seen or w in interior:
                return False
            interior.add(w)
    return True


def certify_homotopy_equivalence(f):
    """Constructive homotopy-equivalence check via Stallings folds.

    Component bijection, rank agreement, fold to a terminal immersion, check
    it embeds, and check the embedded image carries the full rank of the
    codomain component (the complement is then a hanging forest).
    """
    f = tighten_map(f)
    pieces = _component_maps(f)
    if pieces is None:
        return False
    for rf in pieces:
        collapsed = [e for e in rf.domain.edge_ids if not rf.edge_map[e - 1]]
        if collapsed:
            if subgraph_rank(rf.domain, collapsed) != 0:
                return False
            g2, cmap = collapse_edges(rf.domain, collapsed)
            vmap = [None] * g2.num_vertices
            for v in range(rf.domain.num_vertices):
                vmap[cmap.vertex_map[v]] = rf.vertex_map[v]
            emap = [rf.edge_map[e - 1] for e in rf.domain.edge_ids
                    if e not in set(collapsed)]
            rf = GraphMap(g2, rf.codomain, tuple(vmap), tuple(emap))
        if rank(rf.domain) != rank(rf.codomain):
            return False
        try:
            _, cur = _fold_greedily(rf)
        except StructuralError:
            return False
        if not _terminal_is_embedding(cur):
            return False
        image = set()
        for p in cur.edge_map:
            image.update(abs(d) for d in p)
        if subgraph_rank(cur.codomain, image) != rank(cur.codomain):
            return False
    return True

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

A factorization folds one mutable state (_FoldState) in place: a fold
changes the ends and images of the directions it folds and nothing else.
Each graph move is made once, and its record keeps the fold spec with what
the stage inverse needs beyond it (_inverse_columns); the quotient, the
stage inverse, the folded graph with its transported marking and
filtration, and the flags of that filtration are built when first read.
controlled_inverse composes the stage inverses edge by edge from the
records, and inverse_stats reads their LC bookkeeping off them when asked.
"""

import logging
import math
from collections import Counter, deque
from dataclasses import dataclass, replace
from functools import cached_property
from operator import neg
from typing import NamedTuple

from .errors import CertificationError, StructuralError
from .graph import Graph, _union_find, components, frontier, rank
from .graph_map import (
    GraphMap, _image_edges, apply_path, identity_map, is_tight, tighten_map,
)
from .words import _longest, invert_word, reduce_word

__all__ = [
    "FoldSpec", "FoldRecord", "FoldFactorization", "find_fold", "apply_fold",
    "apply_fold_move", "invert_fold",
    "invert_homeomorphism",
    "is_homeomorphism", "factorize", "clean_factorize", "controlled_inverse",
    "InverseStats", "inverse_stats", "folds_into_lower_strata",
    "certify_homotopy_equivalence", "collapse_edges", "vertex_bound",
    "edge_bound",
]

log = logging.getLogger("foldtrack")


def vertex_bound(n):
    """V_n: twice the relative-train-track vertex bound 6n-6."""
    return max(2 * (6 * n - 6), 2)


def edge_bound(n):
    """Edge_n: edge count bound for rank-n graphs with at most V_n vertices."""
    return max(n + vertex_bound(n) - 1, 1)


class FoldSpec(NamedTuple):
    """A normalized fold candidate.  d1/d2 are signed edge ids out of vertex,
    prefix_len the length of the shared image prefix."""

    vertex: int
    d1: int
    d2: int
    prefix_len: int
    case: int
    flags: tuple = ()


class FoldRecord:
    """One fold of a sequence: its spec and what its stage inverse needs
    beyond it, set when the fold is made, and the quotient p : G -> G*,
    the stage inverse q : G* -> G, G* and the flags, built on first access.
    G is the graph the sequence started from, carried through the folds
    before this one with its basepoint, marking and filtration."""

    __slots__ = ("spec", "_prev", "_stage", "_maps")

    def __init__(self, spec, prev, stage):
        self.spec = spec
        self._prev = prev      # the record before, or the graph folded first
        self._stage = stage    # what _inverse_columns kept of the fold
        self._maps = None      # (p, q, pushed-filtration flags) once built

    @property
    def case(self):
        return self.spec.case

    @property
    def flags(self):
        """The spec's flags, then those of the filtration pushed to G*."""
        return self.spec.flags + self._built()[2]

    @property
    def quotient(self):
        return self._built()[0]

    @property
    def inverse(self):
        return self._built()[1]

    @property
    def graph_star(self):
        return self.quotient.codomain

    def _built(self):
        if self._maps is None:
            pending, r = [], self
            while isinstance(r, FoldRecord) and r._maps is None:
                pending.append(r)
                r = r._prev
            g = r if isinstance(r, Graph) else r._maps[0].codomain
            for r in reversed(pending):
                r._maps = _stage_maps(g, r)
                g = r._maps[0].codomain
        return self._maps

    def __eq__(self, other):
        if not isinstance(other, FoldRecord):
            return NotImplemented
        return (self.spec, self._built()) == (other.spec, other._built())

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return "FoldRecord(spec=%r, flags=%r)" % (self.spec, self.flags)


@dataclass(frozen=True)
class FoldFactorization:
    source: Graph
    target: Graph
    records: tuple            # FoldRecord per fold, in application order
    terminal: GraphMap        # K^k -> G' on the bare graph K^k
    terminal_inverse: GraphMap
    # clean_factorize's search: clean | none-exists | budget; else not-run
    clean_outcome: str = "not-run"
    clean_steps: int = 0

    @property
    def fold_count(self):
        return len(self.records)

    @cached_property
    def theta(self):
        """The terminal homeomorphism, on K^k with its transported marking."""
        k = self.records[-1].graph_star if self.records else self.source
        t = self.terminal
        return GraphMap(k, t.codomain, t.vertex_map, t.edge_map)

    @cached_property
    def theta_inverse(self):
        t = self.terminal_inverse
        return GraphMap(t.domain, self.theta.domain, t.vertex_map, t.edge_map)


# ---------------------------------------------------------------------------
# the fold engine
# ---------------------------------------------------------------------------
#
# An edge image is a view (buf, lo, hi, rev) of a tuple buf: the letters
# buf[lo:hi], read backwards and inverted when rev is set.  A fold cuts a
# prefix off a view or turns it round without copying letters.

def _letters(view, i, j):
    """Letters i..j-1 of a view, as a tuple."""
    buf, lo, hi, rev = view
    return invert_word(buf[hi - j:hi - i]) if rev else buf[lo + i:lo + j]


def _cut(view, i, j):
    """The view of letters i..j-1."""
    buf, lo, hi, rev = view
    return (buf, hi - j, hi - i, True) if rev else (buf, lo + i, lo + j, False)


def _ends_of(ends, d):
    """(init, term) of the signed edge d."""
    u, v = ends[abs(d) - 1]
    return (u, v) if d > 0 else (v, u)


def _fold_vertices(ends, spec):
    """(v0, v1, v2): the common initial vertex of d1, d2 and their terminal
    vertices.  Raises StructuralError when the graph cannot make the fold."""
    d1, d2, case = spec.d1, spec.d2, spec.case
    if abs(d1) == abs(d2):
        if d1 == d2:
            raise StructuralError("cannot fold a direction with itself")
        if case != 2:
            # both ends of a loop share a prefix; the segments are always
            # proper and disjoint (a reduced word never equals its own
            # reversal half-way)
            raise StructuralError("self-fold of a loop must be a case-2 fold")
    v0, v1 = _ends_of(ends, d1)
    u2, v2 = _ends_of(ends, d2)
    if u2 != v0:
        raise StructuralError("fold directions must share their initial vertex")
    if case not in (1, 2, 3):
        raise ValueError("unknown fold case %r" % (case,))
    if case == 3 and v1 == v2:
        raise StructuralError("full-full fold of parallel edges collapses rank")
    return v0, v1, v2


def _merge_map(nv, v1, v2):
    """Vertex renumbering of a case-3 fold: max(v1, v2) goes to min(v1, v2)
    and the vertices above it shift down."""
    keep, drop = min(v1, v2), max(v1, v2)
    return [keep if v == drop else v - (v > drop) for v in range(nv)]


def _move_ends(nv, ends, spec, v0, v1, v2):
    """Make the fold on the graph: changes the list ends in place and
    returns the new vertex count.  Edge ids stay dense: replacement edges
    reuse the replaced slot, new material is appended, a deleted edge
    shifts higher ids down."""
    m1, m2 = abs(spec.d1), abs(spec.d2)
    if spec.case == 1:
        ends[m1 - 1] = (v2, v1)
        return nv
    if spec.case == 2:
        if m1 == m2:
            # self-fold of a loop: e becomes e* l* e*^-1 with l* a loop at w*
            ends[m1 - 1] = (nv, nv)
        else:
            ends[m1 - 1] = (nv, v1)
            ends[m2 - 1] = (nv, v2)
        ends.append((v0, nv))
        return nv + 1
    vmap = _merge_map(nv, v1, v2)
    del ends[m1 - 1]
    ends[:] = [(vmap[u], vmap[v]) for u, v in ends]
    return nv - 1


def _inverse_columns(ends, spec, v0, v1, v2):
    """What a fold's record keeps for its stage inverse beyond the spec,
    read off G's ends: None for case 1, the vertex v0 that a case-2 fold's
    new vertex goes to, and for case 3 v1, v2 and the columns of _columns,
    which for the other cases follow from the spec and G's edge count."""
    if spec.case == 1:
        return None
    if spec.case == 2:
        return v0
    d1, d2 = spec.d1, spec.d2
    m1 = abs(d1)
    cols = {}
    for e, (u, v) in enumerate(ends, start=1):
        if e == m1 or v1 not in (u, v):
            continue
        path = (e,)
        if u == v1:
            path = (-d2, d1) + path
        if v == v1:
            path = path + (-d1, d2)
        cols[e if e < m1 else e - 1] = path
    return v1, v2, cols


def _columns(spec, stage, edges):
    """The edge images of the stage inverse q : G* -> G that are not one
    edge of G carried to itself, keyed by the edge of G*, stage what
    _inverse_columns kept and edges G's edge count."""
    d1, d2 = spec.d1, spec.d2
    if spec.case == 1:
        return {abs(d1): (-d2, d1)}
    if spec.case == 2:    # a loop's self-fold keeps (d1,)
        return {abs(d2): (d2,), abs(d1): (d1,), edges + 1: ()}
    return stage[2]


def _pull_vertices(vals, spec, stage):
    """Per-vertex values of G, changed in place to those of G* by the stage
    inverse's vertex map, stage what _inverse_columns kept: case 2 gives the
    new vertex v0's, case 3 the merged vertex v2's."""
    if spec.case == 2:
        vals.append(vals[stage])
    elif spec.case == 3:
        v1, v2, _ = stage
        keep, drop = min(v1, v2), max(v1, v2)
        vals[keep] = vals[v2]
        del vals[drop]


class _FoldState:
    """A map being folded, changed in place fold by fold.

    nv and ends are the current domain graph, vimg and img the vertex
    images and edge image views in the fixed codomain, edgelets the total
    image length, last the latest record (or g, the graph of f's domain
    with its marking and filtration).
    """

    __slots__ = ("nv", "ends", "codomain", "vimg", "img", "edgelets", "last")

    def __init__(self, g, f):
        self.nv = g.num_vertices
        self.ends = list(g.edge_ends)
        self.last = g
        self.codomain = f.codomain
        self.vimg = list(f.vertex_map)
        self.img = [(p, 0, len(p), False) for p in f.edge_map]
        self.edgelets = sum(map(len, f.edge_map))

    def copy(self):
        """A copy of the state, to fold independently."""
        other = _FoldState.__new__(_FoldState)
        for name in _FoldState.__slots__:
            setattr(other, name, getattr(self, name))
        other.ends = list(self.ends)
        other.vimg = list(self.vimg)
        other.img = list(self.img)
        return other

    def _view(self, d):
        """The view of edge |d|'s image read along the signed direction d."""
        view = self.img[abs(d) - 1]
        return view if d > 0 else (view[0], view[1], view[2], not view[3])

    def images(self):
        return tuple([invert_word(buf[lo:hi]) if rev else buf[lo:hi]
                      for buf, lo, hi, rev in self.img])

    def as_map(self, domain=None):
        """The current map; its domain is the bare graph unless given."""
        if domain is None:
            domain = Graph(self.nv, tuple(self.ends))
        return GraphMap(domain, self.codomain, tuple(self.vimg), self.images())

    def records(self):
        """The records of the folds made so far, first to last."""
        out, r = [], self.last
        while isinstance(r, FoldRecord):
            out.append(r)
            r = r._prev
        return tuple(reversed(out))

    def candidates(self):
        """(vertex, d, d') for every pair of directions at a vertex whose
        images start with the same letter: vertex by vertex, letter groups
        in the order of their least direction, pairs in sorted order."""
        return [(v, ds[i], ds[k]) for v, ds in self._groups()
                for i in range(len(ds)) for k in range(i + 1, len(ds))]

    def _groups(self):
        """(vertex, sorted directions) for each vertex and first image
        letter shared by two or more directions, by vertex and least
        direction: the first group holds the least candidate."""
        groups = self._letter_groups().items()
        shared = [(v, sorted(ds)) for (v, _), ds in groups if len(ds) > 1]
        shared.sort()
        return shared

    def _letter_groups(self):
        """The directions out of each vertex by the first letter of their
        image, keyed (vertex, letter), edge by edge and e before -e."""
        groups = {}
        img = self.img
        for e, (u, v) in enumerate(self.ends, start=1):
            buf, lo, hi, rev = img[e - 1]
            if hi > lo:
                a, b = buf[lo], -buf[hi - 1]
                if rev:
                    a, b = b, a
                groups.setdefault((u, a), []).append(e)
                groups.setdefault((v, b), []).append(-e)
        return groups

    def spec(self, v, da, db):
        """Case classification and labelling of (e1, e2)."""
        a, b = self._view(da), self._view(db)
        (bufa, loa, hia, reva), (bufb, lob, hib, revb) = a, b
        la, lb = hia - loa, hib - lob
        n = min(la, lb)
        # most shared prefixes are short: compare up to 8 letters one by
        # one, letter i of a view being sign * buf[start + sign * i], and
        # gallop only past them
        sa, ia = (-1, hia - 1) if reva else (1, loa)
        sb, ib = (-1, hib - 1) if revb else (1, lob)
        k = min(n, 8)
        c = 0
        while c < k and sa * bufa[ia + sa * c] == sb * bufb[ib + sb * c]:
            c += 1
        if c == 8 < n:
            c = _longest(n, lambda i, j: _letters(a, i, j) == _letters(b, i, j))
        if c == 0:
            raise StructuralError("directions do not share an image prefix")
        fa, fb = c == la, c == lb
        flags = ()
        if fa and fb:
            case = 3
            ends = self.ends

            # The explicit inverse conjugates the v1-side link by the
            # connector e2^-1 e1, so an edge meeting v1 twice picks up a
            # doubled occurrence.  That happens when a surviving loop sits
            # at v1, or when e1 itself is a loop (then e2 starts at v1).
            # Prefer a labelling avoiding both.
            def dirty(d):
                s, t = _ends_of(ends, d)
                return s == t or any(u == w == t and e != abs(d)
                                     for e, (u, w) in enumerate(ends, start=1))

            d1, d2 = sorted((da, db))
            if dirty(d1) and not dirty(d2):
                d1, d2 = d2, d1
            if dirty(d1):
                flags = ("case3-loop-at-v1",)
        elif fa != fb:
            case = 1
            d1, d2 = (db, da) if fa else (da, db)
        else:
            case = 2
            d1, d2 = sorted((da, db))
        return FoldSpec(v, d1, d2, c, case, flags)

    def next_fold(self):
        """find_fold's choice: the first candidate in sorted (v, d, d')
        order whose spec is not flagged case3-loop-at-v1, else the first
        flagged one, else None.  The first candidate pairs the two least
        directions of the first group of _groups, the group least by
        (vertex, least direction): the groups at a vertex hold disjoint
        directions.  It is found without sorting the others."""
        least = None
        for (v, _), ds in self._letter_groups().items():
            if len(ds) > 1:
                key = v, min(ds)
                if least is None or key < least:
                    least, group = key, ds
        if least is None:
            return None
        ds = sorted(group)
        first = self.spec(least[0], ds[0], ds[1])
        if "case3-loop-at-v1" not in first.flags:
            return first
        for v, da, db in sorted(self.candidates()):
            spec = self.spec(v, da, db)
            if "case3-loop-at-v1" not in spec.flags:
                return spec
        return first

    def fold(self, spec):
        """Make one fold and return its record.  spec shares its prefix on
        the current images (spec measured it, or apply_fold checked it).
        Every other check runs before the state changes: the graph move,
        the case-3 terminal images and the edgelet count."""
        d1, d2, case, c = spec.d1, spec.d2, spec.case, spec.prefix_len
        m1, m2 = abs(d1), abs(d2)
        img = self.img
        a, b = self._view(d1), self._view(d2)
        la, lb = a[2] - a[1], b[2] - b[1]
        v0, v1, v2 = _fold_vertices(self.ends, spec)
        if case == 1:
            total = self.edgelets - c
        elif case == 2:
            if m1 == m2 and la - 2 * c <= 0:
                raise StructuralError("overlapping self-fold segments")
            total = self.edgelets - c
        else:
            if self.vimg[v1] != self.vimg[v2]:
                raise StructuralError(
                    "case-3 fold with mismatched terminal images")
            total = self.edgelets - la
        if total >= self.edgelets:
            raise StructuralError("fold failed to decrease the edgelet count")
        stage = _inverse_columns(self.ends, spec, v0, v1, v2)
        if case == 1:
            img[m1 - 1] = _cut(a, c, la)
        elif case == 2:
            if m1 == m2:
                img[m1 - 1] = _cut(a, c, la - c)
            else:
                img[m1 - 1] = _cut(a, c, la)
                img[m2 - 1] = _cut(b, c, lb)
            img.append(_cut(a, 0, c))
            self.vimg.append(self.codomain.term(_letters(a, c - 1, c)[0]))
        else:
            del img[m1 - 1]
            del self.vimg[max(v1, v2)]
        self.edgelets = total
        self.nv = _move_ends(self.nv, self.ends, spec, v0, v1, v2)
        self.last = FoldRecord(spec, self.last, stage)
        return self.last


def _fold_greedily(state):
    """Fold in find_fold's order until the map is an immersion.  Each fold
    checks that the edgelet count drops, so the loop ends."""
    while (spec := state.next_fold()) is not None:
        state.fold(spec)


# ---------------------------------------------------------------------------
# fold detection and application, one fold at a time
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
    return _FoldState(f.domain, f).next_fold()


def _push_graph_data(g, gstar, p):
    """Transport basepoint, marking and filtration through the fold
    quotient: G*_i = p(G_i).  Returns (G*, flags); a pushed filtration
    that is not strictly increasing is dropped and flagged."""
    basepoint = p.vertex_map[g.basepoint] if g.basepoint is not None else None
    marking = None
    if g.marking is not None:
        marking = tuple(reduce_word(apply_path(p, mp)) for mp in g.marking)
    levels, flags = None, ()
    if g.filtration is not None:
        levels = tuple(_image_edges(p, lev) for lev in g.filtration)
        if any(not lo < hi for lo, hi in zip(levels, levels[1:])):
            levels, flags = None, ("pushed-filtration-degenerate",)
    g2 = Graph(gstar.num_vertices, gstar.edge_ends, basepoint, marking,
               levels, g.weak_filtration if levels is not None else False)
    return g2, flags


def _stage_maps(g, record):
    """(p, q, flags) of a record's fold of g: p and q with G*'s basepoint,
    marking and filtration, flags those of the pushed filtration.  G*'s
    ends come from the graph move, q's columns and vertex map from the
    record."""
    spec = record.spec
    d1, d2, case = spec.d1, spec.d2, spec.case
    m1, m2 = abs(d1), abs(d2)
    v0, v1, v2 = g.init(d1), g.term(d1), g.term(d2)
    ends = list(g.edge_ends)
    gstar = Graph(_move_ends(g.num_vertices, ends, spec, v0, v1, v2),
                  tuple(ends))

    p_vmap = list(range(g.num_vertices))
    p_edges = [(e,) for e in g.edge_ids]
    q_edges = list(p_edges)
    if case == 1:
        p_edges[m1 - 1] = (d2, m1) if d1 > 0 else (-m1, -d2)
    elif case == 2:
        estar = g.num_edges + 1
        if m1 == m2:
            p_edges[m1 - 1] = (estar, m1 if d1 > 0 else -m1, -estar)
        else:
            p_edges[m1 - 1] = (estar, m1) if d1 > 0 else (-m1, -estar)
            p_edges[m2 - 1] = (estar, m2) if d2 > 0 else (-m2, -estar)
        q_edges.append(())
    else:
        p_vmap = _merge_map(g.num_vertices, v1, v2)

        def signed(d):
            e = abs(d) if abs(d) < m1 else abs(d) - 1
            return e if d > 0 else -e

        p_edges = [(signed(e),) for e in g.edge_ids]
        p_edges[m1 - 1] = (signed(d2),) if d1 > 0 else (-signed(d2),)
        del q_edges[m1 - 1]
    for e, path in _columns(spec, record._stage, g.num_edges).items():
        q_edges[e - 1] = path
    q_vmap = list(range(g.num_vertices))
    _pull_vertices(q_vmap, spec, record._stage)
    p = GraphMap(g, gstar, tuple(p_vmap), tuple(p_edges))
    gstar, flags = _push_graph_data(g, gstar, p)
    return (GraphMap(g, gstar, p.vertex_map, p.edge_map),
            GraphMap(gstar, g, tuple(q_vmap), tuple(q_edges)), flags)


def apply_fold_move(g, spec):
    """Carry out a fold on a graph alone (no map being factored): the record
    with quotient, inverse, and pushed filtration/marking data, built when
    first read.  Raises StructuralError when g cannot make the fold."""
    vertices = _fold_vertices(g.edge_ends, spec)
    return FoldRecord(spec, g, _inverse_columns(g.edge_ends, spec, *vertices))


def apply_fold(f, spec):
    """Apply a fold to the map being factored: f = f1 o p.

    Returns (record, f1).  The subdivision at image split points is implicit
    in the case constructions (the new vertex of a case-2 fold is the split
    point; a case-1 split point is absorbed into v2).
    """
    state = _FoldState(f.domain, f)
    a, b = state._view(spec.d1), state._view(spec.d2)
    c = spec.prefix_len
    la, lb = a[2] - a[1], b[2] - b[1]
    if _letters(a, 0, min(c, la)) != _letters(b, 0, min(c, lb)):
        raise StructuralError("fold spec does not match the map")
    record = state.fold(spec)
    return record, state.as_map(record.graph_star)


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

def _embedding_inverse(f):
    """The inverse of an embedding on its image, or None when f is not one.

    Returns (vmap, emap): vmap[w] is the domain vertex at codomain vertex w,
    the terminal vertex of e where w is interior to f(e), None off the
    image; emap[e'-1] is +-e for the first edge of a path f(e), () for the
    others, None off the image.  f embeds when no codomain edge is crossed
    twice and no vertex is met twice: by two vertex images, or by an
    interior vertex of a path and a vertex image or another interior
    vertex.  A path crossing no edge twice is reduced."""
    h_ends = f.codomain.edge_ends
    vmap = [None] * f.codomain.num_vertices
    for v, w in enumerate(f.vertex_map):
        if vmap[w] is not None:
            return None
        vmap[w] = v
    emap = [None] * len(h_ends)
    for e, ((_, term), path) in enumerate(zip(f.domain.edge_ends, f.edge_map),
                                          start=1):
        for d in path:
            if emap[abs(d) - 1] is not None:
                return None
            emap[abs(d) - 1] = ()
        if path:
            first = path[0]
            emap[abs(first) - 1] = (e,) if first > 0 else (-e,)
            for d in path[:-1]:
                w = h_ends[d - 1][1] if d > 0 else h_ends[-d - 1][0]
                if vmap[w] is not None:
                    return None
                vmap[w] = term
    return vmap, emap


def _try_invert_homeo(f):
    """Inverse of a subdivision-followed-by-isomorphism, or None: an
    embedding collapsing no edge whose image is the whole codomain."""
    tables = _embedding_inverse(f)
    if tables is None or not all(f.edge_map):
        return None
    vmap, emap = tables
    if None in vmap or None in emap:
        return None
    return GraphMap(f.codomain, f.domain, tuple(vmap), tuple(emap))


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


def _clean_factorize(f, budget=CLEAN_SEARCH_BUDGET):
    """Depth-first search for a factorization avoiding dirty case-3 folds
    (inverse LC = 2).  Returns (outcome, states popped, found): "clean" with
    (records, terminal), or "none-exists" / "budget" with None."""
    seen = set()
    stack = [_FoldState(f.domain, f)]
    steps = 0
    while stack:
        if steps == budget:
            return "budget", steps, None
        steps += 1
        cur = stack.pop()
        key = (tuple(cur.ends), tuple(cur.vimg), cur.images())
        if key in seen:
            continue
        seen.add(key)
        cands = cur.candidates()
        if not cands:
            terminal = cur.as_map(None if cur.records() else f.domain)
            if _try_invert_homeo(terminal) is not None:
                return "clean", steps, (cur.records(), terminal)
            continue
        # push in reverse so the deterministic first candidate pops first
        branches = []
        for v, da, db in cands:
            spec = cur.spec(v, da, db)
            if "case3-loop-at-v1" in spec.flags:
                continue
            nxt = cur.copy()
            try:
                nxt.fold(spec)
            except StructuralError:
                continue
            branches.append(nxt)
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
    return _factorize_tight(f)


def _factorize_tight(f):
    """factorize of a tight map that collapses no edge, taking f as it is:
    the rose map of an Automorphism is one, its images being reduced and
    nonempty."""
    state = _FoldState(f.domain, f)
    _fold_greedily(state)
    records = state.records()
    cur = state.as_map(None if records else f.domain)
    theta_inv = _try_invert_homeo(cur)
    if theta_inv is None:
        raise CertificationError(
            "terminal immersion is not a homeomorphism; "
            "the input was not a homotopy equivalence", residual=cur)
    if log.isEnabledFor(logging.DEBUG):
        cases = Counter(r.case for r in records)
        log.debug("factorize: %d folds (case 1: %d, case 2: %d, case 3: %d); "
                  "flagged records %s", len(records), cases[1], cases[2],
                  cases[3], [(i, r.spec.flags) for i, r in enumerate(records, 1)
                             if r.spec.flags] or "none")
    return FoldFactorization(f.domain, f.codomain, records, cur, theta_inv)


def clean_factorize(f):
    """factorize, then, if a greedy record is flagged, the search for an
    order in which every record has LC(M(q)) = 1.  The greedy records are
    kept when it finds none; clean_outcome says why."""
    fact = factorize(f)
    if not any("case3-loop-at-v1" in r.spec.flags for r in fact.records):
        return replace(fact, clean_outcome="clean")
    f = tighten_map(f)
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


def _multiplicity(path):
    """The largest number of times one edge occurs in a path: the path's
    column maximum in a transition matrix."""
    edges = list(map(abs, path))
    if len(set(edges)) == len(edges):
        return 1 if edges else 0
    return max(Counter(edges).values())


def _log(x):
    return math.log(max(x, 1))


def _words(paths, ds):
    """The reduced product of the paths paths[|d|] = [deque, reversed] read
    along each d of ds.  The paths are reduced, so one is read as it is."""
    if len(ds) == 1:
        d = ds[0]
        dq, rev = paths[abs(d) - 1]
        return invert_word(dq) if (d < 0) != rev else tuple(dq)
    if not ds:
        return ()
    out = []
    for d in ds:
        dq, rev = paths[abs(d) - 1]
        out.extend(map(neg, reversed(dq)) if (d < 0) != rev else dq)
    return reduce_word(out)


def _wrap(path, pre, post):
    """path := reduce(pre . path . post) for a [deque, reversed] path and
    reduced words pre, post; only the two seams can cancel."""
    dq, rev = path
    if rev:
        pre, post = invert_word(post), invert_word(pre)
    k = len(pre)
    while k and dq and dq[0] == -pre[k - 1]:
        dq.popleft()
        k -= 1
    dq.extendleft(reversed(pre[:k]))
    k = 0
    while k < len(post) and dq and dq[-1] == -post[k]:
        dq.pop()
        k += 1
    dq.extend(post[k:])


def controlled_inverse(fact):
    """The homotopy inverse g = q_1 o ... o q_k o theta', tightened, of the
    map fact factors: a map fact.target -> fact.source.  Its LC bookkeeping
    is inverse_stats(fact, g), computed only where it is read.

    The composite Q_i = q_1 o ... o q_i is kept tightened, one reduced path
    of the first graph per edge of G_i.  A stage rewrites only the edges its
    inverse does not carry to themselves, and extends each such path at its
    two ends in place; since reduction commutes with substitution, g equals
    the stage-by-stage tightening of the literal composite.
    """
    g0 = fact.source
    paths = [[deque((e,)), False] for e in g0.edge_ids]
    verts = list(range(g0.num_vertices))
    for record in fact.records:
        spec = record.spec
        m1 = abs(spec.d1)
        rewritten = []
        for e, path in _columns(spec, record._stage, len(paths)).items():
            if not path:            # the new edge of a case-2 fold
                rewritten.append((e, [deque(), False], (), ()))
                continue
            own = e + 1 if spec.case == 3 and e >= m1 else e
            i = path.index(own) if own in path else path.index(-own)
            dq, rev = paths[own - 1]
            rewritten.append((e, [dq, rev if path[i] > 0 else not rev],
                              _words(paths, path[:i]),
                              _words(paths, path[i + 1:])))
        # every pre and post word is read before any path changes
        for e, new, pre, post in rewritten:
            _wrap(new, pre, post)
        if spec.case == 2:
            paths.append(None)
        elif spec.case == 3:
            del paths[m1 - 1]
        for e, new, _, _ in rewritten:
            paths[e - 1] = new
        _pull_vertices(verts, spec, record._stage)
    theta_inv = fact.terminal_inverse
    emap = tuple(_words(paths, p) for p in theta_inv.edge_map)
    g = GraphMap(fact.target, g0,
                 tuple(verts[v] for v in theta_inv.vertex_map), emap)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("controlled inverse: %d stages (%d folds and the terminal "
                  "homeomorphism), LC %d", fact.fold_count + 1,
                  fact.fold_count, max(map(_multiplicity, emap), default=0))
    return g


def inverse_stats(fact, g):
    """The LC bookkeeping of g = controlled_inverse(fact) against the
    Edge_n^{k-1} * prod LC(M(q_i)) product bound, over the k = folds + 1
    stages (the terminal homeomorphism's inverse last): LC(M(q_i)) per
    stage, read off the stage inverse's columns, LC(M(g)), the log of the
    bound with n = rank of fact.source, and whether LC(M(g)) is within it."""
    stage_lcs = []
    edges = fact.source.num_edges       # of G_i, then of G*
    for record in fact.records:
        spec = record.spec
        cols = _columns(spec, record._stage, edges)
        edges += (spec.case == 2) - (spec.case == 3)
        lc = max(map(_multiplicity, cols.values()), default=0)
        # an edge of G* with no column is carried to itself: multiplicity 1
        stage_lcs.append(max(lc, 1) if edges > len(cols) else lc)
    theta_inv = fact.terminal_inverse
    stage_lcs.append(max(map(_multiplicity, theta_inv.edge_map), default=0))
    k = len(stage_lcs)
    log_bound = ((k - 1) * _log(edge_bound(rank(fact.source)))
                 + sum(map(_log, stage_lcs)))
    lc = max(map(_multiplicity, g.edge_map), default=0)
    return InverseStats(fact.fold_count, lc, log_bound,
                        bool(_log(lc) <= log_bound + 1e-9), tuple(stage_lcs))


# ---------------------------------------------------------------------------
# homotopy-equivalence certification
# ---------------------------------------------------------------------------

def collapse_edges(g, edges):
    """Collapse a subforest.  Returns (graph, collapse map)."""
    edges = frozenset(edges)
    if not edges:
        return g, identity_map(g)
    label, joins = _union_find(g.num_vertices,
                               [g.edge_ends[e - 1] for e in edges])
    if len(joins) != len(edges):
        raise StructuralError("collapsing a subgraph with a cycle changes rank")
    vmap = tuple(label)
    surviving = [e for e in g.edge_ids if e not in edges]
    emap = {e: i + 1 for i, e in enumerate(surviving)}
    ends = tuple((vmap[g.edge_ends[e - 1][0]], vmap[g.edge_ends[e - 1][1]])
                 for e in surviving)
    g2 = Graph(g.num_vertices - len(edges), ends)
    p_edges = tuple(() if e in edges else (emap[e],) for e in g.edge_ids)
    cmap = GraphMap(g, g2, vmap, p_edges)
    return g2, cmap


def certify_homotopy_equivalence(f):
    """Constructive homotopy-equivalence check via Stallings folds.

    The components biject, the zero-image forest collapses, the ranks
    agree, and the folded map embeds.  Folds keep the rank, and an
    embedding's image has its domain's, so the image carries the full rank
    of the codomain: the complement is a hanging forest.  Folds never leave
    a component, so the whole map is folded at once.
    """
    f = tighten_map(f)
    g, h = f.domain, f.codomain
    cod_comps = components(h)
    cod_index = {v: i for i, comp in enumerate(cod_comps) for v in comp}
    # each domain component lands in one codomain component: a bijection
    # when every codomain component is hit and the counts agree
    hit = {cod_index[w] for w in f.vertex_map}
    if not len(components(g)) == len(hit) == len(cod_comps):
        return False
    collapsed = [e for e in g.edge_ids if not f.edge_map[e - 1]]
    if collapsed:
        try:
            g2, cmap = collapse_edges(g, collapsed)
        except StructuralError:  # the zero-image subgraph has a cycle
            return False
        vmap = [None] * g2.num_vertices
        for v, w in enumerate(f.vertex_map):
            vmap[cmap.vertex_map[v]] = w
        f = GraphMap(g2, h, tuple(vmap), tuple(p for p in f.edge_map if p))
    if rank(f.domain) != rank(h):
        return False
    state = _FoldState(f.domain, f)
    try:
        _fold_greedily(state)
    except StructuralError:
        return False
    return _embedding_inverse(state.as_map()) is not None

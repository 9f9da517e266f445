"""Upper bounds for the quasi-metric d(G,G') = min over marking-respecting
maps of log total edge length.

Every value is an upper bound: the log of the least total edge length that
vertex slides reach from the canonical difference map, not d itself.
"""

from dataclasses import dataclass
from functools import cached_property

from .graph import _pi1_word, make_graph, pi1_generators, rank, spanning_tree
from .graph_map import GraphMap, edgelet_count, map_length
from .words import _descend, _invert_reduced, _substitute_seams

__all__ = ["MetricEstimate", "difference_map", "estimate_d", "twist_family",
           "slide_normalize"]


@dataclass(frozen=True)
class MetricEstimate:
    value: float        # upper bound for d(G, G')
    witness: GraphMap
    method: str         # "canonical" | "fold-normalized"

    @property
    def total_edge_length(self):
        return edgelet_count(self.witness)


class _Marking:
    """What the metric reads of one marked graph's marking, each part
    computed on first use and then kept: the pairs of one call that share
    a graph read its marking words once and invert them once, and a graph
    that no pair reads is not read at all.

    Marking letters are trusted: make_graph checks them where a graph
    enters, and the graphs built internally carry valid paths.
    """

    def __init__(self, g):
        self.graph = g

    @cached_property
    def tree(self):
        return spanning_tree(self.graph)

    @cached_property
    def gens(self):
        return pi1_generators(self.graph, self.tree)

    @cached_property
    def words(self):
        """The pi_1 words of the marking paths.  With an empty tree, as on
        a rose, they are the paths themselves, which are reduced."""
        g = self.graph
        if not self.tree:
            return g.marking
        return [_pi1_word(g, p, self.tree, self.gens) for p in g.marking]

    @cached_property
    def inverse(self):
        """The pi_1 basis as words in the marking letters."""
        return _invert_reduced(self.words)


def _difference_map(a, b):
    """difference_map of the graphs of two _Marking records."""
    g, h = a.graph, b.graph
    if g.marking is None or h.marking is None:
        raise ValueError("both graphs must be marked")
    if rank(g) != rank(h):
        raise ValueError("rank mismatch: %d vs %d" % (rank(g), rank(h)))
    # the marking paths realize the marking basis in the codomain
    images = _substitute_seams(a.inverse, h.marking)
    vmap = tuple(h.basepoint for _ in range(g.num_vertices))
    gen_index = {e: i for i, e in enumerate(a.gens)}
    emap = [() if e in a.tree else images[gen_index[e]] for e in g.edge_ids]
    return GraphMap(g, h, vmap, tuple(emap))


def difference_map(g, h):
    """The canonical marking-respecting map G -> G'.

    Spanning-tree edges collapse to the codomain basepoint; each non-tree
    edge maps to the codomain realization of its pi_1 coordinate, rewritten
    through the inverse of the domain marking.  Marking-respecting by
    construction, edge images tightened: each image is a reduced product
    of marking loops, which are closed at the basepoint every vertex maps to.
    """
    return _difference_map(_Marking(g), _Marking(h))


def slide_normalize(f):
    """The vertex image descent (words._descend) at each vertex in turn,
    until no vertex slides; edge images must be reduced.  A slide of f(v)
    across a path c is a homotopy, and each lowers the total edge length.
    On a rose the result has the least total over all conjugates of the
    images (the total is convex in the conjugator); on other domains it is
    a local minimum, so its total only bounds d from above.
    """
    g, h = f.domain, f.codomain
    vmap = f.vertex_map
    emap = list(f.edge_map)
    links = g.links()
    while True:
        lasts = [_descend(emap, dirs) for dirs in links]
        if not any(lasts):  # letters are nonzero
            return GraphMap(g, h, tuple(vmap), tuple(emap))
        vmap = [v if x is None else h.term(x) for v, x in zip(vmap, lasts)]


def _estimate(a, b):
    """estimate_d of the graphs of two _Marking records."""
    f = _difference_map(a, b)
    slid = slide_normalize(f)
    if 0 < edgelet_count(slid) < edgelet_count(f):
        return MetricEstimate(map_length(slid), slid, "fold-normalized")
    return MetricEstimate(map_length(f), f, "canonical")


def estimate_d(g, h):
    """Upper bound for d(G,G'): the better of the canonical difference map and
    its vertex-slide normalization."""
    return _estimate(_Marking(g), _Marking(h))


def _estimates(graphs):
    """(i, j, estimate_d(graphs[i], graphs[j])) for the ordered pairs with
    i != j, in row order.  The pairs share each graph's _Marking record."""
    marks = [_Marking(g) for g in graphs]
    for i, a in enumerate(marks):
        for j, b in enumerate(marks):
            if i != j:
                yield i, j, _estimate(a, b)


def twist_family(n, m):
    """(G_0, G_m): the rank-n rose with identity marking, and the same rose
    remarked through the m-th power of the twist e_2 -> e_2 e_1.

    Total edge length of the canonical difference map G_0 -> G_m is n + m.
    """
    if n < 2:
        raise ValueError("twist family needs rank >= 2")
    if m < 0:
        raise ValueError("m must be nonnegative")
    g0 = make_graph(1, [(0, 0)] * n, basepoint=0,
                    marking=[(i,) for i in range(1, n + 1)])
    marking = [(1,)] + [(2,) + (1,) * m] + [(i,) for i in range(3, n + 1)]
    gm = make_graph(1, [(0, 0)] * n, basepoint=0, marking=marking)
    return g0, gm

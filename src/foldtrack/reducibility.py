"""Reducibility of filtered self-maps by exhaustive refinement search, and
the homology-change classification.

A map respecting a filtration is reducible at stratum j when some subgraph
strictly between G_{j-1} and G_j defines a refining filtration: no
valence-one vertices, gates at least two everywhere on it, and the
restriction a homotopy equivalence onto its image.  Strata at desk scale are
searched exhaustively in bitmask order; budgets are enforced explicitly.
"""

from dataclasses import dataclass

from .errors import CapacityError
from .folding import certify_homotopy_equivalence
from .graph import (
    subgraph_closure, subgraph_components, subgraph_rank, valences,
)
from .graph_map import _image_edges, direction_map, restrict

__all__ = ["ReducibilityVerdict", "is_reducible", "homology_change",
           "witness_conditions"]

DEFAULT_EDGE_BUDGET = 16


@dataclass(frozen=True)
class ReducibilityVerdict:
    reducible: bool
    witness: frozenset = None  # edge set of the refining subgraph, if any


def _gates_at_least_two(f, edges):
    """T(f|X, v) >= 2 for every vertex of the closure of X: Df takes the
    non-collapsed directions of X at v (a loop gives two) to at least two
    directions."""
    vset, eset = subgraph_closure(f.domain, edges)
    df = direction_map(f)
    links = f.domain.links()
    return all(len({df[d] for d in links[v] if abs(d) in eset and d in df}) >= 2
               for v in vset)


def witness_conditions(f, edges):
    """The three refinement-witness conditions for a candidate edge set."""
    if 1 in valences(f.domain, frozenset(edges)):
        return False
    if not _gates_at_least_two(f, edges):
        return False
    rf, _, _ = restrict(f, edges)
    return certify_homotopy_equivalence(rf)


def is_reducible(f, j, budget=DEFAULT_EDGE_BUDGET):
    """Search subgraphs strictly between G_{j-1} and G_j for a refinement
    witness, in ascending edge-id bitmask order.

    Requires f to respect the filtrations; strata larger than the budget
    raise CapacityError rather than silently degrading.
    """
    g = f.domain
    if g.filtration is None:
        raise ValueError("is_reducible needs a filtered domain")
    n = len(g.filtration)
    if not 1 <= j <= n:
        raise ValueError("stratum index out of range")
    gj = g.filtration[j - 1]
    below = g.filtration[j - 2] if j >= 2 else frozenset()
    free = sorted(gj - below)
    if len(free) > budget:
        raise CapacityError(
            "stratum %d has %d edges, over the search budget %d"
            % (j, len(free), budget))
    for mask in range(1, (1 << len(free)) - 1):
        chosen = frozenset(e for i, e in enumerate(free) if mask >> i & 1)
        candidate = below | chosen
        if witness_conditions(f, candidate):
            return ReducibilityVerdict(True, frozenset(candidate))
    return ReducibilityVerdict(False, None)


def homology_change(f, j, edges):
    """Classify the pair (X, f(X)) for G_{j-1} < X < G_j with gates >= 2:
    "rank_up", "components_down", or "neither".

    The irreducibility lemma says "neither" forces (F,j)-reducibility; the
    cross-check is asserted by the test suite, not recomputed here.
    """
    g, h = f.domain, f.codomain
    if g.filtration is None:
        raise ValueError("homology_change needs a filtered domain")
    gj = g.filtration[j - 1]
    below = g.filtration[j - 2] if j >= 2 else frozenset()
    x = frozenset(edges)
    if not (below < x < gj):
        raise ValueError("X must lie strictly between G_{j-1} and G_j")
    if not _gates_at_least_two(f, x):
        raise ValueError("X violates the gate condition T(f|X, v) >= 2")
    fx = _image_edges(f, x)
    rank_x = subgraph_rank(g, x)
    rank_fx = subgraph_rank(h, fx)
    comp_x = len(subgraph_components(g, x))
    comp_fx = len(subgraph_components(h, fx))
    if rank_fx > rank_x:
        return "rank_up"
    if comp_fx < comp_x:
        return "components_down"
    return "neither"

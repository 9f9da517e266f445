"""Seeded property suites for the matrix lemmas, gate counts, fold-inverse
equalities, the twist-family metric, and reducibility oracle agreement.

Shared between the CLI `audit` command and the acceptance tests.  Every
suite takes an explicit seed and reports (checked, failures) so a caller can
distinguish an exact-inequality failure (an internal bug, exit code 3) from
a data problem.
"""

import math
from dataclasses import dataclass

import numpy as np

from .automorphisms import (
    random_automorphism, rose_representative, trial_stream,
)
from .errors import CapacityError
from .folding import FoldSpec, apply_fold_move
from .graph import (
    make_graph, pi1_generators, pi1_word, spanning_tree, subgraph_rank,
    tree_path, valences,
)
from .graph_map import (
    apply_path, compose, gate_count, make_graph_map, restrict,
    transition_matrix,
)
from .metric import _estimates, twist_family
from .reducibility import (
    DEFAULT_EDGE_BUDGET, ReducibilityVerdict, _gates_at_least_two,
    is_reducible,
)
from .spectra import lc, l_total, pf_value, pf_value_charpoly
from .words import generates_free_group

__all__ = [
    "matrix_pair_suite", "largest_bounds_suite", "gates_suite", "pg_chain",
    "pg_suite", "twist_metric_rows", "is_reducible_bruteforce",
    "reducibility_fixtures", "reducibility_agreement_suite", "SuiteResult",
]


@dataclass
class SuiteResult:
    name: str
    checked: int
    failures: list

    @property
    def ok(self):
        return not self.failures


def _rng(seed, stream):
    # a Generator, not trial_automorphisms' block reads: a suite draws from
    # its stream again after each random_automorphism
    return np.random.default_rng(trial_stream(seed, stream))


# ---------------------------------------------------------------------------
# matrix lemmas
# ---------------------------------------------------------------------------

def matrix_pair_suite(trials=1000, seed=0, max_size=8, max_entry=9):
    """LC(M1 M2) <= alpha LC(M1) LC(M2) and LC <= L <= alpha^2 LC on random
    nonnegative integer pairs; exact integer checks."""
    rng = _rng(seed, 1)
    failures = []
    for t in range(trials):
        r, k, c = (int(x) for x in rng.integers(1, max_size + 1, size=3))
        alpha = max(r, k, c)
        m1 = rng.integers(0, max_entry + 1, size=(r, k))
        m2 = rng.integers(0, max_entry + 1, size=(k, c))
        prod = m1 @ m2
        if lc(prod) > alpha * lc(m1) * lc(m2):
            failures.append(("product", t))
        for m in (m1, m2):
            if not (lc(m) <= l_total(m) <= alpha * alpha * lc(m)):
                failures.append(("lc-l", t))
    return SuiteResult("matrix-pairs", trials, failures)


def largest_bounds_suite(trials=200, seed=0, max_entry=9):
    """Perron-Frobenius bounds on random positive matrices (sizes 3..8):
    lambda <= alpha LC, lambda^alpha >= LC, and every entry of M^alpha at
    least LC.  Positive matrices are irreducible and make the power-entry
    step provable; sparse irreducible cases are covered by property tests.
    """
    rng = _rng(seed, 2)
    failures = []
    for t in range(trials):
        n = int(rng.integers(3, 9))
        m = rng.integers(1, max_entry + 1, size=(n, n))
        alpha = n
        lam = pf_value(m)
        big = lc(m)
        if lam > alpha * big * (1 + 1e-9):
            failures.append(("upper", t))
        if lam ** alpha < big * (1 - 1e-9):
            failures.append(("lower", t))
        power = np.linalg.matrix_power(m.astype(object), alpha)
        if (np.asarray(power) < big).any():
            failures.append(("power-entry", t))
        if n <= 6:
            if abs(lam - pf_value_charpoly(m)) > 1e-8 * max(lam, 1.0):
                failures.append(("oracle", t))
    return SuiteResult("largest-bounds", trials, failures)


# ---------------------------------------------------------------------------
# gate counts (Lemma on T(h, v))
# ---------------------------------------------------------------------------

def gates_suite(trials=200, seed=0, rank=3, length=6):
    """valence >= T(f, v) and T(f2 o f1, v) <= min(T(f1,v), T(f2,f1 v)) on
    random composable rose-map pairs."""
    rng = _rng(seed, 3)
    failures = []
    for t in range(trials):
        f1 = rose_representative(random_automorphism(rank, length, rng))
        f2 = rose_representative(random_automorphism(rank, length, rng))
        comp = compose(f2, f1)
        for v in range(f1.domain.num_vertices):
            val = len(f1.domain.links()[v])
            tv = gate_count(f1, v)
            if val < tv:
                failures.append(("valence", t, v))
            bound = min(gate_count(f1, v), gate_count(f2, f1.vertex_map[v]))
            if gate_count(comp, v) > bound:
                failures.append(("composition", t, v))
    return SuiteResult("gates", trials, failures)


# ---------------------------------------------------------------------------
# Case-1 lower-strata chains (the commuting-matrix equality)
# ---------------------------------------------------------------------------

def _filtered_rose(n):
    return make_graph(1, [(0, 0)] * n, basepoint=0,
                      marking=[(i,) for i in range(1, n + 1)],
                      filtration=[{1}, set(range(1, n + 1))])


def pg_chain(rng, rank=3, length=None):
    """A chain of case-1 folds into lower strata on the filtered rank-`rank`
    rose with G_1 = {edge 1}.

    Returns (f, g, records): f the composed chain, g the composed explicit
    inverse, both as literal (untigthened) compositions.
    """
    if length is None:
        length = int(rng.integers(3, 11))
    g0 = _filtered_rose(rank)
    records = []
    cur = g0
    for _ in range(length):
        x = int(rng.integers(2, rank + 1))
        d1 = x if rng.integers(0, 2) else -x
        d2 = 1 if rng.integers(0, 2) else -1
        spec = FoldSpec(vertex=0, d1=d1, d2=d2, prefix_len=1, case=1)
        record = apply_fold_move(cur, spec)
        records.append(record)
        cur = record.graph_star
    f = records[0].quotient
    for record in records[1:]:
        f = compose(record.quotient, f)
    g = records[-1].inverse
    for record in reversed(records[:-1]):
        g = compose(record.inverse, g)
    return f, g, records


def pg_suite(trials=50, seed=0, rank=3):
    """M(f) = M(g) exactly for chains of case-1 folds into lower strata."""
    rng = _rng(seed, 4)
    failures = []
    for t in range(trials):
        f, g, records = pg_chain(rng, rank)
        if transition_matrix(f).entries != transition_matrix(g).entries:
            failures.append(("pg-equality", t))
        for i, record in enumerate(records):
            if lc(transition_matrix(record.inverse).entries) != 1:
                failures.append(("inverse-lc", t, i))
    return SuiteResult("pg-chains", trials, failures)


# ---------------------------------------------------------------------------
# twist-family metric
# ---------------------------------------------------------------------------

def twist_metric_rows(ms=(1, 10, 100, 1000), n=2):
    """Forward/backward estimates on the marking-twist family."""
    rows = []
    for m in ms:
        (_, _, fwd), (_, _, rev) = _estimates(twist_family(n, m))
        rows.append({
            "m": m,
            "d_forward": fwd.value,
            "d_backward": rev.value,
            "log_total": math.log(n + m),
            "witness_total": fwd.total_edge_length,
            "asymmetry": fwd.value / rev.value if rev.value else float("inf"),
        })
    return rows


# ---------------------------------------------------------------------------
# reducibility: independent brute force through pi_1 words
# ---------------------------------------------------------------------------

def _pi1_surjective(rf):
    """Word-level homotopy-equivalence certificate: component bijection, rank
    equality, and Nielsen generation of each codomain pi_1 by the images."""
    from .graph import components as graph_components

    g, h = rf.domain, rf.codomain
    dom_comps = graph_components(g)
    cod_comps = graph_components(h)
    cod_index = {}
    for i, comp in enumerate(cod_comps):
        for v in comp:
            cod_index[v] = i
    hit = {}
    for comp in dom_comps:
        tgt = cod_index[rf.vertex_map[next(iter(comp))]]
        if tgt in hit:
            return False
        hit[tgt] = comp
    if len(hit) != len(cod_comps):
        return False
    for i, cod_comp in enumerate(cod_comps):
        dom_comp = hit[i]
        dom_edges = [e for e in g.edge_ids if g.edge_ends[e - 1][0] in dom_comp]
        cod_edges = [e for e in h.edge_ids if h.edge_ends[e - 1][0] in cod_comp]
        if subgraph_rank(g, dom_edges) != subgraph_rank(h, cod_edges):
            return False
        piece, _, _ = restrict(rf, dom_edges, cod_edges=frozenset(cod_edges))
        dn2 = _with_base(piece.domain)
        cn2 = _with_base(piece.codomain)
        if subgraph_rank(cn2, list(cn2.edge_ids)) == 0:
            continue
        tree = spanning_tree(dn2)
        cod_tree = spanning_tree(cn2)
        gens = pi1_generators(dn2, tree)
        words = []
        for e in gens:
            u, v = dn2.edge_ends[e - 1]
            loop = tree_path(dn2, tree, 0, u) + (e,) + tree_path(dn2, tree, v, 0)
            words.append(pi1_word(cn2, apply_path(piece, loop), cod_tree))
        if not generates_free_group(words, subgraph_rank(cn2, list(cn2.edge_ids))):
            return False
    return True


def _with_base(g):
    from dataclasses import replace
    return replace(g, basepoint=0)


def is_reducible_bruteforce(f, j, budget=DEFAULT_EDGE_BUDGET):
    """Reducibility by exhaustive search with the pi_1-word certificate in
    place of fold certification."""
    g = f.domain
    gj = g.filtration[j - 1]
    below = g.filtration[j - 2] if j >= 2 else frozenset()
    free = sorted(gj - below)
    if len(free) > budget:
        raise CapacityError("stratum over budget")
    for mask in range(1, (1 << len(free)) - 1):
        chosen = frozenset(e for i, e in enumerate(free) if mask >> i & 1)
        candidate = below | chosen
        if 1 in valences(g, candidate):
            continue
        if not _gates_at_least_two(f, candidate):
            continue
        rf, _, _ = restrict(f, candidate)
        if _pi1_surjective(rf):
            return ReducibilityVerdict(True, frozenset(candidate))
    return ReducibilityVerdict(False, None)


def reducibility_fixtures():
    """Filtered self-maps of rank <= 3 graphs with strata of <= 10 edges."""
    fixtures = []
    rose2 = make_graph(1, [(0, 0)] * 2, basepoint=0, marking=[(1,), (2,)],
                       filtration=[{1, 2}])
    rose3 = make_graph(1, [(0, 0)] * 3, basepoint=0,
                       marking=[(1,), (2,), (3,)], filtration=[{1, 2, 3}])
    rose3_two = make_graph(1, [(0, 0)] * 3, basepoint=0,
                           marking=[(1,), (2,), (3,)],
                           filtration=[{1}, {1, 2, 3}])
    fixtures.append(("fibonacci", make_graph_map(rose2, rose2, (0,), [(1, 2), (1,)]), 1))
    fixtures.append(("lower-triangular", make_graph_map(rose2, rose2, (0,), [(1,), (2, 1)]), 1))
    fixtures.append(("identity-r2", make_graph_map(rose2, rose2, (0,), [(1,), (2,)]), 1))
    fixtures.append(("swap", make_graph_map(rose2, rose2, (0,), [(2,), (1,)]), 1))
    fixtures.append(("parageometric", make_graph_map(rose3, rose3, (0,), [(1, 3), (1,), (2,)]), 1))
    fixtures.append(("pg-inverse", make_graph_map(rose3, rose3, (0,), [(2,), (3,), (-2, 1)]), 1))
    fixtures.append(("block-upper", make_graph_map(rose3_two, rose3_two, (0,),
                                                   [(1,), (2, 1), (3, 2)]), 2))
    fixtures.append(("block-reducible", make_graph_map(rose3_two, rose3_two, (0,),
                                                       [(1,), (2,), (3, 2)]), 2))
    theta = make_graph(2, [(0, 1), (0, 1), (0, 1)], basepoint=0,
                       marking=[(1, -2), (2, -3)], filtration=[{1, 2, 3}])
    fixtures.append(("theta-identity", make_graph_map(theta, theta, (0, 1),
                                                      [(1,), (2,), (3,)]), 1))
    fixtures.append(("theta-rotate", make_graph_map(theta, theta, (0, 1),
                                                    [(2,), (3,), (1,)]), 1))
    dumb = make_graph(2, [(0, 0), (1, 1), (0, 1)], basepoint=0,
                      marking=[(1,), (3, 2, -3)], filtration=[{1}, {1, 2, 3}])
    fixtures.append(("dumbbell-identity", make_graph_map(dumb, dumb, (0, 1),
                                                         [(1,), (2,), (3,)]), 2))
    fixtures.append(("dumbbell-twist", make_graph_map(dumb, dumb, (0, 1),
                                                      [(1,), (-3, 1, 3, 2), (3,)]), 2))
    return fixtures


def reducibility_agreement_suite(budget=10):
    """is_reducible vs the pi_1 brute force on the fixture set, plus the
    homology-change cross-check on irreducible instances."""
    from .reducibility import homology_change

    failures = []
    checked = 0
    for name, f, j in reducibility_fixtures():
        checked += 1
        v1 = is_reducible(f, j, budget=budget)
        v2 = is_reducible_bruteforce(f, j, budget=budget)
        if v1.reducible != v2.reducible or v1.witness != v2.witness:
            failures.append((name, "disagreement", v1, v2))
        if not v1.reducible:
            g = f.domain
            gj = g.filtration[j - 1]
            below = g.filtration[j - 2] if j >= 2 else frozenset()
            free = sorted(gj - below)
            for mask in range(1, (1 << len(free)) - 1):
                x = below | {e for i, e in enumerate(free) if mask >> i & 1}
                if not _gates_at_least_two(f, x):
                    continue
                if homology_change(f, j, x) == "neither":
                    failures.append((name, "neither-on-irreducible", sorted(x)))
    return SuiteResult("reducibility-agreement", checked, failures)

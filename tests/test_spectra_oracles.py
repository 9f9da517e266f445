"""The row-list spectra against the numpy implementation they replaced.

The library reads a transition matrix once into Python rows, closes
reachability on int bitsets and calls numpy only for the eigenvalues.  The
references below are the numpy versions as they were: boolean reachability
by repeated squaring, a Kahn loop over `np.ix_` slices, column sums for the
permutation-cycle test, a BFS over `np.nonzero` for the period, and the
stable gates found by re-grouping after every power of Df.  Every test asks
for identical results: blocks, kinds and order, Gamma and Gamma-hat entry
by entry (values bit for bit), PF values, periods and gates.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foldtrack.automorphisms import (
    check_train_track, random_automorphism, rose_graph, rose_representative,
    stable_gates,
)
from foldtrack.errors import NumericError
from foldtrack.graph_map import (
    direction_map, make_graph_map, tighten_map, transition_matrix,
)
from foldtrack.spectra import (
    BlockStructure, ExpansionSpectrum, SpectrumEntry, _is_permutation_cycle,
    _period, block_structure, gamma, gamma_hat, is_irreducible, period,
    pf_value,
)


# ---------------------------------------------------------------------------
# reference implementation: numpy arrays throughout
# ---------------------------------------------------------------------------

def ref_block_structure(m):
    m = np.asarray(m)
    n = m.shape[0]
    reach = (m.T > 0) | np.eye(n, dtype=bool)  # reach[k, j]: k reaches j
    for _ in range(n.bit_length()):
        reach = reach @ reach
    mutual = reach & reach.T
    left = [i for i in range(n) if not mutual[i, :i].any()]
    blocks = []
    kinds = []
    while left:
        ready = reach[np.ix_(left, left)].sum(axis=1) == 1
        rep = left.pop(int(np.argmax(ready)))
        idx = tuple(int(i) for i in np.flatnonzero(mutual[rep]))
        blocks.append(idx)
        if len(idx) == 1 and m[idx[0], idx[0]] == 0:
            kinds.append("zero")
        else:
            kinds.append("irreducible")
    order = tuple(i for b in blocks for i in b)
    return BlockStructure(tuple(blocks), tuple(kinds), order)


def ref_is_irreducible(m):
    m = np.asarray(m)
    if m.shape[0] == 0:
        return False
    bs = ref_block_structure(m)
    return len(bs.blocks) == 1 and bs.kinds[0] == "irreducible"


def ref_period(m):
    n = m.shape[0]
    adjacency = [list(np.nonzero(m[:, k])[0]) for k in range(n)]
    dist = [None] * n
    dist[0] = 0
    queue = [0]
    g = 0
    while queue:
        v = queue.pop(0)
        for w in adjacency[v]:
            if dist[w] is None:
                dist[w] = dist[v] + 1
                queue.append(w)
    for v in range(n):
        for w in adjacency[v]:
            g = math.gcd(g, dist[v] + 1 - dist[w])
    return max(g, 1)


def ref_is_permutation_cycle(m):
    m = np.asarray(m)
    return (m.max(initial=0) <= 1 and (m.sum(axis=0) == 1).all()
            and (m.sum(axis=1) == 1).all())


def ref_pf_and_period(m):
    lam = float(np.abs(np.linalg.eigvals(m)).max())
    alpha = m.shape[0]
    big = int(m.max(initial=0))
    if lam > alpha * big + 1e-6 or lam ** alpha < big * (1 - 1e-9):
        raise NumericError("Perron-Frobenius value violates its bounds")
    return lam, ref_period(m)


def ref_pf_value(m):
    m = np.asarray(m, dtype=np.int64)
    if not ref_is_irreducible(m):
        raise ValueError("pf_value requires an irreducible matrix")
    if ref_is_permutation_cycle(m):
        return 1.0
    return ref_pf_and_period(m)[0]


def ref_gamma(f):
    tm = transition_matrix(f)
    bs = ref_block_structure(tm.entries)
    blocks_edges = tuple(tuple(tm.col_edges[i] for i in b) for b in bs.blocks)
    entries = []
    for level, (idx, kind, edges) in enumerate(
            zip(bs.blocks, bs.kinds, blocks_edges), start=1):
        if kind == "zero":
            continue
        sub = tm.entries[np.ix_(idx, idx)]
        if ref_is_permutation_cycle(sub):
            continue
        lam, p = ref_pf_and_period(sub)
        if lam > 1.0:
            entries.append(SpectrumEntry(lam, p, level, tuple(edges)))
    entries.sort(key=lambda e: (-e.value, e.stratum))
    filtration = tuple(tuple(sorted(edges)) for edges in blocks_edges)
    return ExpansionSpectrum(tuple(entries), filtration)


def ref_gamma_hat(f):
    base = ref_gamma(f)
    expanded = []
    for e in base.entries:
        for _ in range(e.multiplicity):
            expanded.append(SpectrumEntry(e.value, e.multiplicity, e.stratum,
                                          e.block_edges))
    expanded.sort(key=lambda e: (-e.value, e.stratum))
    return ExpansionSpectrum(tuple(expanded), base.filtration)


def ref_stable_gates(f):
    df = direction_map(f)
    dirs = sorted(df)
    cur = {d: df[d] for d in dirs}
    prev_classes = None
    for _ in range(len(dirs) + 1):
        classes = {}
        for d in dirs:
            classes.setdefault(cur[d], []).append(d)
        key = tuple(tuple(v) for v in sorted(classes.values()))
        if key == prev_classes:
            break
        prev_classes = key
        cur = {d: df.get(cur[d], cur[d]) for d in dirs}
    rep = {}
    for members in classes.values():
        for d in members:
            rep[d] = members[0]
    return rep


def ref_check_train_track(f):
    gates = ref_stable_gates(f)
    for e in f.domain.edge_ids:
        p = f.edge_map[e - 1]
        for d, d_next in zip(p, p[1:]):
            x, y = -d, d_next
            if x == y:
                return False
            if gates.get(x) == gates.get(y) and x in gates and y in gates:
                return False
    return True


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def random_matrix(rng, n):
    """A nonnegative integer n x n matrix, entries up to 50.  Half of them are
    block triangular under a hidden relabelling, with diagonal blocks that
    are zero, (scaled) permutation cycles, sparse or dense, then some rows
    and columns zeroed; the rest are unstructured and mostly zero."""
    if rng.random() < 0.5:
        return rng.integers(0, 51, (n, n)) * (rng.random((n, n)) < 0.25)
    m = np.zeros((n, n), dtype=np.int64)
    level = np.zeros(n, dtype=np.int64)
    start = 0
    while start < n:
        size = int(rng.integers(1, n - start + 1))
        b = slice(start, start + size)
        level[b] = start
        kind = rng.integers(4)
        if kind == 1:
            cycle = start + rng.permutation(size)
            m[np.roll(cycle, 1), cycle] = rng.integers(1, 3)
        elif kind == 2:
            m[b, b] = rng.integers(0, 51, (size, size)) * (
                rng.random((size, size)) < 0.3)
        elif kind == 3:
            m[b, b] = rng.integers(0, 4, (size, size))
        start += size
    # column k covers row j only at a lower level
    arcs = (level[:, None] < level[None, :]) & (rng.random((n, n)) < 0.2)
    m[arcs] = rng.integers(1, 51, int(arcs.sum()))
    for _ in range(int(rng.integers(0, 3)) if n else 0):
        i = rng.integers(n)
        if rng.random() < 0.5:
            m[i, :] = 0
        else:
            m[:, i] = 0
    perm = rng.permutation(n)
    return m[np.ix_(perm, perm)]


def rose_map_of(rng, m):
    """A self map of the rose whose transition matrix is m: edge k's image
    holds letter j m[j][k] times, in random order and with random signs."""
    n = m.shape[0]
    images = []
    for k in range(n):
        letters = [j + 1 for j in range(n) for _ in range(m[j, k])]
        rng.shuffle(letters)
        images.append([d if rng.random() < 0.5 else -d for d in letters])
    rose = rose_graph(n)
    return make_graph_map(rose, rose, (0,), images)


matrix_seeds = st.integers(0, 2 ** 31)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(matrix_seeds, st.integers(0, 12))
def test_block_structure_matches_reference(seed, n):
    m = random_matrix(np.random.default_rng(seed), n)
    ref = ref_block_structure(m)
    assert block_structure(m) == ref
    assert block_structure(m.tolist()) == ref
    assert is_irreducible(m) == ref_is_irreducible(m)


@settings(max_examples=300, deadline=None)
@given(matrix_seeds, st.integers(1, 12))
def test_block_helpers_match_reference(seed, n):
    m = random_matrix(np.random.default_rng(seed), n)
    for idx in ref_block_structure(m).blocks:
        sub = m[np.ix_(idx, idx)]
        if not ref_is_irreducible(sub):
            for fn in (pf_value, period):
                with pytest.raises(ValueError):
                    fn(sub)
            continue
        rows = sub.tolist()
        assert _is_permutation_cycle(rows) == ref_is_permutation_cycle(sub)
        assert _period(rows) == period(sub) == ref_period(sub)
        assert pf_value(sub) == pf_value(rows) == ref_pf_value(sub)


@settings(max_examples=200, deadline=None)
@given(matrix_seeds, st.integers(1, 12))
def test_gamma_matches_reference_on_matrix_maps(seed, n):
    rng = np.random.default_rng(seed)
    f = rose_map_of(rng, random_matrix(rng, n))
    assert gamma(f) == ref_gamma(f)
    assert gamma_hat(f) == ref_gamma_hat(f)
    assert stable_gates(f) == ref_stable_gates(f)
    assert check_train_track(f) == ref_check_train_track(f)


@settings(max_examples=100, deadline=None)
@given(matrix_seeds, st.integers(2, 6), st.integers(0, 30))
def test_rose_maps_match_reference(seed, rank, length):
    rng = np.random.default_rng(seed)
    f = tighten_map(rose_representative(random_automorphism(rank, length, rng)))
    assert gamma(f) == ref_gamma(f)
    assert gamma_hat(f) == ref_gamma_hat(f)
    assert stable_gates(f) == ref_stable_gates(f)
    assert check_train_track(f) == ref_check_train_track(f)


@pytest.mark.parametrize("m, blocks, p", [
    ([[0, 2], [2, 0]], ((0, 1),), 2),
    ([[0, 0, 3], [1, 0, 0], [0, 1, 0]], ((0, 1, 2),), 3),
    ([[1, 1], [0, 0]], ((0,), (1,)), None),
    ([[0]], ((0,),), None),
])
def test_periodic_and_reducible_examples(m, blocks, p):
    m = np.array(m)
    assert block_structure(m) == ref_block_structure(m)
    assert block_structure(m).blocks == blocks
    if p is not None:
        assert period(m) == ref_period(m) == p
        assert pf_value(m) == ref_pf_value(m)


@pytest.mark.parametrize("m", [np.zeros((2, 3)), np.zeros(3), [[1, 2], [3]]])
def test_non_square_matrices_are_refused(m):
    with pytest.raises(ValueError):
        block_structure(m)

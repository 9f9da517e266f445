"""Transition-matrix analytics: largest coefficients, irreducible blocks,
Perron-Frobenius values with periods, and expansion spectra.

The maximal invariant weak filtration of a self-map is the condensation of
the directed graph "column edge covers row edge" into strongly connected
components, topologically ordered; each diagonal block is irreducible or a
1x1 zero block.
"""

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import NumericError
from .graph_map import compose, tighten_map, transition_matrix

__all__ = [
    "lc", "l_total", "mlog", "BlockStructure", "block_structure", "pf_value",
    "pf_value_charpoly", "period", "ExpansionSpectrum", "SpectrumEntry",
    "gamma", "gamma_hat", "maximal_invariant_filtration",
]


def lc(m):
    """Largest coefficient of a matrix (0 for empty)."""
    m = np.asarray(m)
    return int(m.max(initial=0))


def l_total(m):
    """Sum of all entries."""
    m = np.asarray(m)
    return int(m.sum())


def mlog(c):
    """max(1, log c), with mlog(0) = 1 by the limit convention."""
    if c <= 0:
        return 1.0
    return max(1.0, math.log(c))


# ---------------------------------------------------------------------------
# block structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockStructure:
    """SCC condensation of a square matrix, bottom level first."""

    blocks: tuple        # tuple of index tuples (positions into the matrix)
    kinds: tuple         # "irreducible" | "zero" per block
    order: tuple         # concatenated index order (filtration-compatible)


def block_structure(m):
    """Condense the digraph "k covers j when m[j,k] > 0" and order the SCCs
    so every block only covers blocks at lower levels (deterministic Kahn
    order, smallest minimal index first).

    The SCCs are the mutual-reachability classes of the reflexive-transitive
    closure, formed by repeated boolean squaring."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("block structure needs a square matrix")
    n = m.shape[0]
    reach = (m.T > 0) | np.eye(n, dtype=bool)  # reach[k, j]: k reaches j
    for _ in range(n.bit_length()):
        reach = reach @ reach
    mutual = reach & reach.T
    # each block is named by its minimal index
    left = [i for i in range(n) if not mutual[i, :i].any()]
    blocks = []
    kinds = []
    while left:
        # ready: reaches no other unplaced block (reach is reflexive)
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


def is_irreducible(m):
    m = np.asarray(m)
    if m.shape[0] == 0:
        return False
    bs = block_structure(m)
    return len(bs.blocks) == 1 and bs.kinds[0] == "irreducible"


# ---------------------------------------------------------------------------
# Perron-Frobenius values
# ---------------------------------------------------------------------------

def period(m):
    """Multiplicity of an irreducible matrix: gcd of cycle lengths through a
    fixed index of the adjacency digraph."""
    m = np.asarray(m)
    if not is_irreducible(m):
        raise ValueError("period requires an irreducible matrix")
    return _period(m)


def _period(m):
    """Period of an irreducible matrix, from one BFS out of index 0: the gcd
    of dist(v) + 1 - dist(w) over the arcs v -> w."""
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


def _is_permutation_cycle(m):
    m = np.asarray(m)
    return (m.max(initial=0) <= 1 and (m.sum(axis=0) == 1).all()
            and (m.sum(axis=1) == 1).all())


def pf_value(m):
    """Perron-Frobenius eigenvalue of an irreducible nonnegative integer
    matrix: the spectral radius, from LAPACK eigenvalues.

    The result is checked against the classical bounds
    lambda <= alpha * LC(M) and lambda^alpha >= LC(M).
    """
    m = np.asarray(m, dtype=np.int64)
    if not is_irreducible(m):
        raise ValueError("pf_value requires an irreducible matrix")
    if _is_permutation_cycle(m):
        return 1.0
    return _pf_and_period(m)[0]


def _pf_and_period(m):
    """pf_value and period of an integer matrix already known to be
    irreducible and not a permutation cycle."""
    lam = float(np.abs(np.linalg.eigvals(m)).max())
    alpha = m.shape[0]
    big = lc(m)
    if lam > alpha * big + 1e-6 or lam ** alpha < big * (1 - 1e-9):
        raise NumericError("Perron-Frobenius value violates its bounds")
    return lam, _period(m)


def charpoly(m):
    """Exact characteristic polynomial det(xI - M) of an integer matrix,
    by cofactor expansion over polynomial coefficient lists (sizes <= 6)."""
    m = np.asarray(m, dtype=object)
    n = m.shape[0]
    if n > 6:
        raise ValueError("exact charpoly oracle is limited to size 6")

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def poly_add(a, b):
        out = [0] * max(len(a), len(b))
        for i, x in enumerate(a):
            out[i] += x
        for i, y in enumerate(b):
            out[i] += y
        return out

    def det(rows, cols):
        if len(rows) == 1:
            i, j = rows[0], cols[0]
            d = [-m[i, j], 1] if i == j else [-m[i, j]]
            return d
        total = [0]
        i = rows[0]
        for pos, j in enumerate(cols):
            entry = [-m[i, j], 1] if i == j else [-m[i, j]]
            sub = det(rows[1:], cols[:pos] + cols[pos + 1:])
            term = poly_mul(entry, sub)
            if pos % 2:
                term = [-t for t in term]
            total = poly_add(total, term)
        return total

    coeffs = det(tuple(range(n)), tuple(range(n)))
    return [int(c) for c in coeffs]  # coeffs[k] multiplies x^k


def pf_value_charpoly(m):
    """Independent oracle for sizes <= 6: largest real root of the exact
    characteristic polynomial via Newton from above, then bisection polish."""
    coeffs = charpoly(m)
    n = len(coeffs) - 1

    def p(x):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def dp(x):
        acc = 0.0
        k = n
        for c in reversed(coeffs[1:]):
            acc = acc * x + c * k
            k -= 1
        return acc

    hi = 1.0 + max(abs(c) for c in coeffs)
    x = hi
    for _ in range(200):
        d = dp(x)
        if d <= 0:
            break
        step = p(x) / d
        x -= step
        if abs(step) < 1e-15 * max(1.0, abs(x)):
            break
    lo, hi = x - 1e-6, x + 1e-6
    if p(lo) > 0 or p(hi) < 0:
        return float(x)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if p(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# expansion spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumEntry:
    value: float
    multiplicity: int
    stratum: int        # 1-based level in the maximal invariant filtration
    block_edges: tuple  # edge ids of the stratum


@dataclass(frozen=True)
class ExpansionSpectrum:
    entries: tuple     # decreasing by value
    filtration: tuple  # sorted edge-id blocks of the maximal invariant filtration

    def values(self):
        return [e.value for e in self.entries]

    def __len__(self):
        return len(self.entries)

    def top(self):
        return self.entries[0].value if self.entries else None


def maximal_invariant_filtration(f):
    """The unique maximal weak filtration the self-map respects, as (ordered
    edge-id blocks, block kinds, transition matrix, block index slices)."""
    if f.domain.edge_ends != f.codomain.edge_ends:
        raise ValueError("maximal filtration needs a self map")
    tm = transition_matrix(f)
    bs = block_structure(tm.entries)
    # Order rows/cols by the condensation; col_edges == row_edges for self maps.
    blocks_edges = tuple(tuple(tm.col_edges[i] for i in b) for b in bs.blocks)
    return blocks_edges, bs, tm


def gamma(f):
    """Spectrum of Perron-Frobenius values of EG strata, decreasing."""
    blocks_edges, bs, tm = maximal_invariant_filtration(f)
    entries = []
    for level, (idx, kind, edges) in enumerate(
            zip(bs.blocks, bs.kinds, blocks_edges), start=1):
        if kind == "zero":
            continue
        sub = tm.entries[np.ix_(idx, idx)]
        if _is_permutation_cycle(sub):
            continue
        lam, p = _pf_and_period(sub)
        if lam > 1.0:
            entries.append(SpectrumEntry(lam, p, level, tuple(edges)))
    entries.sort(key=lambda e: (-e.value, e.stratum))
    filtration = tuple(tuple(sorted(edges)) for edges in blocks_edges)
    return ExpansionSpectrum(tuple(entries), filtration)


def gamma_hat(f):
    """gamma with each entry repeated by its block period (the multiplicity),
    equal to the p-th-root construction applied to f^p."""
    base = gamma(f)
    expanded = []
    for e in base.entries:
        for _ in range(e.multiplicity):
            expanded.append(SpectrumEntry(e.value, e.multiplicity, e.stratum,
                                          e.block_edges))
    expanded.sort(key=lambda e: (-e.value, e.stratum))
    return ExpansionSpectrum(tuple(expanded), base.filtration)


def gamma_hat_by_power(f):
    """Reference route: form f^p literally and take p-th roots of gamma(f^p).
    Used to cross-check gamma_hat."""
    base = gamma(f)
    if not base.entries:
        return []
    p = 1
    for e in base.entries:
        p = p * e.multiplicity // math.gcd(p, e.multiplicity)
    fp = f
    for _ in range(p - 1):
        fp = tighten_map(compose(f, fp))
    vals = [v ** (1.0 / p) for v in gamma(fp).values()]
    return sorted(vals, reverse=True)


def spectrum_report(hat, certified=None):
    """JSON-ready report of a gamma_hat spectrum.  Its entries repeat each
    Gamma value once per unit of multiplicity, consecutively, so Gamma is the
    first entry of each stratum."""
    data = {
        "gamma": [next(run).value for _, run in
                  groupby(hat.entries, key=lambda e: e.stratum)],
        "gamma_hat": [
            {"lambda": e.value, "multiplicity": e.multiplicity,
             "block_edges": list(e.block_edges)}
            for e in hat.entries
        ],
        "filtration": [list(edges) for edges in hat.filtration],
    }
    if certified is not None:
        data["certified"] = bool(certified)
    return data

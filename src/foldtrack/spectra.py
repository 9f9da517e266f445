"""Transition-matrix analytics: largest coefficients, irreducible blocks,
Perron-Frobenius values with periods, and expansion spectra.

The maximal invariant weak filtration of a self-map is the condensation of
the directed graph "column edge covers row edge" into strongly connected
components, topologically ordered; each diagonal block is irreducible or a
1x1 zero block.
"""

import math
from dataclasses import dataclass
from itertools import groupby, zip_longest

from .errors import NumericError
from .graph_map import compose, tighten_map, transition_matrix

__all__ = [
    "lc", "l_total", "mlog", "BlockStructure", "block_structure", "pf_value",
    "pf_value_charpoly", "period", "ExpansionSpectrum", "SpectrumEntry",
    "gamma", "gamma_hat", "maximal_invariant_filtration",
]


def lc(m):
    """Largest coefficient of a matrix (0 for empty)."""
    import numpy as np

    m = np.asarray(m)
    return int(m.max(initial=0))


def l_total(m):
    """Sum of all entries."""
    import numpy as np

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


def _rows(m):
    """A square matrix as a list of rows of Python numbers."""
    rows = m.tolist() if hasattr(m, "tolist") else [list(r) for r in m]
    if any(not isinstance(r, list) or len(r) != len(rows) for r in rows):
        raise ValueError("expected a square matrix")
    return rows


def block_structure(m):
    """Condense the digraph "k covers j when m[j,k] > 0" and order the SCCs
    so every block only covers blocks at lower levels (deterministic Kahn
    order, smallest minimal index first)."""
    return _blocks(_rows(m))


def _blocks(rows):
    """block_structure of a list of rows.  reach[k] is the bitset of the
    indices k reaches, reflexive and closed by a Warshall pass; the SCCs are
    its mutual-reachability classes."""
    n = len(rows)
    reach = [1 << k for k in range(n)]
    for j, row in enumerate(rows):
        for k, x in enumerate(row):
            if x > 0:
                reach[k] |= 1 << j
    for i in range(n):
        bit, through = 1 << i, reach[i]
        for k in range(n):
            if reach[k] & bit:
                reach[k] |= through
    # each block is named by its minimal index
    mutual = [reach[i] & sum(1 << j for j in range(n) if reach[j] >> i & 1)
              for i in range(n)]
    left = [(i, cls) for i, cls in enumerate(mutual) if cls & -cls == 1 << i]
    blocks = []
    kinds = []
    unplaced = (1 << n) - 1
    while left:
        # ready: reaches no other unplaced block (reach is reflexive)
        pos = next(p for p, (rep, cls) in enumerate(left)
                   if reach[rep] & unplaced == cls)
        rep, cls = left.pop(pos)
        unplaced ^= cls
        idx = tuple(j for j in range(rep, n) if cls >> j & 1)
        blocks.append(idx)
        zero = len(idx) == 1 and rows[rep][rep] == 0
        kinds.append("zero" if zero else "irreducible")
    order = tuple(i for b in blocks for i in b)
    return BlockStructure(tuple(blocks), tuple(kinds), order)


def is_irreducible(m):
    return _blocks(_rows(m)).kinds == ("irreducible",)


# ---------------------------------------------------------------------------
# Perron-Frobenius values
# ---------------------------------------------------------------------------

def period(m):
    """Multiplicity of an irreducible matrix: gcd of cycle lengths through a
    fixed index of the adjacency digraph."""
    rows = _rows(m)
    if _blocks(rows).kinds != ("irreducible",):
        raise ValueError("period requires an irreducible matrix")
    return _period(rows)


def _period(rows):
    """Period of an irreducible matrix, from one BFS out of index 0: the gcd
    of dist(v) + 1 - dist(w) over the arcs v -> w."""
    adjacency = [[w for w, x in enumerate(col) if x] for col in zip(*rows)]
    dist = [None] * len(rows)
    dist[0] = 0
    queue = [0]
    for v in queue:
        for w in adjacency[v]:
            if dist[w] is None:
                dist[w] = dist[v] + 1
                queue.append(w)
    g = 0
    for v, arcs in enumerate(adjacency):
        for w in arcs:
            g = math.gcd(g, dist[v] + 1 - dist[w])
    return max(g, 1)


def _is_permutation_cycle(rows):
    """An irreducible nonnegative integer matrix is a permutation cycle iff
    every row sums to 1: its n unit entries then meet each column too."""
    return all(sum(r) == 1 for r in rows)


def pf_value(m):
    """Perron-Frobenius eigenvalue of an irreducible nonnegative integer
    matrix: the spectral radius, from LAPACK eigenvalues.

    The result is checked against the classical bounds
    lambda <= alpha * LC(M) and lambda^alpha >= LC(M).
    """
    rows = _rows(m)
    if _blocks(rows).kinds != ("irreducible",):
        raise ValueError("pf_value requires an irreducible matrix")
    return 1.0 if _is_permutation_cycle(rows) else _pf(rows)


def _pf(rows):
    """pf_value of the rows of a matrix already known to be irreducible and
    not a permutation cycle.  The moduli are numpy's: Python's abs of a
    complex number can differ from it in the last bit, and on a periodic
    block the largest modulus may be a complex eigenvalue's."""
    import numpy as np

    lam = max(np.abs(np.linalg.eigvals(rows)).tolist())
    alpha = len(rows)
    big = max(map(max, rows))
    if lam > alpha * big + 1e-6 or lam ** alpha < big * (1 - 1e-9):
        raise NumericError("Perron-Frobenius value violates its bounds")
    return lam


def charpoly(m):
    """Exact characteristic polynomial det(xI - M) of an integer matrix,
    by cofactor expansion over polynomial coefficient lists (sizes <= 6)."""
    m = _rows(m)
    n = len(m)
    if n > 6:
        raise ValueError("exact charpoly oracle is limited to size 6")

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def entry(i, j):
        return [-m[i][j], 1] if i == j else [-m[i][j]]

    def det(rows, cols):
        if len(rows) == 1:
            return entry(rows[0], cols[0])
        total = [0]
        for pos, j in enumerate(cols):
            minor = det(rows[1:], cols[:pos] + cols[pos + 1:])
            term = poly_mul(entry(rows[0], j), minor)
            total = [a + (-b if pos % 2 else b)
                     for a, b in zip_longest(total, term, fillvalue=0)]
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
    edge-id blocks, their BlockStructure, the transition matrix as rows)."""
    if f.domain.edge_ends != f.codomain.edge_ends:
        raise ValueError("maximal filtration needs a self map")
    tm = transition_matrix(f)
    rows = tm.entries.tolist()
    bs = _blocks(rows)
    # Order rows/cols by the condensation; col_edges == row_edges for self maps.
    blocks_edges = tuple(tuple(tm.col_edges[i] for i in b) for b in bs.blocks)
    return blocks_edges, bs, rows


def gamma(f):
    """Spectrum of Perron-Frobenius values of EG strata, decreasing."""
    blocks_edges, bs, rows = maximal_invariant_filtration(f)
    entries = []
    for level, (idx, kind, edges) in enumerate(
            zip(bs.blocks, bs.kinds, blocks_edges), start=1):
        if kind == "zero":
            continue
        sub = [[rows[i][j] for j in idx] for i in idx]
        if _is_permutation_cycle(sub):
            continue
        lam = _pf(sub)
        if lam > 1.0:
            entries.append(SpectrumEntry(lam, _period(sub), level, edges))
    entries.sort(key=lambda e: (-e.value, e.stratum))
    filtration = tuple(tuple(sorted(edges)) for edges in blocks_edges)
    return ExpansionSpectrum(tuple(entries), filtration)


def gamma_hat(f):
    """gamma with each entry repeated by its block period (the multiplicity),
    equal to the p-th-root construction applied to f^p."""
    base = gamma(f)
    return ExpansionSpectrum(
        tuple(e for e in base.entries for _ in range(e.multiplicity)),
        base.filtration)


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

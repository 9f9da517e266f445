"""Transition-matrix analytics: largest coefficients, irreducible blocks,
Perron-Frobenius values with periods, and expansion spectra.

The maximal invariant weak filtration of a self-map is the condensation of
the directed graph "column edge covers row edge" into strongly connected
components, topologically ordered; each diagonal block is irreducible or a
1x1 zero block.
"""

import math
from dataclasses import dataclass
from itertools import chain, groupby, zip_longest

from .errors import NumericError
from .graph_map import compose, tighten_map, transition_matrix

__all__ = [
    "lc", "l_total", "mlog", "BlockStructure", "block_structure", "pf_value",
    "pf_value_charpoly", "period", "ExpansionSpectrum", "SpectrumEntry",
    "gamma", "gamma_hat", "gamma_hat_many", "maximal_invariant_filtration",
]


def lc(m):
    """Largest coefficient of a nonnegative matrix (0 for empty)."""
    return max([0, *chain.from_iterable(_entries(m))])


def l_total(m):
    """Sum of all entries."""
    return sum(map(sum, _entries(m)))


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


def _entries(m):
    """A matrix (rows, or a numpy array) as a list of rows of Python
    numbers."""
    return m.tolist() if hasattr(m, "tolist") else [list(r) for r in m]


def _rows(m):
    """A square matrix as a list of rows of Python numbers."""
    rows = _entries(m)
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
    its mutual-reachability classes, which are the classes of equal reach:
    if k reaches j and j reaches k they reach the same indices, and if they
    reach the same indices, each reaches the other (reach is reflexive)."""
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
    everything = (1 << n) - 1
    if n and reach.count(everything) == n:
        # one class: every index reaches every other
        one = tuple(range(n))
        kind = "zero" if n == 1 and rows[0][0] == 0 else "irreducible"
        return BlockStructure((one,), (kind,), one)
    # reach -> [bitset, indices] of its class, by least index
    classes = {}
    for k, r in enumerate(reach):
        cls = classes.get(r)
        if cls is None:
            classes[r] = [1 << k, [k]]
        else:
            cls[0] |= 1 << k
            cls[1].append(k)
    left = list(classes.values())
    blocks = []
    kinds = []
    unplaced = everything
    while left:
        # ready: reaches no other unplaced block (reach is reflexive); the
        # class of least index first
        for pos, (cls, idx) in enumerate(left):
            if reach[idx[0]] & unplaced == cls:
                break
        del left[pos]
        unplaced ^= cls
        blocks.append(tuple(idx))
        zero = len(idx) == 1 and rows[idx[0]][idx[0]] == 0
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
    of dist(v) + 1 - dist(w) over the arcs v -> w.  A positive diagonal
    entry is a cycle of length 1, so the period is 1 without the BFS."""
    if any(rows[i][i] for i in range(len(rows))):
        return 1
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
    if _is_permutation_cycle(rows):
        return 1.0
    return _checked_pf(_spectral_radii([rows])[0], rows)


def _spectral_radii(blocks):
    """Largest eigenvalue modulus of each square block (rows of ints), with
    one eigvals call per block size on the blocks of that size stacked.  The
    moduli are numpy's: Python's abs of a complex number can differ from it
    in the last bit, and on a periodic block the largest modulus may be a
    complex eigenvalue's."""
    import numpy as np

    by_size = {}
    for pos, rows in enumerate(blocks):
        by_size.setdefault(len(rows), []).append(pos)
    radii = [None] * len(blocks)
    for positions in by_size.values():
        moduli = np.abs(np.linalg.eigvals([blocks[p] for p in positions]))
        for p, lam in zip(positions, moduli.max(axis=1).tolist()):
            radii[p] = lam
    return radii


def _checked_pf(lam, rows):
    """lam, the spectral radius of the rows of an irreducible matrix that is
    no permutation cycle, once it passes the classical PF bounds."""
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
    rows, col_edges = tm.entries, tm.col_edges
    bs = _blocks(rows)
    # Order rows/cols by the condensation; col_edges == row_edges for self maps.
    blocks_edges = tuple(tuple(col_edges[i] for i in b) for b in bs.blocks)
    return blocks_edges, bs, rows


def gamma_hat_many(maps):
    """gamma_hat of each self map, in one batch, or the NumericError of its
    first block (by level) that fails the PF bounds, so the other maps of the
    batch keep their spectra.  The EG candidates of all maps (the irreducible
    blocks that are no permutation cycle) share one eigvals call per block
    size; each keeps its own bound check."""
    filtrations = [maximal_invariant_filtration(f) for f in maps]
    candidates = []  # (map position, level, block rows, block edges)
    for k, (blocks_edges, bs, rows) in enumerate(filtrations):
        for level, (idx, kind, edges) in enumerate(
                zip(bs.blocks, bs.kinds, blocks_edges), start=1):
            if kind == "zero":
                continue
            sub = rows if len(idx) == len(rows) else [
                [rows[i][j] for j in idx] for i in idx]
            if not _is_permutation_cycle(sub):
                candidates.append((k, level, sub, edges))
    radii = _spectral_radii([c[2] for c in candidates])
    entries = [[] for _ in maps]
    errors = [None] * len(maps)
    for (k, level, sub, edges), lam in zip(candidates, radii):
        if errors[k] is not None:
            continue  # an earlier block of this map failed
        try:
            lam = _checked_pf(lam, sub)
        except NumericError as exc:
            errors[k] = exc
            continue
        if lam > 1.0:
            entries[k].append(SpectrumEntry(lam, _period(sub), level, edges))
    spectra = []
    for found, error, (blocks_edges, _, _) in zip(entries, errors, filtrations):
        if error is not None:
            spectra.append(error)
            continue
        found.sort(key=lambda e: (-e.value, e.stratum))
        filtration = tuple(tuple(sorted(edges)) for edges in blocks_edges)
        hat = tuple(e for e in found for _ in range(e.multiplicity))
        spectra.append(ExpansionSpectrum(hat, filtration))
    return spectra


def _one(result):
    """The single result of a batch of one, raising it when it is an error."""
    if isinstance(result, NumericError):
        raise result
    return result


def _per_stratum(hat):
    """The Gamma entries of a gamma_hat spectrum.  Its entries repeat each
    Gamma value once per unit of multiplicity, consecutively, so Gamma is the
    first entry of each stratum."""
    return tuple(next(run) for _, run in
                 groupby(hat.entries, key=lambda e: e.stratum))


def gamma(f):
    """Spectrum of Perron-Frobenius values of EG strata, decreasing."""
    hat = gamma_hat(f)
    return ExpansionSpectrum(_per_stratum(hat), hat.filtration)


def gamma_hat(f):
    """gamma with each entry repeated by its block period (the multiplicity),
    equal to the p-th-root construction applied to f^p."""
    return _one(gamma_hat_many([f])[0])


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


def spectrum_report(hat, certified):
    """JSON-ready report of a gamma_hat spectrum."""
    return {
        "gamma": [e.value for e in _per_stratum(hat)],
        "gamma_hat": [
            {"lambda": e.value, "multiplicity": e.multiplicity,
             "block_edges": list(e.block_edges)}
            for e in hat.entries
        ],
        "filtration": [list(edges) for edges in hat.filtration],
        "certified": bool(certified),
    }

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foldtrack import spectra
from foldtrack.automorphisms import (
    expansion_pair, expansion_pairs, parse_automorphism, rose_graph,
)
from foldtrack.errors import NumericError
from foldtrack.graph_map import make_graph_map
from foldtrack.spectra import (
    block_structure, gamma, gamma_hat, gamma_hat_by_power, gamma_hat_many, lc,
    l_total, mlog, period, pf_value, pf_value_charpoly, spectrum_report,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def test_lc_l_mlog():
    m = [[1, 1], [1, 0]]
    assert lc(m) == 1
    assert l_total(m) == 3
    assert mlog(1) == 1.0
    assert math.isclose(mlog(math.e ** 2), 2.0)
    assert mlog(0) == 1.0


_MATRIX_LAYER = """
import sys
from foldtrack.graph import make_graph
from foldtrack.graph_map import make_graph_map, submatrix, transition_matrix
from foldtrack.spectra import (
    block_structure, l_total, lc, maximal_invariant_filtration, period,
)
g = make_graph(1, [(0, 0)] * 3, 0, filtration=[{1}, {1, 2, 3}])
f = make_graph_map(g, g, (0,), [(1,), (2, 3), (2,)])
tm = transition_matrix(f)
assert tm.entries == [[1, 0, 0], [0, 1, 1], [0, 1, 0]]
top = submatrix(tm, 2, 2).entries
assert (lc(tm.entries), l_total(tm.entries), period(top)) == (1, 4, 1)
assert block_structure(tm.entries).blocks == ((0,), (1, 2))
assert maximal_invariant_filtration(f)[0] == ((1,), (2, 3))
print("numpy" in sys.modules)
"""


def test_matrix_layer_loads_no_numpy():
    """Transition matrices, their submatrices, LC, L, block structure,
    periods and the maximal invariant filtration are computed on Python
    ints, in a fresh process that never imports numpy."""
    proc = subprocess.run([sys.executable, "-c", _MATRIX_LAYER],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_block_structure_examples():
    bs = block_structure(np.array([[1, 1], [0, 1]]))
    assert bs.blocks == ((0,), (1,))
    assert bs.kinds == ("irreducible", "irreducible")
    bs2 = block_structure(np.array([[1, 1], [1, 1]]))
    assert len(bs2.blocks) == 1 and bs2.kinds == ("irreducible",)
    bs3 = block_structure(np.zeros((2, 2), dtype=int))
    assert bs3.kinds == ("zero", "zero")


def test_block_order_respects_covering():
    # edge 2 covers edge 1, so block {1} must come first
    m = np.array([[1, 1], [0, 1]])
    bs = block_structure(m)
    assert bs.order == (0, 1)
    # {0} covers {2}; {1} covers nothing: {1} and {2} are both ready first,
    # and the smaller minimal index wins
    m = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    assert block_structure(m).blocks == ((1,), (2,), (0,))


def _reach(m, k):
    """Indices reachable from k along the arcs k -> j with m[j][k] > 0 (BFS)."""
    seen = [k]
    for v in seen:
        seen.extend(j for j in range(len(m)) if m[j][v] > 0 and j not in seen)
    return set(seen)


square = st.integers(1, 8).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=n, max_size=n),
    min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(square)
def test_block_structure_matches_definition(m):
    n = len(m)
    reach = [_reach(m, k) for k in range(n)]
    bs = block_structure(np.array(m))
    # blocks are the mutual-reachability classes
    classes = {tuple(sorted(j for j in reach[k] if k in reach[j]))
               for k in range(n)}
    assert sorted(bs.blocks) == sorted(classes)
    assert bs.order == tuple(i for b in bs.blocks for i in b)

    def covered(block):
        return {j for k in block for j in range(n) if m[j][k] > 0} - set(block)

    placed = set()
    for pos, block in enumerate(bs.blocks):
        # each block covers only earlier blocks ...
        assert covered(block) <= placed
        # ... and is the one with the smallest minimal index among those ready
        ready = [b for b in bs.blocks[pos:] if covered(b) <= placed]
        assert min(block) == min(min(b) for b in ready)
        placed |= set(block)
        zero = len(block) == 1 and m[block[0]][block[0]] == 0
        assert bs.kinds[pos] == ("zero" if zero else "irreducible")


def test_expansion_pair_digits():
    # real roots of x^2 - x - 1, x^3 - x^2 - 1 and x^3 - x - 1
    fib = expansion_pair(parse_automorphism("a->ab, b->a"))
    assert math.isclose(fib.lam, GOLDEN, rel_tol=1e-14)
    assert math.isclose(fib.mu, GOLDEN, rel_tol=1e-14)
    pg = expansion_pair(parse_automorphism("a->ac, b->a, c->b"))
    assert math.isclose(pg.lam, 1.4655712318767680267, rel_tol=1e-14)
    assert math.isclose(pg.mu, 1.3247179572447460260, rel_tol=1e-14)


def test_pf_values():
    assert math.isclose(pf_value([[1, 1], [1, 0]]), GOLDEN, abs_tol=1e-9)
    assert pf_value([[0, 1], [1, 0]]) == 1.0
    pg = [[1, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert math.isclose(pf_value(pg), 1.4655712318767682, abs_tol=1e-9)
    assert math.isclose(pf_value([[0, 2], [2, 0]]), 2.0, abs_tol=1e-12)
    with pytest.raises(ValueError):
        pf_value(np.zeros((2, 2), dtype=int))


def test_pf_oracle_agreement():
    for m in ([[1, 1], [1, 0]], [[1, 1, 0], [0, 0, 1], [1, 0, 0]],
              [[0, 0, 1], [1, 0, 1], [0, 1, 0]], [[0, 2], [2, 0]]):
        assert math.isclose(pf_value(m), pf_value_charpoly(m), abs_tol=1e-8)


def test_period_examples():
    assert period(np.array([[0, 2], [2, 0]])) == 2
    assert period(np.array([[1, 1], [1, 1]])) == 1
    assert period(np.array([[1, 1], [1, 0]])) == 1
    m2 = np.linalg.matrix_power(np.array([[0, 2], [2, 0]]), 2)
    assert (m2 == np.diag([4, 4])).all()


def test_gamma_examples(rose2, fibonacci):
    spec = gamma(fibonacci)
    assert len(spec) == 1
    assert math.isclose(spec.top(), GOLDEN, abs_tol=1e-9)
    assert gamma_hat(fibonacci).values() == spec.values()
    poly = make_graph_map(rose2, rose2, (0,), [(1,), (2, 1)])
    assert gamma(poly).values() == []


def test_gamma_hat_multiplicity(rose2):
    # stratum block [[0,2],[2,0]]: a->bb, b->aa
    f = make_graph_map(rose2, rose2, (0,), [(2, 2), (1, 1)])
    spec = gamma(f)
    assert len(spec) == 1
    entry = spec.entries[0]
    assert math.isclose(entry.value, 2.0, abs_tol=1e-12)
    assert entry.multiplicity == 2
    hat = gamma_hat(f)
    assert [round(v, 9) for v in hat.values()] == [2.0, 2.0]
    by_power = gamma_hat_by_power(f)
    assert all(abs(a - b) < 1e-9 for a, b in zip(hat.values(), by_power))


def test_gamma_hat_by_power_general(fibonacci):
    assert all(abs(a - b) < 1e-9 for a, b in
               zip(gamma_hat(fibonacci).values(), gamma_hat_by_power(fibonacci)))


def test_spectrum_report_shape(fibonacci):
    data = spectrum_report(gamma_hat(fibonacci), certified=True)
    assert set(data) == {"gamma", "gamma_hat", "filtration", "certified"}
    assert data["gamma_hat"][0]["multiplicity"] == 1
    assert data["filtration"] == [[1, 2]]


entries = st.integers(0, 9)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8),
       st.integers(0, 2 ** 31))
def test_lemma_product_inequalities(r, k, c, seed):
    rng = np.random.default_rng(seed)
    alpha = max(r, k, c)
    m1 = rng.integers(0, 10, size=(r, k))
    m2 = rng.integers(0, 10, size=(k, c))
    assert lc(m1 @ m2) <= alpha * lc(m1) * lc(m2)
    for m in (m1, m2):
        assert lc(m) <= l_total(m) <= alpha * alpha * lc(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 31))
def test_largest_bounds_general_irreducible(n, seed):
    # sparse spanning cycle plus random extras: covers periodic cases
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 4, size=(n, n))
    for i in range(n):
        m[(i + 1) % n, i] = max(m[(i + 1) % n, i], 1)
    lam = pf_value(m)
    assert lam <= n * lc(m) + 1e-9
    assert lam ** n >= lc(m) * (1 - 1e-9)
    assert math.isclose(lam, pf_value_charpoly(m), abs_tol=1e-7)


def test_gamma_hat_lex_order_preserved(rose2):
    # expanding multiplicities never changes the relative lexicographic
    # comparison of two spectra for the same family
    f = make_graph_map(rose2, rose2, (0,), [(2, 2), (1, 1)])   # lambda 2, mult 2
    g = make_graph_map(rose2, rose2, (0,), [(1, 2), (1,)])     # golden, mult 1
    a, b = gamma(f).values(), gamma(g).values()
    ah, bh = gamma_hat(f).values(), gamma_hat(g).values()
    assert (a > b) == (ah > bh)


@pytest.mark.parametrize("rank,length,trials", [(3, 10, 200), (4, 30, 50),
                                                (6, 60, 50)])
def test_batched_spectra_equal_single_map_spectra(experiment_draws, rank,
                                                  length, trials):
    """Stacking the blocks of many maps into one eigvals call per size gives
    every map the spectrum it gets alone, bit for bit."""
    maps = [f for pair in expansion_pairs(experiment_draws(rank, length, trials))
            for f in (pair.rose_map, pair.inverse_rose_map)]
    assert gamma_hat_many(maps) == [gamma_hat_many([f])[0] for f in maps]


def _rose_map(*images):
    rose = rose_graph(len(images))
    return make_graph_map(rose, rose, (0,), images)


def test_batched_spectra_mix_block_sizes():
    cube_root = 2 ** (1 / 3)
    # a -> b -> c -> aa: one periodic 3x3 block whose eigenvalues are the
    # cube roots of 2, two of them complex of the same modulus
    periodic = [[0, 0, 2], [1, 0, 0], [0, 1, 0]]
    assert np.iscomplex(np.linalg.eigvals(periodic)).sum() == 2
    maps = [
        _rose_map((1, 1)),                            # 1x1 block [[2]]
        _rose_map((1, 2), (1,)),                      # Fibonacci
        _rose_map((2,), (3,), (1, 1)),                # the periodic block
        _rose_map((1, 2), (3,), (4,), (1,)),          # x^4 - x^3 - 1
        _rose_map((1, 1), (3, 1), (4,), (2, 2)),      # blocks of size 1 and 3
        _rose_map((2, 2), (1, 1)),                    # period 2
        _rose_map((2,), (1,)),                        # a permutation: no EG
    ]
    batch = gamma_hat_many(maps)
    assert batch == [gamma_hat_many([f])[0] for f in maps]
    quartic = max(abs(x) for x in np.roots([1, -1, 0, 0, -1]))
    want = [[2.0], [GOLDEN], [cube_root] * 3, [quartic], [2.0] + [cube_root] * 3,
            [2.0, 2.0], []]
    for spec, values in zip(batch, want):
        assert len(spec) == len(values)
        assert all(math.isclose(a, b, rel_tol=1e-12)
                   for a, b in zip(spec.values(), values))


def test_failed_bound_check_stays_with_its_map(monkeypatch, fibonacci):
    """A block that fails the PF bounds puts a NumericError in its map's
    place; the other maps of the batch keep their spectra, and gamma_hat
    of that map alone raises it."""
    check = spectra._checked_pf

    def failing_check(lam, rows):
        if rows == [[1, 1], [1, 0]]:
            raise NumericError("Perron-Frobenius value violates its bounds")
        return check(lam, rows)

    other = _rose_map((1, 2), (3,), (1,))
    want = gamma_hat(other)
    monkeypatch.setattr(spectra, "_checked_pf", failing_check)
    batch = gamma_hat_many([fibonacci, other])
    assert isinstance(batch[0], NumericError)
    assert batch[1] == want
    with pytest.raises(NumericError):
        gamma_hat(fibonacci)

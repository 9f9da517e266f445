"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (run with -s to see them live).
Criterion 3's LC clause holds on its seeded suite; the README's "Notes on
guarantees" explains why LC(M(q)) = 1 cannot hold for every fold record.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from foldtrack.automorphisms import (
    compose_automorphisms, expansion_pair, fold_inverse, is_inner,
    normalize_outer, parse_automorphism, random_automorphism,
)
from foldtrack.folding import factorize
from foldtrack.graph_map import make_graph_map, transition_matrix
from foldtrack.metric import estimate_d, twist_family
from foldtrack.spectra import gamma, gamma_hat, gamma_hat_by_power, lc

GOLDEN = (1 + math.sqrt(5)) / 2
PARA_LAMBDA = 1.4655712318767682  # real root of x^3 - x^2 - 1
PARA_MU = 1.3247179572447458      # real root of x^3 - x - 1


def _report(n, ok, detail=""):
    print("ACCEPTANCE %-3s %s  %s" % (str(n) + ":", "PASS" if ok else "FAIL", detail))


def _cli_json(*args):
    proc = subprocess.run([sys.executable, "-m", "foldtrack", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_acceptance_1_fibonacci_roundtrip():
    t0 = time.perf_counter()
    data = _cli_json("ratio", "a->ab, b->a")
    elapsed = time.perf_counter() - t0
    ok = (abs(data["lambda"] - 1.6180339887) <= 1e-9 + 5e-11
          and abs(data["mu"] - 1.6180339887) <= 1e-9 + 5e-11
          and abs(data["ratio"] - 1.0) <= 1e-6
          and data["inverse"] == "a->b, b->b^-1 a"
          and elapsed < 1.0)
    _report(1, ok, "lambda=%.10f mu=%.10f ratio=%.6f inverse=%r %.2fs" %
            (data["lambda"], data["mu"], data["ratio"], data["inverse"], elapsed))
    assert abs(data["lambda"] - 1.6180339887) <= 1.1e-9
    assert abs(data["mu"] - 1.6180339887) <= 1.1e-9
    assert abs(data["ratio"] - 1.0) <= 1e-6
    assert data["inverse"] == "a->b, b->b^-1 a"
    assert elapsed < 1.0


def test_acceptance_2_parageometric_pair():
    t0 = time.perf_counter()
    data = _cli_json("ratio", "a->ac, b->a, c->b", "--kmax", "40")
    elapsed = time.perf_counter() - t0
    growth_inv = data["growth_estimates"]["inverse"]
    ok = (abs(data["lambda"] - PARA_LAMBDA) <= 1e-7
          and abs(data["mu"] - PARA_MU) <= 1e-7
          and data["lambda_certified"] and data["mu_certified"]
          and abs(data["ratio"] - 1.359) <= 1e-3
          and abs(growth_inv - PARA_MU) <= 0.01 * PARA_MU
          and elapsed < 5.0)
    _report(2, ok, "lambda=%.7f mu=%.7f ratio=%.4f growth=%.4f %.2fs" %
            (data["lambda"], data["mu"], data["ratio"], growth_inv, elapsed))
    assert abs(data["lambda"] - PARA_LAMBDA) <= 1e-7
    assert abs(data["mu"] - PARA_MU) <= 1e-7
    assert data["lambda_certified"] and data["mu_certified"]
    assert abs(data["ratio"] - 1.359) <= 1e-3
    assert abs(growth_inv - PARA_MU) <= 0.01 * PARA_MU
    assert elapsed < 5.0


def _fold_inverse_suite():
    rng = np.random.default_rng(np.random.Philox(key=20260550))
    inner_fail = 0
    lc_violations = 0
    records = 0
    t0 = time.perf_counter()
    for _ in range(500):
        rank = int(rng.integers(2, 5))
        length = int(rng.integers(1, 13))
        aut = random_automorphism(rank, length, rng)
        inv, fact, _ = fold_inverse(aut)
        comp = compose_automorphisms(inv, aut)
        if not is_inner(list(comp.images)):
            inner_fail += 1
        for record in fact.records:
            records += 1
            if lc(transition_matrix(record.inverse).entries) != 1:
                lc_violations += 1
    return inner_fail, lc_violations, records, time.perf_counter() - t0


SUITE3 = {}


def test_acceptance_3_fold_inverse_roundtrip():
    inner_fail, lc_violations, records, elapsed = _fold_inverse_suite()
    SUITE3.update(inner_fail=inner_fail, lc_violations=lc_violations,
                  records=records, elapsed=elapsed)
    ok = inner_fail == 0 and elapsed < 60.0
    _report("3a", ok, "500 trials, inner failures=%d, %d records, %.1fs" %
            (inner_fail, records, elapsed))
    assert inner_fail == 0
    assert elapsed < 60.0


def test_acceptance_3_fold_record_lc():
    """Every fold record has LC(M(q)) = 1: a case-3 fold that merges a
    loop-carrying vertex would force LC = 2, so fold_inverse runs
    clean_factorize, which backtracks to a fold order avoiding such merges
    (see the README's "Notes on guarantees")."""
    if not SUITE3:
        _fold_inverse_suite()
    lc_violations = SUITE3.get("lc_violations", None)
    if lc_violations is None:
        _, lc_violations, _, _ = _fold_inverse_suite()
    ok = lc_violations == 0
    _report("3b", ok, "LC(M(q)) = 1 on every record (violations: %d)"
            % lc_violations)
    assert lc_violations == 0


def test_acceptance_3_lc_bound():
    """The provable replacement: LC(M(q)) <= 2 always, = 1 unless flagged."""
    rng = np.random.default_rng(np.random.Philox(key=20260550))
    for _ in range(120):
        rank = int(rng.integers(2, 5))
        aut = random_automorphism(rank, int(rng.integers(1, 13)), rng)
        _, fact, _ = fold_inverse(aut)
        for record in fact.records:
            value = lc(transition_matrix(record.inverse).entries)
            flagged = "case3-loop-at-v1" in record.flags
            assert value <= 2
            assert (value == 1) == (not flagged)


def test_acceptance_4_matrix_lemma_suite():
    from foldtrack.audits import largest_bounds_suite, matrix_pair_suite
    t0 = time.perf_counter()
    pairs = matrix_pair_suite(trials=1000, seed=20260404)
    bounds = largest_bounds_suite(trials=200, seed=20260404)
    elapsed = time.perf_counter() - t0
    ok = pairs.ok and bounds.ok and elapsed < 10.0
    _report(4, ok, "1000 pairs + 200 irreducible, %.1fs" % elapsed)
    assert pairs.ok, pairs.failures[:5]
    assert bounds.ok, bounds.failures[:5]
    assert elapsed < 10.0


def test_acceptance_5_pg_equality():
    from foldtrack.audits import pg_suite
    result = pg_suite(trials=50, seed=20260505, rank=3)
    _report(5, result.ok, "50 case-1 lower-strata chains, M(f)=M(g) exactly")
    assert result.ok, result.failures[:5]


def test_acceptance_6_twist_metric():
    t0 = time.perf_counter()
    lines = []
    ok = True
    for m in (10, 10 ** 3, 10 ** 6):
        g0, gm = twist_family(2, m)
        fwd = estimate_d(g0, gm)
        rev = estimate_d(gm, g0)
        exact = math.isclose(fwd.value, math.log(2 + m), abs_tol=1e-12)
        witness_ok = fwd.total_edge_length == 2 + m
        sym = rev.value <= 2 * fwd.value and fwd.value <= 2 * rev.value
        ok = ok and exact and witness_ok and sym
        lines.append("m=%d d=%.6f" % (m, fwd.value))
        assert exact and witness_ok and sym
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(6, ok, "%s %.2fs" % ("  ".join(lines), elapsed))
    assert elapsed < 5.0


def test_acceptance_7_spectrum_multiplicity(rose2):
    f = make_graph_map(rose2, rose2, (0,), [(2, 2), (1, 1)])
    spec = gamma(f)
    hat = gamma_hat(f)
    by_power = gamma_hat_by_power(f)
    ok = (len(spec) == 1
          and math.isclose(spec.entries[0].value, 2.0, abs_tol=1e-12)
          and spec.entries[0].multiplicity == 2
          and len(hat.values()) == 2
          and all(abs(v - 2.0) <= 1e-9 for v in hat.values())
          and all(abs(a - b) <= 1e-9 for a, b in zip(hat.values(), by_power)))
    _report(7, ok, "Gamma=(2.0, mult 2), Gamma_hat=%s, f^2 route agrees" %
            ([round(v, 9) for v in hat.values()],))
    assert ok


def test_acceptance_8_reducibility_oracle_agreement():
    from foldtrack.audits import reducibility_agreement_suite
    result = reducibility_agreement_suite(budget=10)
    _report(8, result.ok, "%d fixtures, fold certifier vs pi_1 brute force"
            % result.checked)
    assert result.ok, result.failures[:5]


def test_acceptance_9_experiment_symmetry():
    from foldtrack.cli import _experiment_chunk
    t0 = time.perf_counter()
    max_ratio = None
    checked = 0
    for row in _experiment_chunk((20260909, 0, 200, 3, 10)):
        trial_id, text, lam, mu, ratio, folds, certified, err = row
        assert err is None, err
        if ratio is None:
            continue
        assert math.isfinite(ratio)
        checked += 1
        if max_ratio is None or ratio > max_ratio:
            max_ratio = ratio
        # the inverse automorphism's own report has the reciprocal ratio
        aut = normalize_outer(parse_automorphism(text))
        inv, _, _ = fold_inverse(aut)
        inv_row = _experiment_trial_for(inv)
        if inv_row is not None:
            assert abs(ratio * inv_row - 1.0) <= 1e-6
    elapsed = time.perf_counter() - t0
    ok = checked > 0 and elapsed < 300.0
    _report(9, ok, "200 trials, %d with EG spectra, max ratio %.6f "
            "(reported, not asserted), %.1fs" % (checked, max_ratio, elapsed))
    assert checked > 0
    assert elapsed < 300.0


def _experiment_trial_for(aut):
    """ratio of a concrete automorphism, or None without EG strata."""
    return expansion_pair(aut).ratio

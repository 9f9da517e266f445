"""Tests of the benchmark itself: input generation, output checks, failure
and percentile accounting, and the layer trace.  Run from the repository
root with `python3 -m pytest -q perfbench/tests`."""

import json
import math
import os
import random
import sys
import types

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, make_ops, random_nielsen_product, twist_marking,
)


# -- generator ----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(name, tmp_path):
    def argvs(ops, workdir):
        return [[a.replace(str(workdir), "W") for a in op["argv"]] for op in ops]

    runs = []
    for k in range(2):
        workdir = tmp_path / str(k)
        workdir.mkdir()
        warmup, ops = make_ops(WORKLOADS[name], 17, str(workdir))
        files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
        runs.append((argvs([warmup] + ops, workdir), files))
    assert runs[0] == runs[1]
    # the set is distinct ops, and the warm-up op is not one of them
    assert len({tuple(a) for a in runs[0][0]}) == len(runs[0][0])
    other = tmp_path / "other"
    other.mkdir()
    warmup, ops = make_ops(WORKLOADS[name], 18, str(other))
    assert argvs([warmup] + ops, other) != runs[0][0]


def test_nielsen_products_are_automorphisms():
    rng = random.Random(3)
    for _ in range(50):
        images = random_nielsen_product(3, 10, rng)
        assert all(checks.reduce_word(w) == w and w for w in images)
        # abelianized, a product of Nielsen moves has determinant +-1
        signed = [[sum(1 if a > 0 else -1 for a in w if abs(a) == j + 1)
                   for j in range(3)] for w in images]
        assert round(abs(np.linalg.det(signed))) == 1


def test_twist_marking_variants():
    assert twist_marking(3, 2, 1, False) == [[1], [2, 1, 1, 1]]
    assert twist_marking(2, 1, -1, True) == [[-2, -2, 1], [2]]


# -- output checks --------------------------------------------------------------

def _ratio_report(**override):
    golden = (1 + math.sqrt(5)) / 2
    report = {"automorphism": "a->ab, b->a", "inverse": "a->b, b->b^-1 a",
              "lambda": golden, "mu": golden, "ratio": 1.0}
    report.update(override)
    return json.dumps(report)


def test_conjugator_finds_the_conjugating_word():
    u = (2, -3, 1, 1)
    images = [checks.reduce_word(u + (i,) + checks.inverse(u)) for i in (1, 2, 3)]
    assert checks.conjugator(images) == u
    assert checks.conjugator([(1,), (2,), (3,)]) == ()
    assert checks.conjugator([(1,), (1, 2, -1), (3,)]) is None


def test_ratio_check_accepts_a_right_report():
    op = {"input": "a->ab, b->a"}
    assert checks.check_ratio(op, _ratio_report()) is None
    # an inverse conjugated by a fixed word is still an inverse in Out
    assert checks.check_ratio(op, _ratio_report(inverse="a->A b a, b->A B a a")) is None
    assert checks.check_ratio(op, _ratio_report(**{"lambda": None, "ratio": None})) is None


@pytest.mark.parametrize("override", [
    {"inverse": "a->b, b->a"},                 # wrong inverse
    {"inverse": "a->b, b->B a a"},             # not an inverse at all
    {"lambda": 1.7},                           # above the spectral radius 1.618
    {"mu": 1.0},                               # not an expansion factor
    {"ratio": 1.1},                            # not log(lambda)/log(mu)
    {"lambda": None},                          # ratio without lambda
])
def test_ratio_check_rejects_corrupted_reports(override):
    assert checks.check_ratio({"input": "a->ab, b->a"}, _ratio_report(**override))


def test_ratio_check_compares_with_the_input():
    assert checks.check_ratio({"input": "a->ba, b->b"}, _ratio_report())


def _experiment_tsv(rows, max_ratio):
    lines = [checks.EXPERIMENT_HEADER]
    lines += ["\t".join(map(str, row)) for row in rows]
    lines.append("# max_ratio\t%s" % max_ratio)
    return "\n".join(lines) + "\n"


GOOD_ROWS = [
    (0, "a->ab, b->a, c->c", "%.12g" % 1.618034, "%.12g" % 1.618034,
     "%.12g" % 1.0, 3, "true"),
    (1, "a->a, b->b, c->c", "NA", "NA", "NA", 0, "false"),
    (2, "a->ac, b->b, c->a", "%.12g" % 1.5, "%.12g" % 2.0,
     "%.12g" % (math.log(1.5) / math.log(2.0)), 4, "false"),
]


def test_experiment_check_accepts_a_right_table():
    assert checks.check_experiment({"trials": 3}, _experiment_tsv(GOOD_ROWS, "1")) is None


@pytest.mark.parametrize("edit", [
    lambda rows: (rows[:2], "1"),                                      # row missing
    lambda rows: ([rows[0], rows[1][:2] + ("ERROR",) * 5, rows[2]], "1"),
    lambda rows: ([rows[0], rows[1], rows[2][:2] + ("0.9",) + rows[2][3:]], "1"),
    lambda rows: ([rows[0], rows[1], rows[2][:4] + ("0.7",) + rows[2][5:]], "1"),
    lambda rows: ([rows[0], rows[1][:4] + ("2",) + rows[1][5:], rows[2]], "2"),
    lambda rows: (rows, "0.585"),                                      # wrong max
    lambda rows: (rows, "NA"),
])
def test_experiment_check_rejects_corrupted_tables(edit):
    rows, max_ratio = edit(GOOD_ROWS)
    assert checks.check_experiment({"trials": 3}, _experiment_tsv(rows, max_ratio))


def _metric_tsv(m, d_fwd, length, d_rev):
    return "\n".join([
        checks.METRIC_HEADER,
        "g0\tgm\t%.12g\t%d\tcanonical" % (d_fwd, length),
        "gm\tg0\t%.12g\t%d\tcanonical" % (d_rev, length),
    ]) + "\n"


def test_metric_check():
    op = {"m": 1000, "g0": "g0", "gm": "gm"}
    good = math.log(1002)
    assert checks.check_metric(op, _metric_tsv(1000, good, 1002, good)) is None
    assert checks.check_metric(op, _metric_tsv(1000, good * (1 + 1e-9), 1002, good))
    assert checks.check_metric(op, _metric_tsv(1000, good, 1001, good))
    assert checks.check_metric(op, _metric_tsv(1000, good, 1002, 2.1 * good))


# -- accounting ---------------------------------------------------------------

def test_failed_ops_count_at_the_limit():
    records = [{"ok": True, "latency_s": 0.1}, {"ok": False, "latency_s": 0.01},
               {"ok": False, "latency_s": 7.5}]
    assert run.op_latencies(records, 5.0) == [0.1, 5.0, 7.5]


def test_tail_percentile_leaves_ten_ops_beyond():
    lat = [float(i) for i in range(100)]
    random.Random(0).shuffle(lat)
    assert run.tail_percentile(lat) == (89.0, 90.0)
    assert run.tail_percentile(lat[:11]) == (sorted(lat[:11])[0], 100.0 / 11)
    assert run.tail_percentile([3.0, 1.0]) == (3.0, 100.0)


def _records(passes):
    """Records of passes given as lists of (ok, latency), warm-up first."""
    return [{"ok": ok, "latency_s": lat, "op": i - 1, "pass": k}
            for k, ops in enumerate(passes) for i, (ok, lat) in enumerate(ops)]


def test_summarize_accounts_failures():
    # 30 ops always ok at 2 ms, 10 that fail in the second pass
    first = [(True, 0.5)] + [(True, 0.002)] * 40
    second = [(True, 0.5)] + [(True, 0.002)] * 30 + [(False, 0.001)] * 10
    s = run.summarize(_records([first, second]), 1.0)
    assert (s["attempted"], s["failed"]) == (82, 10)
    assert (s["ops"], s["passes"]) == (40, 2)
    assert s["fail_share"] == 10 / 82
    # 30 ok ops in 30 * 2 ms plus 10 failed ops at the 1 s limit
    assert s["ok_ops_per_s"] == pytest.approx(30 / 10.06)
    assert s["op_p50_ms"] == pytest.approx(2.0)
    # 29 ops lie at or below the tail value, ten failed ops beyond it
    assert s["op_tail_ms"] == pytest.approx(2.0)
    assert s["tail_pct"] == 75.0


def test_summarize_scales_to_the_fast_phases():
    # every op runs at its cost in two passes of five and three times as
    # slow in the others; the warm-up op moves nothing
    costs = [0.01 * (1 + i % 3) for i in range(30)]
    passes = [[(True, 9.0)] + [(True, c if (i + k) % 5 < 2 else 3 * c)
                              for i, c in enumerate(costs)] for k in range(5)]
    s = run.summarize(_records(passes), 1.0)
    assert (s["ops"], s["passes"], s["attempted"]) == (30, 5, 155)
    assert s["fast_ratio"] == pytest.approx(1 / 3)
    assert s["ok_ops_per_s"] == pytest.approx(30 / sum(costs))
    assert s["op_p50_ms"] == pytest.approx(20.0)


def test_fast_phase_ratio_needs_three_runs():
    assert run.fast_phase_ratio([[0.1, 0.3]]) == 1.0
    assert run.fast_phase_ratio([[0.1, 0.3, 0.3], [0.2, 0.4]]) == pytest.approx(1 / 3)


# -- layer trace ----------------------------------------------------------------

@pytest.fixture
def fake_package(monkeypatch):
    """A package shaped like foldtrack: `metric` imports `substitute_reduced`
    from `words`; every other traced function is absent."""
    pkg = types.ModuleType("fakepkg")
    words = types.ModuleType("fakepkg.words")
    metric = types.ModuleType("fakepkg.metric")

    def substitute_reduced(w, images):
        return tuple(w) * 2

    def difference_map(g, h):
        return metric.substitute_reduced(g, h)

    words.substitute_reduced = substitute_reduced
    metric.substitute_reduced = substitute_reduced
    metric.difference_map = difference_map
    for mod in (pkg, words, metric):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return words, metric


def test_tracer_rebinds_every_import_and_reports_absent(fake_package):
    words, metric = fake_package
    tracer = layertrace.Tracer()
    tracer.install(package="fakepkg")
    assert words.substitute_reduced is metric.substitute_reduced
    assert words.substitute_reduced.__wrapped__ is not None
    metric.difference_map((1, 2), None)
    words.substitute_reduced((3,), None)
    calls, _, _ = tracer.self_times()
    assert calls == {"words.substitute_reduced": 2, "metric.difference_map": 1}
    assert "folding.factorize" in tracer.absent
    spans = [(tracer.names[tracer.fids[i]], tracer.parents[i])
             for i in range(len(tracer.starts))]
    assert spans == [("metric.difference_map", -1), ("words.substitute_reduced", 0),
                     ("words.substitute_reduced", -1)]
    metrics = tracer.metrics()
    assert metrics["words.substitute_reduced.letters_out"] == 6
    assert metrics["folding.apply_fold.calls"] == 0


def test_self_time_subtracts_child_spans():
    tracer = layertrace.Tracer()
    tracer.names = ["a", "b"]
    for fid, parent, start, end in [(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0),
                                    (1, 0, 5.0, 6.0), (0, 2, 5.5, 5.75)]:
        tracer.fids.append(fid)
        tracer.parents.append(parent)
        tracer.starts.append(start)
        tracer.ends.append(end)
    calls, self_s, total_s = tracer.self_times()
    assert calls == {"a": 2, "b": 2}
    assert self_s["a"] == pytest.approx(6.0 + 0.25)
    assert self_s["b"] == pytest.approx(3.0 + 0.75)
    # the nested "a" span lies inside the outer one and is not counted again
    assert total_s == {"a": pytest.approx(10.0), "b": pytest.approx(4.0)}


# -- BENCHMARK.json -------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layertrace.LAYER_METRICS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    for w in spec["workloads"]:
        assert "per-op limit %g s" % WORKLOADS[w["name"]].op_limit_s in w["why"]

import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "foldtrack", *args],
        capture_output=True, text=True)
    return proc


def test_spectrum_command():
    proc = run_cli("spectrum", "a->ab, b->a")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert abs(data["gamma_hat"][0]["lambda"] - 1.6180339887) < 1e-8
    assert data["certified"] is True


def test_spectrum_empty():
    proc = run_cli("spectrum", "a->a, b->b")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["gamma"] == [] and data["gamma_hat"] == []


def test_spectrum_parse_error_exit_2():
    proc = run_cli("spectrum", "a->aa, b->b")
    assert proc.returncode == 2


def test_invert_command(tmp_path):
    out = tmp_path / "dump.json"
    proc = run_cli("invert", "a->ab, b->a", "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "a->b, b->b^-1 a"
    dump = json.loads(out.read_text())
    assert dump["fold_count"] == 1
    assert dump["inverse_lc"] == 1
    assert dump["lc_product_bound_ok"] is True
    assert dump["factorization"][0]["case"] == 1
    assert (dump["clean_outcome"], dump["clean_steps"]) == ("clean", 0)


def test_invert_reports_clean_search_outcome(tmp_path):
    # every fold order of this map merges two loop-carrying vertices
    out = tmp_path / "dump.json"
    proc = run_cli("invert", "a->a, b->b^-1 db, c->ddb, d->c^-1",
                   "--out", str(out))
    assert proc.returncode == 0
    dump = json.loads(out.read_text())
    assert dump["clean_outcome"] == "none-exists"
    assert dump["clean_steps"] > 0
    assert dump["inverse_lc"] == 2


def test_invert_parageometric():
    proc = run_cli("invert", "a->ac, b->a, c->b")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "a->b, b->c, c->b^-1 a"


def test_invert_identity():
    proc = run_cli("invert", "a->a, b->b", "--out", "/dev/null")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "a->a, b->b"


def test_invert_builds_dump_only_with_out(monkeypatch, capsys):
    from foldtrack import cli

    def no_dump(fact):
        raise AssertionError("dump built without --out")

    monkeypatch.setattr(cli, "_factorization_dump", no_dump)
    assert cli.main(["invert", "a->ac, b->a, c->b"]) == 0
    assert capsys.readouterr().out == "a->b, b->c, c->b^-1 a\n"


def test_invert_map_file(tmp_path):
    from foldtrack.automorphisms import parse_automorphism, rose_representative
    from foldtrack.graph_map import map_to_json
    f = rose_representative(parse_automorphism("a->ab, b->a"))
    path = tmp_path / "map.json"
    path.write_text(json.dumps(map_to_json(f)))
    out = tmp_path / "inv.json"
    proc = run_cli("invert", str(path), "--out", str(out))
    assert proc.returncode == 0
    dump = json.loads(out.read_text())
    assert dump["inverse_map"]["edge_map"] == {"1": [2], "2": [-2, 1]}
    assert dump["clean_outcome"] == "clean"


def _fib_map_json():
    from foldtrack.automorphisms import parse_automorphism, rose_representative
    from foldtrack.graph_map import map_to_json
    return map_to_json(rose_representative(parse_automorphism("a->ab, b->a")))


@pytest.mark.parametrize("edit", [
    lambda d: d["edge_map"].update({"1": [1, 5]}),
    lambda d: d["edge_map"].update({"1": [0]}),
    lambda d: d.update(vertex_map={}),
    lambda d: d["edge_map"].update({"3": [1]}),
    lambda d: d["domain"].update(marking=[[1], [7]]),
    lambda d: d.update(vertex_map={"0": None}),
    lambda d: d["codomain"].update(edges=5),
    lambda d: d["edge_map"].update({"2": [1.5]}),
    lambda d: d["edge_map"].update({"2": ["1"]}),
    lambda d: d.update(vertex_map={"0": 0.7}),
    lambda d: (d["domain"]["vertices"].append("0"), d["domain"]["edges"]
               .append({"id": 3, "from": 0, "to": "0"})),
], ids=["edge-id-5", "letter-0", "empty-vertex-map", "edge-key-3",
        "marking-unknown-edge", "null-vertex-image", "edges-not-a-list",
        "float-letter", "string-letter", "float-vertex-image",
        "vertex-ids-with-one-key"])
def test_invert_malformed_map_exit_2(tmp_path, edit):
    data = _fib_map_json()
    edit(data)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(data))
    proc = run_cli("invert", str(path))
    assert proc.returncode == 2
    assert "error: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_invert_map_that_kills_a_loop_exit_2(tmp_path):
    """Both petals onto one petal: the greedy fold would fold two parallel
    edges with one image onto each other, so the map is refused as no
    homotopy equivalence."""
    data = _fib_map_json()
    data["edge_map"] = {"1": [1], "2": [1]}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(data))
    proc = run_cli("invert", str(path))
    assert proc.returncode == 2
    assert "the input was not a homotopy equivalence" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_ratio_command():
    proc = run_cli("ratio", "a->ac, b->a, c->b")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert abs(data["ratio"] - 1.359) < 1e-3


def test_experiment_determinism(tmp_path):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    for path in (a, b):
        proc = run_cli("experiment", "--trials", "6", "--seed", "11",
                       "--rank", "2", "--length", "4", "--out", str(path))
        assert proc.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().split("\n")
    assert lines[0].startswith("trial\taut")
    assert lines[-1].startswith("# max_ratio")


def test_experiment_jobs_match_sequential(tmp_path):
    a = tmp_path / "seq.tsv"
    b = tmp_path / "par.tsv"
    run_cli("experiment", "--trials", "4", "--seed", "5", "--rank", "2",
            "--length", "3", "--out", str(a))
    run_cli("experiment", "--trials", "4", "--seed", "5", "--rank", "2",
            "--length", "3", "--jobs", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_experiment_single_nielsen():
    proc = run_cli("experiment", "--trials", "1", "--seed", "7",
                   "--rank", "2", "--length", "1")
    assert proc.returncode == 0
    row = proc.stdout.strip().split("\n")[1].split("\t")
    assert row[4] in ("1", "NA")  # single Nielsen move: ratio 1 or no EG


@pytest.mark.parametrize("rank", ["0", "27"])
def test_experiment_rank_out_of_range_exit_2(rank):
    proc = run_cli("experiment", "--trials", "1", "--rank", rank)
    assert proc.returncode == 2
    assert "--rank must be in 1..26" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("flag,value",
                         [("--trials", "-2"), ("--length", "-3")])
def test_experiment_negative_count_exit_2(flag, value):
    proc = run_cli("experiment", "--trials", "1", flag, value)
    assert proc.returncode == 2
    assert "error: %s must be nonnegative" % flag in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("flag,value",
                         [("--trials", "-5"), ("--budget", "-1")])
def test_audit_negative_size_exit_2(flag, value):
    proc = run_cli("audit", flag, value)
    assert proc.returncode == 2
    assert "error: %s must be nonnegative" % flag in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("value", ["0", "-4"])
def test_experiment_jobs_below_one_exit_2(value):
    proc = run_cli("experiment", "--trials", "1", "--jobs", value)
    assert proc.returncode == 2
    assert "error: --jobs must be at least 1" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_experiment_seed_range(jobs):
    """A trial's Philox key is the seed: numpy refuses one outside
    [0, 2**128) with exit 2, in the main process or in a pool worker, and
    the largest seed runs."""
    argv = ("experiment", "--trials", "3", "--length", "3", "--jobs", jobs)
    for seed in (-1, 2 ** 128):
        proc = run_cli(*argv, "--seed", str(seed))
        assert proc.returncode == 2
        assert proc.stderr == ("error: key must be positive and less than "
                               "2**128.\n")
        assert proc.stdout == ""
    proc = run_cli(*argv, "--seed", str(2 ** 128 - 1))
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 5


@pytest.mark.parametrize("jobs,trials,cores,workers", [
    (10_000, 3, 2, 2), (10_000, 3, 8, 3), (4, 50, 8, 4), (10_000, 1, 8, None),
])
def test_experiment_jobs_capped(monkeypatch, tmp_path, jobs, trials, cores,
                                workers):
    """The pool never gets more workers than trials or cores; the pool is
    replaced, so no process starts."""
    from foldtrack import cli
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    out = tmp_path / "out.tsv"
    assert cli.main(["experiment", "--trials", str(trials), "--rank", "2",
                     "--length", "3", "--jobs", str(jobs),
                     "--out", str(out)]) == 0
    assert asked == ([] if workers is None else [workers])
    assert len(out.read_text().splitlines()) == trials + 2


def _eg_blocks(f, spectrum):
    """The rows of each EG block of a rose map's spectrum."""
    from foldtrack.graph_map import transition_matrix
    rows = transition_matrix(f).entries
    return [tuple(tuple(rows[i - 1][j - 1] for j in e.block_edges)
                  for i in e.block_edges) for e in spectrum.entries]


def test_experiment_errors_stay_in_their_rows(monkeypatch, tmp_path,
                                               experiment_draws):
    """In one 10-trial batch, one trial's spectra raise NumericError and
    another's factorize raises CertificationError: only those two rows read
    ERROR, and every other row is byte-identical to an unpatched run."""
    from foldtrack import automorphisms, cli, spectra
    from foldtrack.errors import CertificationError, NumericError

    def run(name):
        out = tmp_path / name
        assert cli.main(["experiment", "--rank", "3", "--length", "10",
                         "--trials", "10", "--seed", "1", "--jobs", "1",
                         "--out", str(out)]) == 0
        return out.read_text().splitlines()

    plain = run("plain.tsv")
    pairs = automorphisms.expansion_pairs(experiment_draws(3, 10, 10))
    blocks = [_eg_blocks(p.rose_map, p.spectrum) for p in pairs]
    seen = Counter(b for p, forward in zip(pairs, blocks) for b in
                   forward + _eg_blocks(p.inverse_rose_map, p.inverse_spectrum))
    # a block no other map of the batch has, and a rose map of its own
    numeric_trial, target = next((t, b) for t, forward in enumerate(blocks)
                                 for b in forward if seen[b] == 1)
    maps = Counter(p.rose_map.edge_map for p in pairs)
    fold_trial = next(t for t, p in enumerate(pairs)
                      if t != numeric_trial and maps[p.rose_map.edge_map] == 1)
    # the pipeline folds an automorphism's rose map, tight as built,
    # through factorize's tight-map step
    check, factorize = spectra._checked_pf, automorphisms._factorize_tight

    def failing_check(lam, rows):
        if rows == [list(r) for r in target]:
            raise NumericError("injected bound failure")
        return check(lam, rows)

    def failing_factorize(f):
        if f.edge_map == pairs[fold_trial].rose_map.edge_map:
            raise CertificationError("injected fold failure")
        return factorize(f)

    monkeypatch.setattr(spectra, "_checked_pf", failing_check)
    monkeypatch.setattr(automorphisms, "_factorize_tight", failing_factorize)
    patched = run("patched.tsv")
    assert len(patched) == len(plain) == 12
    for trial in range(10):
        line = plain[trial + 1]
        if trial in (numeric_trial, fold_trial):
            assert patched[trial + 1] == "\t".join(
                line.split("\t")[:2] + ["ERROR"] * 5)
        else:
            assert patched[trial + 1] == line


# The stages of expansion_pairs that can stop a trial, by the module that
# expansion_pairs reads each through: how one call's argument is keyed, and
# the keys of the calls a trial makes (its pair given, and its drawn
# automorphism).  normalize_outer runs on the drawn automorphism and, inside
# _inverse_of, on the controlled inverse; _checked_pf on each EG block, and
# gamma_hat_many keeps the NumericError it raises as the map's result.
STAGE_KEYS = {
    "normalize_outer": (
        "automorphisms", lambda aut: aut.images,
        lambda pair, aut: [aut.images, pair.controlled_map.edge_map]),
    "_factorize_tight": (
        "automorphisms", lambda f: f.edge_map,
        lambda pair, aut: [pair.rose_map.edge_map]),
    "controlled_inverse": (
        "automorphisms",
        lambda fact: (fact.terminal, tuple(r.spec for r in fact.records)),
        lambda pair, aut: [(pair.factorization.terminal, tuple(
            r.spec for r in pair.factorization.records))]),
    "_inverse_of": (
        "automorphisms", lambda g: g.edge_map,
        lambda pair, aut: [pair.controlled_map.edge_map]),
    "_checked_pf": (
        "spectra", lambda lam, rows: tuple(map(tuple, rows)),
        lambda pair, aut: _eg_blocks(pair.rose_map, pair.spectrum)
        + _eg_blocks(pair.inverse_rose_map, pair.inverse_spectrum)),
}


@pytest.mark.parametrize("stage", list(STAGE_KEYS))
def test_experiment_error_at_any_stage_stays_in_its_row(
        stage, monkeypatch, tmp_path, experiment_draws):
    """A FoldtrackError raised by one stage for one trial of a 10-trial
    batch: only that row reads ERROR, every other row is byte-identical to
    an unpatched run, and the trial reaches no later stage, so each later
    stage runs for the other nine trials only."""
    from foldtrack import automorphisms, cli, spectra
    from foldtrack.errors import FoldtrackError, NumericError

    def run(name):
        out = tmp_path / name
        assert cli.main(["experiment", "--rank", "3", "--length", "10",
                         "--trials", "10", "--seed", "1", "--jobs", "1",
                         "--out", str(out)]) == 0
        return out.read_text().splitlines()

    plain = run("plain.tsv")
    auts = experiment_draws(3, 10, 10)
    pairs = automorphisms.expansion_pairs(auts)
    module_name, key, trial_keys = STAGE_KEYS[stage]
    keys = [trial_keys(pair, aut) for pair, aut in zip(pairs, auts)]
    seen = Counter(k for ks in keys for k in ks)
    # a trial whose first call of the stage is the only call with its key
    failing = next(t for t, ks in enumerate(keys) if seen[ks[0]] == 1)
    target = keys[failing][0]
    module = {"automorphisms": automorphisms, "spectra": spectra}[module_name]
    original = getattr(module, stage)
    error = NumericError if stage == "_checked_pf" else FoldtrackError

    def failing_stage(*args):
        if key(*args) == target:
            raise error("injected %s failure" % stage)
        return original(*args)

    monkeypatch.setattr(module, stage, failing_stage)
    # the stages counted: their place in the pipeline, whose first five
    # are those of STAGE_KEYS in order, and their calls (maps passed, for
    # gamma_hat_many) per trial
    spied = {"_factorize_tight": (1, 1), "controlled_inverse": (2, 1),
             "_inverse_of": (3, 1), "gamma_hat_many": (4, 2),
             "check_train_track": (5, 2)}
    calls = Counter()

    def spy(name):
        fn = getattr(automorphisms, name)

        def counted(arg):
            calls[name] += len(arg) if name == "gamma_hat_many" else 1
            return fn(arg)
        return counted

    for name in spied:
        monkeypatch.setattr(automorphisms, name, spy(name))
    patched = run("patched.tsv")
    assert len(patched) == len(plain) == 12
    for trial in range(10):
        line = plain[trial + 1]
        if trial == failing:
            assert patched[trial + 1] == "\t".join(
                line.split("\t")[:2] + ["ERROR"] * 5)
        else:
            assert patched[trial + 1] == line
    fails_at = list(STAGE_KEYS).index(stage)
    assert calls == {name: per_trial * (10 - (at > fails_at))
                     for name, (at, per_trial) in spied.items()}


GOLDEN = Path(__file__).parent / "data"


def _experiment_rows(text):
    lines = text.splitlines()
    assert lines[0] == "trial\taut\tlambda\tmu\tratio\tfolds\tcertified"
    assert lines[-1].startswith("# max_ratio\t")
    return [line.split("\t") for line in lines[1:-1]], lines[-1].split("\t")[1]


def _same_number(got, want):
    if "NA" in (got, want):
        return got == want
    return math.isclose(float(got), float(want), rel_tol=1e-9)


@pytest.mark.parametrize("name,argv", [
    ("experiment_r3_L10_s1.tsv", ["--rank", "3", "--length", "10",
                                  "--trials", "50", "--seed", "1"]),
    ("experiment_r4_L30_s2.tsv", ["--rank", "4", "--length", "30",
                                  "--trials", "10", "--seed", "2"]),
    # the rank-6 ensemble that CI runs on the experiment path
    ("experiment_r6_L60_s1.tsv", ["--rank", "6", "--length", "60",
                                  "--trials", "50", "--seed", "1"]),
])
def test_experiment_matches_golden(tmp_path, name, argv):
    """trial, aut, folds and certified as recorded; lambda, mu, ratio and
    max_ratio to a relative 1e-9."""
    from foldtrack import cli
    out = tmp_path / name
    assert cli.main(["experiment", *argv, "--out", str(out)]) == 0
    rows, max_ratio = _experiment_rows(out.read_text())
    want_rows, want_max = _experiment_rows((GOLDEN / name).read_text())
    assert len(rows) == len(want_rows)
    for row, want in zip(rows, want_rows):
        assert row[:2] + row[5:] == want[:2] + want[5:]
        assert all(map(_same_number, row[2:5], want[2:5])), (row, want)
    assert _same_number(max_ratio, want_max)


def test_metric_word_past_length_cap_exit_2(tmp_path):
    """The difference map between two roses twisted 10^4 times in opposite
    petals has an edge image of about 10^8 letters: refused up front."""
    from foldtrack.graph import dump_graph, make_graph
    m = 10_000
    rose = [(0, 0)] * 2
    g = make_graph(1, rose, basepoint=0, marking=[(1,), (2,) + (1,) * m])
    h = make_graph(1, rose, basepoint=0, marking=[(1,) + (2,) * m, (2,)])
    g_path, h_path = tmp_path / "g.json", tmp_path / "h.json"
    dump_graph(g, g_path)
    dump_graph(h, h_path)
    proc = run_cli("metric", str(g_path), str(h_path))
    assert proc.returncode == 2
    assert "error: substitution would build a" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_audit_command(tmp_path):
    out = tmp_path / "audit.json"
    proc = run_cli("audit", "--trials", "50", "--seed", "3", "--out", str(out))
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert all(not s["failures"] for s in data["suites"])


def test_metric_command(tmp_path):
    from foldtrack.graph import dump_graph
    from foldtrack.metric import twist_family
    g0, gm = twist_family(2, 10)
    p0 = tmp_path / "g0.json"
    pm = tmp_path / "gm.json"
    dump_graph(g0, p0)
    dump_graph(gm, pm)
    proc = run_cli("metric", str(p0), str(pm))
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "src\tdst\td_upper\twitness_total_length\tmethod"
    assert len(lines) == 3
    fields = lines[1].split("\t")
    assert fields[3] == "12"


def test_metric_inverts_each_marking_once(monkeypatch, capsys, tmp_path):
    """`metric` on 4 graphs, one with a nonempty spanning tree, prints the
    12 ordered pairs that estimate_d gives and inverts each marking once."""
    from foldtrack import cli, metric
    from foldtrack.graph import dump_graph, make_graph
    from foldtrack.metric import estimate_d, twist_family
    g0, g10 = twist_family(2, 10)
    theta = make_graph(2, [(0, 1)] * 3, basepoint=0,
                       marking=[(1, -2), (2, -3, 1, -2)])
    graphs = [g0, g10, twist_family(2, 3)[1], theta]
    paths = []
    for i, g in enumerate(graphs):
        paths.append(str(tmp_path / ("g%d.json" % i)))
        dump_graph(g, paths[-1])
    inversions = []
    invert = metric._invert_reduced

    def counted(words):
        inversions.append(tuple(words))
        return invert(words)

    monkeypatch.setattr(metric, "_invert_reduced", counted)
    assert cli.main(["metric", *paths]) == 0
    out, err = capsys.readouterr()
    assert len(inversions) == 4
    want = ["src\tdst\td_upper\twitness_total_length\tmethod"]
    for i, gi in enumerate(graphs):
        for j, gj in enumerate(graphs):
            if i != j:
                est = estimate_d(gi, gj)
                want.append("%s\t%s\t%.12g\t%d\t%s" % (
                    paths[i], paths[j], est.value, est.total_edge_length,
                    est.method))
    assert out.splitlines() == want
    assert err == ""


def test_metric_reads_each_twist_letter_without_a_type_pass(monkeypatch,
                                                           tmp_path):
    """`metric` on two twist files, as the benchmark writes them: the
    decoder proves every letter an int, and each path's letter set proves
    it reduced, so no marking path goes through _all_ints or
    reduce_word.  The loader searches the text for true (false) only when
    it holds a u (an l): files with those letters give the graph
    graph_from_json gives, and letters true and false still go through
    the type pass."""
    from foldtrack import cli, graph, words
    from foldtrack.errors import StructuralError
    markings = ([[1], [2]], [[1], [2] + [-1] * 100])
    paths = []
    for i, marking in enumerate(markings):
        paths.append(str(tmp_path / ("g%d.json" % i)))
        Path(paths[-1]).write_text(json.dumps({
            "rank": 2, "vertices": [0], "basepoint": 0,
            "edges": [{"id": e, "from": 0, "to": 0} for e in (1, 2)],
            "marking": marking}))
    read = []
    for module, name in ((graph, "_all_ints"), (graph, "reduce_word"),
                         (words, "reduce_word")):
        def counted(seq, _f=getattr(module, name)):
            read.append(tuple(seq))
            return _f(seq)
        monkeypatch.setattr(module, name, counted)
    assert cli.main(["metric", *paths, "--out", str(tmp_path / "d.tsv")]) == 0
    marking_paths = {tuple(p) for marking in markings for p in marking}
    assert marking_paths.isdisjoint(read)

    def outcome(read_graph, arg):
        try:
            return read_graph(arg)
        except StructuralError as exc:
            return str(exc)

    rose = {"rank": 2, "vertices": [0], "basepoint": 0,
            "edges": [{"id": e, "from": 0, "to": 0} for e in (1, 2)]}
    cases = [  # (file, whether its marking goes through the type pass)
        (dict(rose, marking=[[True], [2, -1, -1]]), True),
        (dict(rose, marking=[[1], [2, False]]), True),
        (dict(rose, marking=[[1], [2, 1, 1]], filtration=[[1], [1, 2]]),
         False),
        (dict(rose, marking=[[1], [2, 1, 1, 1]], vertices=["hub_l"],
              basepoint="hub_l",
              edges=[{"id": e, "from": "hub_l", "to": "hub_l"}
                     for e in (1, 2)]), False),
    ]
    for i, (data, typed) in enumerate(cases):
        path = tmp_path / ("x%d.json" % i)
        path.write_text(json.dumps(data))
        with open(path, encoding="utf-8") as fh:
            want = outcome(graph.graph_from_json, json.load(fh))
        read.clear()
        assert outcome(graph.load_graph, path) == want
        assert (tuple(data["marking"][1]) in read) == typed


def test_metric_reads_and_writes_utf8_in_the_c_locale(tmp_path):
    """With the C locale, locale coercion and UTF-8 mode off, the locale's
    encoding is ASCII: graph files are still read as UTF-8, and --out
    holds the non-ASCII path as it was given."""
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0")
    base = os.fsencode(tmp_path)
    g0, gm, out = base + b"/g0.json", base + "/gé.json".encode(), \
        base + b"/out.tsv"
    for path, marking in ((g0, [[1], [2]]), (gm, [[1], [2, 1, 1]])):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"rank": 2, "vertices": ["é"], "basepoint": "é",
                       "edges": [{"id": e, "from": "é", "to": "é"}
                                 for e in (1, 2)],
                       "marking": marking}, fh, ensure_ascii=False)
    proc = subprocess.run([sys.executable, "-m", "foldtrack", "metric", g0,
                           gm, "--out", out], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    with open(out, "rb") as fh:
        rows = [row.split(b"\t") for row in fh.read().splitlines()]
    assert [row[:2] for row in rows[1:]] == [[g0, gm], [gm, g0]]
    assert rows[1][3] == b"4"


def test_metric_on_markings_that_are_no_basis(capsys, tmp_path):
    """A marking that is not a basis is inverted only when a pair reads
    it: one such graph has no pair, two such graphs are refused."""
    from foldtrack import cli
    from foldtrack.graph import dump_graph, make_graph
    paths = []
    for i, petal in enumerate(((1, 1), (2, 2))):
        paths.append(str(tmp_path / ("g%d.json" % i)))
        dump_graph(make_graph(1, [(0, 0)] * 2, basepoint=0,
                              marking=[petal, (2, 1)]), paths[-1])
    assert cli.main(["metric", paths[0]]) == 0
    assert capsys.readouterr() == (
        "src\tdst\td_upper\twitness_total_length\tmethod\n", "")
    assert cli.main(["metric", *paths]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: images do not generate a free basis")


def test_main_reuses_one_parser(monkeypatch, capsys, tmp_path):
    """In-process `cli.main` calls, a rejected argv and --help among them,
    build the parser once and print what a fresh process prints."""
    from foldtrack import cli
    from foldtrack.graph import dump_graph
    from foldtrack.metric import twist_family
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the same width
    paths = []
    for i, g in enumerate(twist_family(2, 10)):
        paths.append(str(tmp_path / ("g%d.json" % i)))
        dump_graph(g, paths[-1])
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for argv, code in [
        (["metric", *paths], 0),
        (["experiment", "--rank", "3", "--length", "10", "--trials", "5",
          "--seed", "1", "--jobs", "1"], 0),
        (["spectrum", "a->ab, b->a"], 0),
        (["experiment", "--rank", "x"], 2),
        (["metric", "--help"], 0),
        (["metric", *paths], 0),
    ]:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "foldtrack", *argv],
                               capture_output=True)
        assert rc == code == fresh.returncode, argv
        assert (out.encode(), err.encode()) == (fresh.stdout, fresh.stderr), argv
    assert len(builds) == 1


def test_import_builds_no_parser():
    probe = (
        "import argparse\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *a, **k):\n"
        "    made.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import foldtrack.cli as cli\n"
        "print(len(made))\n"
        "cli._parser()\n"
        "print(len(made) > 0)\n")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True"]


def test_numeric_stack_loads_only_where_a_command_computes(tmp_path):
    """In a fresh process (pytest's own already holds numpy): importing the
    CLI loads no library layer, neither numpy nor the process pool; `metric`
    loads the graph, word, graph-map and metric layers and no automorphism,
    folding or spectra layer; `metric` and both forms of `invert` run
    without numpy, and `spectrum` loads it."""
    from foldtrack.graph import dump_graph
    from foldtrack.metric import twist_family
    paths = [tmp_path / "g0.json", tmp_path / "gm.json"]
    for g, path in zip(twist_family(2, 10), paths):
        dump_graph(g, path)
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(_fib_map_json()))
    probe = (
        "import contextlib, io, json, sys\n"
        "heavy = ('numpy', 'multiprocessing', 'concurrent.futures.process')\n"
        "def loaded():\n"
        "    return [m for m in heavy if m in sys.modules]\n"
        "def layers():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[0] == 'foldtrack')\n"
        "import foldtrack.cli as cli\n"
        "report = {'import': loaded(), 'modules': layers()}\n"
        "def run(*argv):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert cli.main(list(argv)) == 0, argv\n"
        "    return out.getvalue()\n"
        "g0, gm, fmap, dump = sys.argv[1:]\n"
        "run('metric', g0, gm)\n"
        "report['metric_modules'] = layers()\n"
        "run('invert', 'a->ab, b->a', '--out', dump)\n"
        "run('invert', fmap)\n"
        "report['metric_invert'] = loaded()\n"
        "report['spectrum'] = json.loads(run('spectrum', 'a->ab, b->a'))\n"
        "report['after_spectrum'] = loaded()\n"
        "print(json.dumps(report))\n")
    proc = subprocess.run(
        [sys.executable, "-c", probe, *map(str, paths), str(map_path),
         str(tmp_path / "dump.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["import"] == []
    assert report["modules"] == ["foldtrack", "foldtrack.cli",
                                 "foldtrack.errors"]
    assert report["metric_modules"] == sorted(
        report["modules"] + ["foldtrack." + m for m in
                             ("graph", "graph_map", "metric", "words")])
    assert report["metric_invert"] == []
    assert "numpy" in report["after_spectrum"]
    assert abs(report["spectrum"]["gamma_hat"][0]["lambda"] - 1.6180339887) < 1e-8
    assert report["spectrum"]["certified"] is True


def test_input_error_printed_once():
    proc = run_cli("spectrum", "a->aa, b->b")
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: images do not define an automorphism: a->aa, b->b\n")


def _run_with_log(level, *args):
    env = dict(os.environ, FOLDTRACK_LOG=level)
    return subprocess.run([sys.executable, "-m", "foldtrack", *args],
                          capture_output=True, text=True, env=env)


def test_log_level_must_be_a_level_name():
    plain = run_cli("spectrum", "a->ab, b->a")
    proc = _run_with_log("BASIC_FORMAT", "spectrum", "a->ab, b->a")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == plain.stdout
    assert proc.stderr == ""


def test_log_level_debug_shows_diagnostics_and_error_origin():
    proc = _run_with_log("debug", "ratio", "a->ab, b->a")
    assert proc.returncode == 0
    assert "DEBUG foldtrack" in proc.stderr
    proc = _run_with_log("debug", "spectrum", "a->aa, b->b")
    assert proc.returncode == 2
    assert "Traceback" in proc.stderr and "parse_automorphism" in proc.stderr
    assert proc.stderr.endswith(
        "error: images do not define an automorphism: a->aa, b->b\n")

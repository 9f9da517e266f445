#!/usr/bin/env python3
"""foldtrack benchmark: one workload, one seed, one closed-loop client.

Run from the root of a foldtrack checkout:

    python3 perfbench/run.py --workload ensemble_r3 --seed 1 --seconds 60 --trace 0

A run draws one set of distinct ops from the seed and repeats it in passes
until the run length is spent.  Each pass is a fresh child process
(perfbench/worker.py) under an address-space cap, driving
`foldtrack.cli.main(argv)` in-process, one op at a time, after one untimed
warm-up op.  Every op's output is checked by perfbench/checks.py afterwards.
With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 one untraced pass is followed by a traced replay of
the same ops, and the JSON carries the per-layer metrics of
perfbench/layertrace.py.  The lines before it are a
human-readable report.  Exit code 2 means the benchmark could not run.
"""

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

import numpy

from layertrace import LAYER_METRICS
from workloads import WORKLOADS, make_ops

HERE = os.path.dirname(os.path.abspath(__file__))

ADDRESS_SPACE_BYTES = 2 * 1024 ** 3
SETUP_STARTS = 9          # worker starts before the passes; setup_s is the
                          # median over these and the start of every pass
READY_TIMEOUT_S = 60.0
KILL_GRACE_S = 20.0       # beyond run length + one op limit, then kill
TAIL_BEYOND = 10          # ops that must lie beyond the tail percentile
FAST_QUANTILE = 0.0025    # quantile of op runs taken as the run's fast phases
MIN_RUNS = 3              # runs of an op before they show the host's speed

END_TO_END = [
    ("ok_ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]


class BenchError(Exception):
    """The benchmark itself cannot run (no checkout, worker did not start)."""


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

def op_latencies(records, limit_s):
    """Latency per op in seconds.  A failed op counts at the per-op limit, or
    at its own time when that was longer, so turning a failure into a success
    can never worsen a latency percentile."""
    return [r["latency_s"] if r["ok"] else max(r["latency_s"], limit_s)
            for r in records]


def tail_percentile(latencies):
    """(value, percentile) at the highest percentile with at least
    TAIL_BEYOND ops beyond it; the maximum when there are too few ops."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n


def fast_phase_ratio(tries):
    """Speed of a run's fast phases, as a ratio of op latency to the median
    latency of the same op: the FAST_QUANTILE quantile of that ratio over the
    runs of every op that ran at least MIN_RUNS times, or 1 without such an
    op."""
    ratios = []
    for lats in tries:
        if len(lats) >= MIN_RUNS:
            med = statistics.median(lats)
            ratios += [x / med for x in lats]
    if not ratios:
        return 1.0
    ratios.sort()
    return ratios[int(FAST_QUANTILE * len(ratios))]


def summarize(records, limit_s):
    """End-to-end figures of one untraced run (setup and memory excluded).

    The machine's speed changes in phases of one or two seconds as other
    tenants load the host: the same op runs up to twice as slow in one phase
    as in another, and the fast phases cover from a few percent to most of
    a run.  Each op of the set runs once per pass and the passes fill the
    run, so every op meets the phases alike, and an op's latency over the
    median of its own runs is the host's speed at that moment.  Each ok op's
    latency is the median of its runs scaled by fast_phase_ratio: its cost
    in the run's fast phases.  The median, the tail and the rate are taken
    over these per-op latencies; the rate is ok ops per second of one pass
    at them.  An op that failed in any pass is a failed op at its slowest
    failed latency, unscaled.  Warm-up records (op -1) count as attempts
    only."""
    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    tries = {}
    for r, lat in zip(records, op_latencies(records, limit_s)):
        if r["op"] >= 0:
            tries.setdefault(r["op"], []).append((r["ok"], lat))
    good = [[lat for _, lat in ts] for ts in tries.values() if all(ok for ok, _ in ts)]
    bad = [max(lat for ok, lat in ts if not ok) for ts in tries.values()
           if not all(ok for ok, _ in ts)]
    ratio = fast_phase_ratio(good)
    lat = [ratio * statistics.median(lats) for lats in good] + bad
    tail, pct = tail_percentile(lat)
    return {
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "ops": len(lat),
        "passes": max(r["pass"] for r in records) + 1,
        "fast_ratio": ratio,
        "ok_ops_per_s": len(good) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail,
        "tail_pct": pct,
    }


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _spawn(root, workdir, cfg, tag):
    cfg_path = os.path.join(workdir, "%s.cfg.json" % tag)
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("FOLDTRACK_LOG", None)
    err = open(os.path.join(workdir, "%s.stderr" % tag), "w")
    t0 = time.perf_counter()
    try:
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), cfg_path],
                                stdout=subprocess.PIPE, stderr=err, cwd=root, env=env)
    finally:
        err.close()
    return proc, t0


def _await_ready(proc, t0, root):
    """Seconds from spawn until the worker imported foldtrack.cli."""
    ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline().decode() if ready else ""
    t_ready = time.perf_counter() - t0
    if not line.startswith("ready "):
        _reap(proc, 0.0)
        raise BenchError("worker did not start (exit %s)" % proc.returncode)
    src = os.path.join(root, "src") + os.sep
    if not line.split(" ", 1)[1].strip().startswith(src):
        _reap(proc, 0.0)
        raise BenchError("worker imported foldtrack from outside %s" % src)
    return t_ready


def _reap(proc, timeout_s):
    """Wait up to `timeout_s` for the child, kill it after that; returns
    (exit status, killed, peak RSS in MiB) from the child's own rusage."""
    deadline = time.perf_counter() + timeout_s
    killed = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() >= deadline:
            proc.kill()
            killed = True
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return proc.returncode, killed, usage.ru_maxrss / 1024.0


def measure_setup(root, workdir):
    """Seconds of several fresh worker starts up to `import foldtrack.cli`."""
    samples = []
    for k in range(SETUP_STARTS):
        proc, t0 = _spawn(root, workdir, {"address_space_bytes": ADDRESS_SPACE_BYTES},
                          "probe%d" % k)
        samples.append(_await_ready(proc, t0, root))
        _reap(proc, READY_TIMEOUT_S)
    return samples


def run_worker(root, workdir, ops_path, workload, tag, kill_after_s, seconds=None,
               max_ops=None, trace=False):
    """One workload process, killed if it runs `kill_after_s` past ready;
    returns its op records, summary, peak RSS, spans path and seconds from
    spawn until it was ready.  The op in
    flight when a worker dies counts as one failed op."""
    cfg = {
        "address_space_bytes": ADDRESS_SPACE_BYTES,
        "ops": ops_path,
        "records": os.path.join(workdir, "%s.records.jsonl" % tag),
        "summary": os.path.join(workdir, "%s.summary.json" % tag),
        "spans": os.path.join(workdir, "%s.spans.tsv" % tag),
        "seconds": seconds,
        "max_ops": max_ops,
        "op_limit_s": workload.op_limit_s,
        "trace": trace,
    }
    proc, t0 = _spawn(root, workdir, cfg, tag)
    ready_s = _await_ready(proc, t0, root)
    t_start = time.perf_counter()
    status, killed, rss_mb = _reap(proc, kill_after_s)
    elapsed = time.perf_counter() - t_start
    records = []
    if os.path.exists(cfg["records"]):
        with open(cfg["records"]) as fh:
            records = [json.loads(line) for line in fh if line.endswith("\n")]
    summary = None
    if os.path.exists(cfg["summary"]):
        with open(cfg["summary"]) as fh:
            summary = json.load(fh)
    if summary is None:
        # The worker died mid-op (killed, or out of memory outside Python):
        # the op in flight is a failed op.
        end_s = max([elapsed] + [r["end_s"] for r in records])
        records.append({"i": len(records), "status": "killed", "rc": status,
                        "end_s": end_s,
                        "latency_s": end_s - (records[-1]["end_s"] if records else 0.0),
                        "detail": "worker %s with status %s" % (
                            "killed" if killed else "died", status), "out": None})
        summary = {}
    return records, summary, rss_mb, cfg["spans"], ready_s


def check_records(workload, ops, records):
    """Mark each record ok or not; returns the number of wrong outputs."""
    wrong = 0
    for r in records:
        r["ok"] = r["status"] == "ok"
        if not r["ok"]:
            continue
        try:
            err = workload.check(ops[r["i"]], r["out"]) if r["out"] is not None \
                else "no output written"
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            err = "unreadable output: %s" % exc
        if err is not None:
            r["ok"] = False
            r["status"], r["detail"] = "wrong", err
            wrong += 1
    return wrong


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _machine():
    return "nproc %d, Python %s, numpy %s, %s" % (
        os.cpu_count() or 0, platform.python_version(), numpy.__version__,
        platform.machine())


def _report_failures(records):
    by_status = {}
    for r in records:
        if not r["ok"]:
            by_status.setdefault(r["status"], []).append(r)
    for status, rs in sorted(by_status.items()):
        # record i runs line i of the ops file, whose line 0 is the warm-up op
        first = "the warm-up op" if rs[0]["i"] == 0 else "op %d" % (rs[0]["i"] - 1)
        print("  failed %-8s %d op run(s), first: %s, %s" % (
            status, len(rs), first, rs[0]["detail"]))


def _write_ops(workdir, ops):
    path = os.path.join(workdir, "ops.jsonl")
    with open(path, "w") as fh:
        for op in ops:
            fh.write(json.dumps({"argv": op["argv"], "out": op["out"]}) + "\n")
    return path


def _end_to_end(root, workdir, seq, workload, seconds):
    """Untraced passes over `seq` (warm-up op, then the set) until `seconds`
    are spent: (metrics, units, records, wrong outputs)."""
    starts = measure_setup(root, workdir)
    ops_path = _write_ops(workdir, seq)
    records, rss_mb = [], 0.0
    t_end = time.perf_counter() + seconds
    passes = 0
    while time.perf_counter() < t_end:
        left = t_end - time.perf_counter()
        recs, _, rss, _, ready_s = run_worker(
            root, workdir, ops_path, workload, "pass%d" % passes,
            left + workload.op_limit_s + KILL_GRACE_S, seconds=left)
        for r in recs:
            r["op"], r["pass"] = r["i"] - 1, passes
        records += recs
        rss_mb = max(rss_mb, rss)
        starts.append(ready_s)
        passes += 1
    if not any(r["op"] >= 0 for r in records):
        raise BenchError("no op of the set ran within %g s" % seconds)
    wrong = check_records(workload, seq, records)
    s = summarize(records, workload.op_limit_s)
    metrics = {"ok_ops_per_s": s["ok_ops_per_s"], "op_p50_ms": s["op_p50_ms"],
               "op_tail_ms": s["op_tail_ms"], "setup_s": statistics.median(starts),
               "peak_rss_mb": rss_mb}
    units = dict(END_TO_END)
    notes = {"op_tail_ms": "p%.1f of %d ops" % (s["tail_pct"], s["ops"]),
             "setup_s": "median of %d starts" % len(starts)}
    for name, value in metrics.items():
        print("  %-14s %14.6f %-4s %s" % (name, value, units[name], notes.get(name, "")))
    print("  %-14s %14.6f %-5s %d of %d op runs" % (
        "fail_share", s["fail_share"], "share", s["failed"], s["attempted"]))
    print("  %d distinct ops, %d passes; rate and latencies are each op's median "
          "run scaled by %.4f, the fast-phase ratio" % (s["ops"], s["passes"], s["fast_ratio"]))
    return metrics, units, records, wrong


def _per_layer(root, workdir, seq, workload, seconds, spans_dest):
    """One untraced pass over `seq`, then a traced replay of the same ops,
    each cut at half the run length: (metrics, units, traced records, wrong
    outputs)."""
    ops_path = _write_ops(workdir, seq)
    grace = workload.op_limit_s + KILL_GRACE_S
    base_recs, _, _, _, _ = run_worker(root, workdir, ops_path, workload, "untraced",
                                    seconds / 2 + grace, seconds=seconds / 2)
    # The replay takes longer than the untraced pass by the tracing
    # overhead; three times as long means something hangs.
    records, summary, _, spans, _ = run_worker(root, workdir, ops_path, workload, "traced",
                                            1.5 * seconds + grace,
                                            max_ops=len(base_recs), trace=True)
    wrong = check_records(workload, seq, base_recs) + check_records(workload, seq, records)
    shared = min(len(base_recs), len(records))
    t_base = sum(r["latency_s"] for r in base_recs[:shared])
    t_traced = sum(r["latency_s"] for r in records[:shared])
    layers = dict.fromkeys((n for n, _, _ in LAYER_METRICS), 0)
    layers.update(summary.get("layers", {}))
    layers["trace.overhead_share"] = t_traced / t_base - 1 if t_base > 0 else 0.0
    for name in summary.get("absent", []):
        print("  absent: %s is not defined by the program; its metrics read 0" % name)
    self_names = [n for n in layers if n.endswith(".self_s")]
    by_module = {}
    for name in self_names:
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + layers[name]
    print("  self time by module: " + ", ".join(
        "%s %.3f s" % kv for kv in sorted(by_module.items(), key=lambda kv: -kv[1])))
    inclusive = summary.get("inclusive_s", {})
    for name in sorted(self_names, key=lambda n: -layers[n])[:8]:
        print("  %-40s self %9.4f s, inclusive %9.4f s" % (
            name, layers[name], inclusive.get(name[:-len(".self_s")], 0.0)))
    below_cli = sorted((kv for kv in inclusive.items() if kv[0] != "cli.main"),
                       key=lambda kv: -kv[1])
    print("  largest inclusive below cli.main: " + ", ".join(
        "%s %.3f s" % kv for kv in below_cli[:4]))
    if os.path.exists(spans):
        os.makedirs(os.path.dirname(spans_dest), exist_ok=True)
        shutil.move(spans, spans_dest)
    return layers, {n: u for n, u, _ in LAYER_METRICS}, records, wrong


def run(workload_name, seed, seconds, trace, root):
    """One benchmark run; returns the JSON result object."""
    if not os.path.isfile(os.path.join(root, "src", "foldtrack", "cli.py")):
        raise BenchError("no foldtrack source at %s" % os.path.join(root, "src"))
    workload = WORKLOADS[workload_name]
    base = os.path.join(root, ".perfbench")
    workdir = os.path.join(base, "%s-seed%d-pid%d" % (workload_name, seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        warmup, ops = make_ops(workload, seed, workdir)
        seq = [warmup] + ops
        print("workload %s, seed %d, %g s, per-op limit %g s, trace %d (%s)" % (
            workload_name, seed, seconds, workload.op_limit_s, trace, _machine()))
        if trace:
            metrics, units, records, wrong = _per_layer(
                root, workdir, seq, workload, seconds,
                os.path.join(base, "spans", "%s-seed%d.tsv" % (workload_name, seed)))
        else:
            metrics, units, records, wrong = _end_to_end(
                root, workdir, seq, workload, seconds)
        _report_failures(records)
        print("  checks: %d outputs checked, %d wrong" % (
            sum(1 for r in records if r["status"] in ("ok", "wrong")), wrong))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise BenchError("metric %s is not finite" % name)
    return {
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": sum(1 for r in records if not r["ok"]),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, os.getcwd())
    except BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

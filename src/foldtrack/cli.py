"""Command-line frontend.

Commands: spectrum, invert, ratio, experiment, audit, metric.
Exit codes: 0 success, 2 input/certification error or an input too large
to process, 3 internal invariant violation (a lemma inequality failing is a
bug, not a data condition).
Set FOLDTRACK_LOG=DEBUG for diagnostics.

Each command imports the layers and numpy where it first computes with
them, not here, so importing this module loads only the standard library
and `errors`.  `metric` loads the graph, word, graph-map and metric layers
and never the automorphism, folding or spectra layers; `spectrum`, `ratio`,
`experiment` and `audit` load numpy for eigenvalues, the growth cross-check
and the experiment's Philox streams; `metric` and `invert` never do.  The
process pool loads only for `experiment --jobs` above 1.
"""

import argparse
import functools
import json
import logging
import os
import sys
from concurrent import futures

from .errors import CapacityError, CertificationError, FoldtrackError, StructuralError

log = logging.getLogger("foldtrack")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INVARIANT = 3


def _setup_logging():
    # only a level name counts: logging also has attributes like BASIC_FORMAT
    level = logging.getLevelName(os.environ.get("FOLDTRACK_LOG", "WARNING").upper())
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _fmt(x):
    if x is None:
        return "NA"
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


def _emit(text, out=None):
    """Write text to the --out file, as UTF-8, or to stdout.  A path
    argument that the locale could not decode is written back as the bytes
    it was given as (Python keeps them as surrogate escapes)."""
    if out:
        with open(out, "w", encoding="utf-8", errors="surrogateescape") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(data, out=None):
    _emit(json.dumps(data, indent=1, sort_keys=True) + "\n", out)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_spectrum(args):
    from .automorphisms import (
        check_train_track, normalize_outer, parse_automorphism,
        rose_representative,
    )
    from .spectra import gamma_hat, spectrum_report
    aut = parse_automorphism(args.automorphism)
    f = rose_representative(normalize_outer(aut))
    report = spectrum_report(gamma_hat(f), certified=check_train_track(f))
    _emit_json(report, args.out)
    return EXIT_OK


def _factorization_dump(fact):
    from .graph import graph_to_json
    stages = []
    for i, record in enumerate(fact.records, start=1):
        stages.append({
            "stage": i,
            "case": record.case,
            "folded_edges": [record.spec.d1, record.spec.d2],
            "vertex": record.spec.vertex,
            "new_graph": graph_to_json(record.graph_star),
            "quotient_edge_map": {str(e): list(p) for e, p in
                                  enumerate(record.quotient.edge_map, start=1)},
            "inverse_edge_map": {str(e): list(p) for e, p in
                                 enumerate(record.inverse.edge_map, start=1)},
            "flags": list(record.flags),
        })
    return stages


def cmd_invert(args):
    from .automorphisms import fold_inverse, format_automorphism, parse_automorphism
    from .folding import clean_factorize, controlled_inverse, inverse_stats
    from .graph_map import map_from_json, map_to_json
    if os.path.exists(args.input):
        with open(args.input, encoding="utf-8") as fh:
            f = map_from_json(json.load(fh))
        fact = clean_factorize(f)
        g = controlled_inverse(fact)
        stats = inverse_stats(fact, g)
        payload = {"inverse_map": map_to_json(g)}
    else:
        aut = parse_automorphism(args.input)
        inv, fact, stats = fold_inverse(aut)
        payload = {"inverse": format_automorphism(inv)}
        sys.stdout.write(format_automorphism(inv) + "\n")
    if args.out:
        # the dump reads every stage's graph, so it is built only when written
        payload.update({
            "fold_count": fact.fold_count,
            "inverse_lc": stats.lc,
            "stage_lcs": list(stats.stage_lcs),
            "lc_product_bound_ok": stats.within_bound,
            "clean_outcome": fact.clean_outcome,
            "clean_steps": fact.clean_steps,
            "factorization": _factorization_dump(fact),
        })
        _emit_json(payload, args.out)
    if not stats.within_bound:
        log.error("controlled inverse exceeded the LC product bound")
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_ratio(args):
    from .automorphisms import expansion_report, parse_automorphism
    aut = parse_automorphism(args.automorphism)
    report = expansion_report(aut, k_max=args.kmax)
    _emit_json(report, args.out)
    return EXIT_OK


# Trials per call of expansion_pairs, and at most per pool task.
# expansion_pairs runs stage by stage, each stage over every trial of the
# chunk that no earlier stage stopped; an error stays in its trial's row.
# 16 is enough to batch each stage, few enough to keep memory flat for any
# --trials.
EXPERIMENT_CHUNK = 16


def _experiment_chunk(params):
    """Result tuples of trials start..stop-1: every automorphism is drawn
    from its trial's own Philox stream first, then expansion_pairs runs on
    the whole chunk."""
    from .automorphisms import expansion_pairs, format_automorphism, trial_automorphisms
    seed, start, stop, rank, length = params
    auts = trial_automorphisms(rank, length, seed, range(start, stop))
    rows = []
    for trial, aut, pair in zip(range(start, stop), auts, expansion_pairs(auts)):
        text = format_automorphism(aut)
        if isinstance(pair, FoldtrackError):
            rows.append((trial, text, None, None, None, None, None, str(pair)))
        else:
            rows.append((trial, text, pair.lam, pair.mu, pair.ratio,
                         pair.factorization.fold_count,
                         pair.certified and pair.inverse_certified, None))
    return rows


def _check_nonnegative(args, *flags):
    for flag in flags:
        if getattr(args, flag) < 0:
            raise ValueError("--%s must be nonnegative" % flag)


def cmd_experiment(args):
    if not 1 <= args.rank <= 26:
        raise ValueError("--rank must be in 1..26: generators are the letters a..z")
    _check_nonnegative(args, "trials", "length")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    # a worker per trial at most, and no more than the machine has cores
    workers = min(args.jobs, args.trials, os.cpu_count() or 1)
    # contiguous chunks of trials, at least one per worker
    size = min(EXPERIMENT_CHUNK, -(-args.trials // workers)) if workers else 1
    chunks = [(args.seed, start, min(start + size, args.trials), args.rank,
               args.length) for start in range(0, args.trials, size)]
    if workers > 1:
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = [row for rows in pool.map(_experiment_chunk, chunks)
                       for row in rows]
    else:
        results = [row for chunk in chunks for row in _experiment_chunk(chunk)]
    lines = ["trial\taut\tlambda\tmu\tratio\tfolds\tcertified"]
    max_ratio = None
    for trial, text, lam, mu, ratio, folds, certified, err in results:
        if err is not None:
            log.warning("trial %d failed: %s", trial, err)
            lines.append("%d\t%s\tERROR\tERROR\tERROR\tERROR\tERROR" % (trial, text))
            continue
        lines.append("\t".join([
            str(trial), text, _fmt(lam), _fmt(mu), _fmt(ratio),
            _fmt(folds), str(bool(certified)).lower(),
        ]))
        if ratio is not None and (max_ratio is None or ratio > max_ratio):
            max_ratio = ratio
    lines.append("# max_ratio\t%s" % _fmt(max_ratio))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_audit(args):
    from .audits import (
        gates_suite, largest_bounds_suite, matrix_pair_suite, pg_suite,
        reducibility_agreement_suite, twist_metric_rows,
    )
    from .graph import load_graph
    _check_nonnegative(args, "trials", "budget")
    failures = 0
    suites = [
        matrix_pair_suite(trials=args.trials, seed=args.seed),
        largest_bounds_suite(trials=max(args.trials // 5, 20), seed=args.seed),
        gates_suite(trials=max(args.trials // 5, 20), seed=args.seed),
        pg_suite(trials=max(args.trials // 20, 10), seed=args.seed),
    ]
    try:
        suites.append(reducibility_agreement_suite(budget=args.budget))
    except CapacityError as exc:
        log.warning("reducibility suite skipped: %s", exc)
    report = {"suites": []}
    for suite in suites:
        report["suites"].append({
            "name": suite.name,
            "checked": suite.checked,
            "failures": [list(map(str, f)) for f in suite.failures],
        })
        failures += len(suite.failures)
    report["twist_metric"] = twist_metric_rows()
    for row in report["twist_metric"]:
        if abs(row["d_forward"] - row["log_total"]) > 1e-9:
            failures += 1
        if row["asymmetry"] > 2.0:
            failures += 1
    for path in args.graphs:
        try:
            g = load_graph(path)
            report.setdefault("graphs", []).append(
                {"path": path, "rank": g.rank, "edges": g.num_edges})
        except (OSError, StructuralError, ValueError) as exc:
            log.warning("graph %s skipped: %s", path, exc)
    _emit_json(report, args.out)
    return EXIT_INVARIANT if failures else EXIT_OK


def cmd_metric(args):
    from .graph import load_graph
    from .metric import _estimates
    graphs = [load_graph(p) for p in args.graphs]
    lines = ["src\tdst\td_upper\twitness_total_length\tmethod"]
    for i, j, est in _estimates(graphs):
        lines.append("\t".join([
            args.graphs[i], args.graphs[j], _fmt(est.value),
            str(est.total_edge_length), est.method,
        ]))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="foldtrack",
        description="Outer automorphisms as marked-graph maps: folds, "
                    "controlled inverses, expansion spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="expansion spectrum of an automorphism")
    p.add_argument("automorphism", help='e.g. "a->ab, b->a"')
    p.add_argument("--out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("invert", help="controlled inverse via fold factorization")
    p.add_argument("input", help="automorphism text or a map JSON file")
    p.add_argument("--out", help="write the factorization dump JSON here")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("ratio", help="expansion factors of an automorphism and its inverse")
    p.add_argument("automorphism")
    p.add_argument("--kmax", type=int, default=40)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("experiment", help="seeded random-automorphism ensemble (TSV)")
    p.add_argument("--rank", type=int, default=3)
    p.add_argument("--length", type=int, default=10)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("audit", help="lemma property suites and metric audits")
    p.add_argument("graphs", nargs="*", help="optional graph JSON files")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("metric", help="pairwise quasi-metric upper bounds (TSV)")
    p.add_argument("graphs", nargs="+", help="graph JSON files")
    p.add_argument("--out")
    p.set_defaults(func=cmd_metric)

    return parser


@functools.cache
def _parser():
    """The parser `main` uses, built on its first call in a process.

    The `func` defaults bind each `cmd_*` function once, so a test patches
    what a command calls, not the command function itself: a library
    function in its own module, which the command's function-level import
    reads at call time, or `futures` and `os` here."""
    return build_parser()


def main(argv=None):
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CapacityError, CertificationError, StructuralError, ValueError,
            OSError) as exc:
        log.debug("input error", exc_info=True)
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_INPUT
    except FoldtrackError as exc:
        sys.stderr.write("invariant violation: %s\n" % exc)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in layer trace: wraps named foldtrack functions with span
recorders, rebinding each wrapper in every foldtrack module that imported the
name, keeps the spans in memory and reduces them to per-layer metrics.

A span is (function, parent span, start, end); a function's self time is its
spans' duration minus the part covered by its direct child spans.
"""

import sys
import time
from array import array

# module -> functions traced, in the order the metrics are reported
TRACED = {
    "spectra": ("gamma_hat", "pf_value", "spectrum_report"),
    "folding": ("factorize", "apply_fold", "find_fold", "controlled_inverse"),
    "automorphisms": ("word_growth_rate", "normalize_outer", "read_automorphism",
                      "parse_automorphism", "fold_inverse", "expansion_report",
                      "check_train_track"),
    "words": ("nielsen_reduce", "invert_automorphism_words", "substitute_reduced"),
    "graph_map": ("make_graph_map", "tighten_map", "transition_matrix", "compose"),
    "graph": ("load_graph", "pi1_word"),
    "metric": ("estimate_d", "difference_map", "slide_normalize"),
    "cli": ("main",),
}

# (name, unit, better) of every per-layer metric the traced run reports
LAYER_METRICS = [
    ("spectra.gamma_hat.calls", "count", "lower"),
    ("spectra.gamma_hat.self_s", "s", "lower"),
    ("spectra.pf_value.calls", "count", "lower"),
    ("spectra.pf_value.self_s", "s", "lower"),
    ("spectra.spectrum_report.self_s", "s", "lower"),
    ("folding.factorize.calls", "count", "lower"),
    ("folding.factorize.self_s", "s", "lower"),
    ("folding.apply_fold.calls", "count", "lower"),
    ("folding.apply_fold.self_s", "s", "lower"),
    ("folding.find_fold.calls", "count", "lower"),
    ("folding.find_fold.self_s", "s", "lower"),
    ("folding.controlled_inverse.self_s", "s", "lower"),
    ("folding.folds_kept", "count", "lower"),
    ("folding.useful_fold_ratio", "ratio", "higher"),
    ("folding.lc2_records", "count", "lower"),
    ("automorphisms.word_growth_rate.calls", "count", "lower"),
    ("automorphisms.word_growth_rate.self_s", "s", "lower"),
    ("automorphisms.normalize_outer.self_s", "s", "lower"),
    ("automorphisms.read_automorphism.self_s", "s", "lower"),
    ("automorphisms.parse_automorphism.self_s", "s", "lower"),
    ("automorphisms.fold_inverse.self_s", "s", "lower"),
    ("automorphisms.expansion_report.self_s", "s", "lower"),
    ("automorphisms.check_train_track.calls", "count", "lower"),
    ("automorphisms.check_train_track.true_share", "share", "higher"),
    ("words.nielsen_reduce.calls", "count", "lower"),
    ("words.nielsen_reduce.self_s", "s", "lower"),
    ("words.invert_automorphism_words.self_s", "s", "lower"),
    ("words.substitute_reduced.calls", "count", "lower"),
    ("words.substitute_reduced.self_s", "s", "lower"),
    ("words.substitute_reduced.letters_out", "count", "lower"),
    ("graph_map.make_graph_map.calls", "count", "lower"),
    ("graph_map.make_graph_map.self_s", "s", "lower"),
    ("graph_map.tighten_map.self_s", "s", "lower"),
    ("graph_map.transition_matrix.calls", "count", "lower"),
    ("graph_map.transition_matrix.self_s", "s", "lower"),
    ("graph_map.compose.self_s", "s", "lower"),
    ("graph.load_graph.self_s", "s", "lower"),
    ("graph.pi1_word.calls", "count", "lower"),
    ("graph.pi1_word.self_s", "s", "lower"),
    ("metric.estimate_d.self_s", "s", "lower"),
    ("metric.difference_map.self_s", "s", "lower"),
    ("metric.slide_normalize.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
]


class Tracer:
    """Span store for the traced functions of one process."""

    def __init__(self):
        self.names = []          # "module.function" per function id
        self.absent = []         # traced names a module no longer defines
        self.fids = array("i")   # per span: function id
        self.parents = array("q")  # per span: parent span index or -1
        self.starts = array("d")
        self.ends = array("d")
        self._stack = []
        self.counts = {"folds_kept": 0, "lc2_records": 0, "train_tracks": 0,
                       "letters_out": 0}

    def _wrap(self, fn, fid, observe):
        fids, parents, starts, ends = self.fids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _observer(self, name):
        counts = self.counts
        if name == "folding.factorize":
            def observe(fact):
                records = getattr(fact, "records", ())
                counts["folds_kept"] += len(records)
                counts["lc2_records"] += sum(
                    1 for r in records if "case3-loop-at-v1" in getattr(r, "flags", ()))
            return observe
        if name == "automorphisms.check_train_track":
            def observe(certified):
                counts["train_tracks"] += bool(certified)
            return observe
        if name == "words.substitute_reduced":
            def observe(word):
                counts["letters_out"] += len(word)
            return observe
        return None

    def install(self, package="foldtrack"):
        """Wrap every traced function and rebind the wrapper wherever a loaded
        module of `package` holds the original object."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, functions in TRACED.items():
            mod = sys.modules.get("%s.%s" % (package, mod_name))
            for fn_name in functions:
                name = "%s.%s" % (mod_name, fn_name)
                fn = getattr(mod, fn_name, None) if mod is not None else None
                if not callable(fn):
                    self.absent.append(name)
                    continue
                fid = len(self.names)
                self.names.append(name)
                wrapper = self._wrap(fn, fid, self._observer(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)

    def self_times(self):
        """(calls, self seconds, inclusive seconds) per traced name.  The
        inclusive time counts a span only when no enclosing span is of the
        same function, so recursion is not counted twice."""
        n = len(self.starts)
        fids, parents, starts, ends = self.fids, self.parents, self.starts, self.ends
        covered = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        total_s = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[fids[i]]
            duration = ends[i] - starts[i]
            calls[name] += 1
            self_s[name] += duration - covered[i]
            p = parents[i]
            while p >= 0 and fids[p] != fids[i]:
                p = parents[p]
            if p < 0:
                total_s[name] += duration
        return calls, self_s, total_s

    def write_spans(self, path):
        """Spans as TSV: span, parent, function, start and end in seconds."""
        with open(path, "w") as fh:
            fh.write("span\tparent\tfunction\tstart_s\tend_s\n")
            for i in range(len(self.starts)):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\n" % (
                    i, self.parents[i], self.names[self.fids[i]],
                    self.starts[i], self.ends[i]))

    def metrics(self):
        """Per-layer metric values except trace.overhead_share, keyed by the
        names in LAYER_METRICS; absent functions read 0."""
        calls, self_s, _ = self.self_times()
        c = self.counts
        out = {}
        for name, _, _ in LAYER_METRICS:
            base, _, stat = name.rpartition(".")
            if stat == "calls":
                out[name] = calls.get(base, 0)
            elif stat == "self_s":
                out[name] = self_s.get(base, 0.0)
        applied = calls.get("folding.apply_fold", 0)
        checked = calls.get("automorphisms.check_train_track", 0)
        out.update({
            "folding.folds_kept": c["folds_kept"],
            "folding.useful_fold_ratio": c["folds_kept"] / applied if applied else 0.0,
            "folding.lc2_records": c["lc2_records"],
            "automorphisms.check_train_track.true_share":
                c["train_tracks"] / checked if checked else 0.0,
            "words.substitute_reduced.letters_out": c["letters_out"],
        })
        return out

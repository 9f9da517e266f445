"""The benchmark's workloads: seeded input generators and the argv of each op.

Nothing here imports foldtrack, so a change to the program cannot change the
inputs.  An op is one `foldtrack.cli.main(argv)` call; every op writes its
result with `--out` to a file the worker reads back for the output check.
"""

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from checks import (
    check_experiment, check_metric, check_ratio, inverse, reduce_word,
)

# Experiment batch size: trials per `experiment` op.  Short ops fit the
# host's fast phases (see run.summarize) more often.
ENSEMBLE_TRIALS = 10
# Twist powers of the metric pairs (G_0, G_m).  At 10^6 an op takes over 3 s,
# too few ops per run for a tail percentile with ten ops beyond it; up to
# 2*10^4 an op is short enough to fit the host's fast phases many times a run.
TWIST_MS = tuple(range(2_000, 20_001, 2_000))
# Twist power of the warm-up op.
TWIST_WARMUP_M = 1_000


@dataclass(frozen=True)
class Workload:
    name: str
    op_limit_s: float   # an op running longer is cut by an alarm and fails
    make_ops: Callable  # (rng, workdir) -> (warm-up op, list of distinct ops)
    check: Callable     # (op, output text) -> error string or None


def random_nielsen_product(rank, length, rng):
    """Product of `length` Nielsen moves drawn as foldtrack's
    `random_automorphism` draws them: x_i -> x_i x_j^(+-1), a transposition,
    or an inversion, each kind equally likely."""
    images = [(i + 1,) for i in range(rank)]
    for _ in range(length):
        kind = rng.randrange(3)
        i = rng.randrange(rank)
        if kind == 2:
            images[i] = inverse(images[i])
            continue
        j = rng.randrange(rank - 1)
        if j >= i:
            j += 1
        if kind == 1:
            images[i], images[j] = images[j], images[i]
            continue
        tail = images[j] if rng.randrange(2) else inverse(images[j])
        images[i] = reduce_word(images[i] + tail)
    return images


def format_images(images):
    """Automorphism text in the CLI grammar; inverse letters are uppercase."""
    rules = []
    for i, w in enumerate(images):
        word = "".join(chr(ord("a") + abs(a) - 1) if a > 0
                       else chr(ord("A") + abs(a) - 1) for a in w)
        rules.append("%s->%s" % (chr(ord("a") + i), word))
    return ", ".join(rules)


def _ensemble_ops(rank, length, count):
    """`count` distinct experiment ops and a warm-up op, one seed each."""
    def make_ops(rng, workdir):
        out = os.path.join(workdir, "out.tsv")
        ops = []
        for _ in range(count + 1):
            seed = rng.getrandbits(62)
            ops.append({
                "argv": ["experiment", "--rank", str(rank), "--length", str(length),
                         "--trials", str(ENSEMBLE_TRIALS), "--seed", str(seed),
                         "--jobs", "1", "--out", out],
                "out": out,
                "trials": ENSEMBLE_TRIALS,
            })
        return ops[0], ops[1:]
    return make_ops


def _ratio_ops(rng, workdir, count=100):
    out = os.path.join(workdir, "out.json")
    ops = []
    for _ in range(count + 1):
        text = format_images(random_nielsen_product(3, 10, rng))
        ops.append({"argv": ["ratio", text, "--out", out], "out": out,
                    "input": text})
    return ops[0], ops[1:]


def twist_graph_json(marking):
    """The rank-2 rose with the given marking, in foldtrack's graph JSON."""
    return {
        "rank": 2,
        "vertices": [0],
        "edges": [{"id": 1, "from": 0, "to": 0}, {"id": 2, "from": 0, "to": 0}],
        "basepoint": 0,
        "marking": [list(p) for p in marking],
    }


def twist_marking(m, petal, sign, left):
    """Marking of G_m: petal x_t is remarked to x_t x_o^(sign m), or to
    x_o^(sign m) x_t when `left`, where x_o is the other petal."""
    other = 3 - petal
    power = [sign * other] * m
    word = power + [petal] if left else [petal] + power
    marking = [[1], [2]]
    marking[petal - 1] = word
    return marking


def _twist_ops(rng, workdir):
    """One op for each m of TWIST_MS on each of the eight labelings of the
    twist pair (which petal is twisted, the sign of the twist, the side it
    multiplies), in a seeded order, and a warm-up op at TWIST_WARMUP_M on a
    seeded labeling.  The labelings differ in cost by up to a third, so every
    run takes all of them."""
    g0 = os.path.join(workdir, "g0.json")
    with open(g0, "w") as fh:
        json.dump(twist_graph_json([[1], [2]]), fh)
    out = os.path.join(workdir, "out.tsv")
    labelings = [(petal, sign, left) for petal in (1, 2) for sign in (1, -1)
                 for left in (False, True)]
    cases = [(m,) + lab for m in TWIST_MS for lab in labelings]
    rng.shuffle(cases)
    cases.insert(0, (TWIST_WARMUP_M,) + rng.choice(labelings))
    ops = []
    for m, petal, sign, left in cases:
        gm = os.path.join(workdir, "gm_%d_%d%s%s.json" % (
            m, petal, "p" if sign > 0 else "n", "l" if left else "r"))
        with open(gm, "w") as fh:
            json.dump(twist_graph_json(twist_marking(m, petal, sign, left)), fh)
        ops.append({"argv": ["metric", g0, gm, "--out", out], "out": out,
                    "m": m, "g0": g0, "gm": gm})
    return ops[0], ops[1:]


# A run repeats one set of distinct ops in passes; the set sizes keep a pass
# of the two gated workloads near 2 s on the seed code.
WORKLOADS = {w.name: w for w in (
    Workload("ensemble_r3", 5.0, _ensemble_ops(3, 10, 100), check_experiment),
    Workload("ensemble_r5", 60.0, _ensemble_ops(5, 40, 30), check_experiment),
    Workload("ratio_r3", 10.0, _ratio_ops, check_ratio),
    Workload("twist_metric", 10.0, _twist_ops, check_metric),
)}


def make_ops(workload, seed, workdir):
    """(warm-up op, set of distinct ops) of one run, all drawn from one
    generator seeded by `seed`."""
    return workload.make_ops(random.Random(seed), workdir)

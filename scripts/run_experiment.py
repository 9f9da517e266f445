#!/usr/bin/env python3
"""Run a seeded expansion-ratio experiment and write a TSV next to a small
JSON sidecar recording the configuration and the numpy and foldtrack
versions (each trial's automorphism is read off numpy's Philox output)."""

import argparse
import json
import pathlib
import sys

import numpy

import foldtrack
from foldtrack.cli import main as cli_main


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rank", type=int, default=3)
    parser.add_argument("--length", type=int, default=10)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--outdir", default="runs")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = "exp_r%d_l%d_n%d_s%d" % (args.rank, args.length, args.trials, args.seed)
    tsv = outdir / (stem + ".tsv")
    meta = outdir / (stem + ".json")
    code = cli_main([
        "experiment",
        "--rank", str(args.rank), "--length", str(args.length),
        "--trials", str(args.trials), "--seed", str(args.seed),
        "--jobs", str(args.jobs),
        "--out", str(tsv),
    ])
    record = dict(vars(args), numpy_version=numpy.__version__,
                  foldtrack_version=foldtrack.__version__)
    meta.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("wrote", tsv)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Workload process: caps its address space, imports foldtrack.cli, reports
ready, then runs ops in a closed loop, one `cli.main(argv)` call at a time.

Usage: worker.py CONFIG_JSON.  The config names the ops file (one JSON op
per line), a records file (one JSON line per finished op, flushed as it
goes, so a killed worker still leaves its finished ops behind), the run
length, the per-op limit, the address-space cap and whether to trace.  Without an ops file the worker only
measures start-up: it exits after reporting ready.
"""

import json
import os
import resource
import signal
import sys
import time


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in the program
    under test can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def run_op(cli, argv, limit_s):
    """(status, exit code, detail) of one op cut at `limit_s` seconds."""
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            rc = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return "timeout", None, "over the %g s limit" % limit_s
    except MemoryError:
        return "memory", None, "MemoryError"
    except SystemExit as exc:  # argparse rejecting the argv, for one
        return "exit", exc.code, "SystemExit"
    except Exception as exc:  # any crash of the op is a failed op, not ours
        return "error", None, "%s: %s" % (type(exc).__name__, exc)
    return ("ok" if rc == 0 else "exit"), rc, None


def main():
    with open(sys.argv[1]) as fh:
        cfg = json.load(fh)
    cap = cfg["address_space_bytes"]
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    import foldtrack.cli as cli
    sys.stdout.write("ready %s\n" % os.path.abspath(cli.__file__))
    sys.stdout.flush()
    if cfg.get("ops") is None:
        return 0
    # Ops must not write into the pipe the parent reads the ready line from.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    tracer = None
    if cfg["trace"]:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _alarm)
    seconds, max_ops, limit_s = cfg["seconds"], cfg["max_ops"], cfg["op_limit_s"]
    # Ops are read one line at a time, so the op list adds nothing to the
    # worker's peak RSS.
    with open(cfg["ops"]) as ops, open(cfg["records"], "w") as rec:
        t_loop = time.perf_counter()
        for i, line in enumerate(ops):
            op = json.loads(line)
            if max_ops is not None and i >= max_ops:
                break
            if seconds is not None and time.perf_counter() - t_loop >= seconds:
                break
            t0 = time.perf_counter()
            status, rc, detail = run_op(cli, op["argv"], limit_s)
            latency = time.perf_counter() - t0
            out = None
            if os.path.exists(op["out"]):
                with open(op["out"]) as fh:
                    out = fh.read()
                os.remove(op["out"])
            rec.write(json.dumps({"i": i, "status": status, "rc": rc,
                                  "latency_s": latency,
                                  "end_s": time.perf_counter() - t_loop,
                                  "detail": detail,
                                  "out": out}) + "\n")
            rec.flush()
    summary = {}
    if tracer is not None:
        tracer.write_spans(cfg["spans"])
        summary["layers"] = tracer.metrics()
        summary["inclusive_s"] = tracer.self_times()[2]
        summary["absent"] = tracer.absent
    with open(cfg["summary"], "w") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

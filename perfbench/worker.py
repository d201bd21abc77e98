"""One workload in one fresh process: set up, run the closed loop, check, report.

Started by ``run.py``; not meant to be run by hand.  The worker writes
``READY`` on its protocol channel (the original standard output) as soon as
the first op could run, and one JSON object with its measurements when it
is done.  Anything else the program prints goes to standard error.

The loop is closed: one client, each op issued when the previous one
returns.  Whole passes over the op list run until the next pass would end
after ``--seconds``; at least one pass always runs.  With ``--trace 1`` each
op runs twice in a row, untraced and traced, so the tracing overhead is
measured on the same inputs at the same time.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np


# The layers' self times must add up to the traced wall_s within this share;
# the rest is the benchmark's own code inside the op timer.
TRACE_TOLERANCE = 0.05


def _median_index(values) -> int:
    """Index of the lower median of ``values``."""
    order = np.argsort(values, kind="stable")
    return int(order[(len(values) - 1) // 2])


def op_digest(ops) -> str:
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _declined(exc) -> bool:
    """The program refused the input with a precise diagnostic."""
    from polydist import DiagnosticError, GeometryError
    from workloads import CommandFailed

    if isinstance(exc, CommandFailed):
        return exc.code in (2, 3)
    return isinstance(exc, (DiagnosticError, GeometryError))


class OpLog:
    """Latencies, failures and the first output of every op of the pass."""

    def __init__(self, n_ops: int):
        self.latency = [[] for _ in range(n_ops)]
        self.traced = [[] for _ in range(n_ops)]
        self.spans = [[] for _ in range(n_ops)]
        self.first = [None] * n_ops
        self.raised = [0] * n_ops
        self.differed = [0] * n_ops
        self.errors = {}


def execute(workload, ops, seconds: float, tracer=None):
    log = OpLog(len(ops))
    started = time.perf_counter()
    passes = 0
    while True:
        # traced and untraced runs of an op take turns going first, so that
        # neither always finds the caches warmed by the other
        if tracer is None:
            modes = (False,)
        else:
            modes = (False, True) if passes % 2 == 0 else (True, False)
        for i, op in enumerate(ops):
            for traced in modes:
                if traced:
                    tracer.op_id = i
                    lo = tracer.mark()
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    out = workload.run(op)
                    exc = None
                except Exception as err:  # an op's failure must not end the run
                    out, exc = None, err
                elapsed = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
                    log.traced[i].append(elapsed)
                    log.spans[i].append((lo, tracer.mark()))
                else:
                    log.latency[i].append(elapsed)
                if exc is not None:
                    log.raised[i] += 1
                    if i not in log.errors:
                        log.errors[i] = exc
                        if not _declined(exc):
                            traceback.print_exception(exc, file=sys.stderr)
                elif log.first[i] is None:
                    log.first[i] = out
                elif not workload.same(log.first[i], out):
                    log.differed[i] += 1
        passes += 1
        spent = time.perf_counter() - started
        if spent + spent / passes > seconds:
            return log, passes


def verify(workload, ops, log):
    """Check each op's first output against its untimed reference."""
    results = []
    for i, op in enumerate(ops):
        if log.first[i] is None:
            exc = log.errors[i]
            results.append({"ok": False, "gap": None, "declined": _declined(exc),
                            "note": f"{type(exc).__name__}: {exc}"[:300]})
            continue
        try:
            ok, gap, note = workload.check(op, log.first[i], workload.reference(op))
        except Exception as err:  # a broken output can break its check
            ok, gap, note = False, None, f"check raised {type(err).__name__}: {err}"[:300]
        if log.differed[i]:
            ok, note = False, f"{log.differed[i]} repeats differ from the first output"
        if i in log.errors and not _declined(log.errors[i]):
            ok, note = False, f"raised {type(log.errors[i]).__name__} on a repeat"
        results.append({"ok": bool(ok), "gap": gap, "declined": False, "note": note})
    return results


def tail(latencies):
    """(value, percentile, count): the highest percentile with >= 10 ops above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def summarize(log, results):
    all_lat = [x for lat in log.latency for x in lat]
    attempted = sum(len(lat) + len(tr) for lat, tr in zip(log.latency, log.traced))
    failed = 0
    for i, r in enumerate(results):
        runs = len(log.latency[i]) + len(log.traced[i])
        failed += log.raised[i] if r["ok"] else runs
    tail_ms, tail_pct, n = tail(all_lat)
    gaps = [r["gap"] for r in results if r["gap"] is not None]
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": all(r["ok"] or r["declined"] for r in results),
        "wall_s": sum(statistics.median(lat) for lat in log.latency),
        "op_ms_p50": 1e3 * statistics.median(all_lat),
        "op_ms_tail": 1e3 * tail_ms,
        "tail_percentile": tail_pct,
        "ops_timed": n,
        "cdf_err_max": max(gaps) if gaps else float("nan"),
        "fail_frac": failed / attempted,
        "pass_s": [sum(lat[p] for lat in log.latency) for p in range(len(log.latency[0]))],
        "op_s_median": [statistics.median(lat) for lat in log.latency],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True, help="the package's source directory")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--max-ops", type=int, default=None)
    args = parser.parse_args(argv)

    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)  # stray prints from the program must not corrupt the protocol

    import polydist
    from workloads import WORKLOADS

    src = os.path.realpath(args.src)
    if not os.path.realpath(polydist.__file__).startswith(src + os.sep):
        print(f"polydist imported from {polydist.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    ops = workload.make_ops(args.seed)[: args.max_ops]
    os.makedirs(args.workdir, exist_ok=True)
    workload.prepare(ops, args.workdir)
    proto.write("READY\n")
    proto.flush()
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    log, passes = execute(workload, ops, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results = verify(workload, ops, log)
    summary = summarize(log, results)
    summary.update(
        passes=passes,
        ops_per_pass=len(ops),
        op_digest=op_digest(ops),
        peak_rss_mb=peak_rss_mb,
        python=sys.version.split()[0],
        numpy=np.__version__,
        failures=[{"op": i, **r} for i, r in enumerate(results) if not r["ok"]],
    )
    if tracer is not None:
        from tracer import layer_metrics

        picks = [_median_index(t) for t in log.traced]
        traced_wall = sum(log.traced[i][k] for i, k in enumerate(picks))
        untraced_wall = summary["wall_s"]
        summaries = [tracer.summarize(*log.spans[i][k]) for i, k in enumerate(picks)]
        defects = [out.get("solve_defect", 0.0) for out in log.first
                   if isinstance(out, dict)]
        summary["layers"] = layer_metrics(tracer, summaries, traced_wall, untraced_wall,
                                          max(defects, default=0.0))
        summary["traced_wall_s"] = traced_wall
        unattributed = summary["layers"]["trace.unattributed_frac"]
        if abs(unattributed) > TRACE_TOLERANCE:
            summary["correct"] = False
            summary["failures"].append({"note": f"layer self times leave {unattributed:.3%}"
                                                " of the traced wall_s unattributed"})
        if args.trace_out:
            tracer.save(args.trace_out)
    proto.write(json.dumps(summary) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

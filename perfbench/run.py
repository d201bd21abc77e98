"""polydist benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload triangle_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --confirm-seed 1001

Each run starts fresh worker processes with BLAS/OpenMP threads pinned to 1
and times one client in a closed loop (see worker.py).  ``setup_s`` is the
median over several fresh processes of the time from process start until
the first op could run.  With ``--trace 0`` the last line of standard output
is one JSON object holding every end-to-end metric; with ``--trace 1`` it
holds every per-layer metric instead, taken from a run in which each op also
runs once untraced, for ``trace.overhead_frac``.  The lines before it report
the environment, the digest of the generated op list and every figure with
its unit.

``failed`` counts op executions that raised a diagnostic, exited nonzero,
or failed an output check.  ``correct`` is false only when the program
returned a wrong output (an output check failed, a repeat differed from the
first run, or an op crashed with an unexpected exception): a precise
diagnostic is a failure, not a wrong answer.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REGISTRY = json.loads((HERE / "registry.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in REGISTRY["workloads"]]
END_TO_END = {m["name"]: m for m in REGISTRY["end_to_end"]}
PER_LAYER = {m["name"]: m for m in REGISTRY["per_layer"]}
# Fresh processes whose set-up is timed, besides the measuring one.
SETUP_PROBES = 4
# Time a worker may take beyond --seconds (set-up, references, checks).
WORKER_SLACK_S = 100.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "polydist").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _spawn(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-s", str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    """Remaining protocol output of a worker; kills it past the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded its time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return out


def _timed_start(args: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with the seconds until it was ready."""
    t0 = time.perf_counter()
    proc = _spawn(args)
    try:
        line = proc.stdout.readline()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        _finish(proc, deadline)
        raise BenchError("worker did not become ready")
    return proc, ready


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 max_ops: int | None = None) -> dict:
    """Set-up probes plus one measuring worker, all fresh processes."""
    if not (SRC / "polydist" / "__init__.py").is_file():
        raise BenchError(f"no package source under {SRC}")
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + seconds + WORKER_SLACK_S
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed), "--src", str(SRC),
              "--workdir", str(workdir)]
    if max_ops is not None:
        common += ["--max-ops", str(max_ops)]
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            proc, ready = _timed_start(common + ["--setup-only"], deadline)
            _finish(proc, deadline)
            setups.append(ready)
        trace_out = OUT / f"trace-{workload}-seed{seed}.npz"
        proc, ready = _timed_start(common + ["--seconds", repr(seconds),
                                             "--trace", str(trace),
                                             "--trace-out", str(trace_out)], deadline)
        setups.append(ready)
        lines = _finish(proc, deadline).strip().splitlines()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    return result


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        return {name: {"value": result["layers"][name], "unit": m["unit"]}
                for name, m in PER_LAYER.items()}
    return {name: {"value": result[name], "unit": m["unit"]} for name, m in END_TO_END.items()}


def report(workload: str, seed: int, seconds: float, trace: int, result: dict, env: dict):
    """Human-readable lines ahead of the final JSON line."""
    print(f"# workload {workload}  seed {seed}  seconds {seconds:g}  trace {trace}")
    print(f"# op list: {result['ops_per_pass']} ops, sha256 {result['op_digest']}")
    print(f"# passes {result['passes']}, {result['ops_timed']} timed ops, "
          f"tail = p{result['tail_percentile']:.1f} of {result['ops_timed']} ops")
    print(f"# python {result['python']}  numpy {result['numpy']}  nproc {env['nproc']}  "
          f"cpus allowed {env['cpus_allowed']}  git {env['git_commit']}  "
          f"src sha256 {env['source_digest'][:16]}")
    print(f"# setup samples (s): {' '.join(f'{x:.4f}' for x in result['setup_samples_s'])}")
    for name, m in END_TO_END.items():
        print(f"{name:24s} {result[name]:.6g} {m['unit']}")
    print(f"{'fail_frac':24s} {result['fail_frac']:.6g} 1  "
          f"({result['failed']} of {result['attempted']} op runs)")
    if trace:
        print(f"{'traced wall_s':24s} {result['traced_wall_s']:.6g} s")
        for name, m in PER_LAYER.items():
            print(f"{name:24s} {result['layers'][name]:.6g} {m['unit']}")
    for f in result["failures"]:
        print(f"# failed op {f.get('op', '-')}: {f.get('note', '')}")


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def run_all(seeds: list[int], seconds: float):
    """Every workload on every seed, one table."""
    env = environment()
    rows = []
    for seed in seeds:
        for workload in WORKLOAD_NAMES:
            result = run_workload(workload, seed, seconds, 0)
            report(workload, seed, seconds, 0, result, env)
            rows.append((workload, seed, result))
    names = list(END_TO_END) + ["fail_frac"]
    units = [END_TO_END[n]["unit"] for n in END_TO_END] + ["1"]
    print()
    print(f"{'workload':16s} {'seed':>6s} " + " ".join(f"{n + ' [' + u + ']':>20s}"
                                                      for n, u in zip(names, units)))
    for workload, seed, result in rows:
        print(f"{workload:16s} {seed:6d} " + " ".join(f"{result[n]:20.6g}" for n in names))
    print(json.dumps({
        "correct": all(r["correct"] for _, _, r in rows),
        "attempted": sum(r["attempted"] for _, _, r in rows),
        "failed": sum(r["failed"] for _, _, r in rows),
        "metrics": {f"{w}/{seed}/{n}": {"value": r[n], "unit": u}
                    for w, seed, r in rows for n, u in zip(names, units)},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--confirm-seed", type=int, default=None,
                        help="with --all, also run a held-out seed")
    parser.add_argument("--seconds", type=float, default=REGISTRY["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload or --all")
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        parser.error("--seconds must be positive")
    try:
        if args.all:
            seeds = [args.seed] + ([args.confirm_seed] if args.confirm_seed is not None else [])
            run_all(seeds, args.seconds)
            return 0
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.max_ops)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **result}
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    report(args.workload, args.seed, args.seconds, args.trace, result, env)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics_of(result, args.trace),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

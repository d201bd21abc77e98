"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs a tiny op list of every workload through run.py, untraced and traced,
and asserts that every registered metric is emitted with its unit and that
the traced run's layer self times add up.  Then, in-process, it swaps in a
wrong reference for each workload and asserts that the failure count rises.
The wrong references live here only; the package is never touched.  It also
checks that BENCHMARK.json agrees with registry.json.  Exits 1 on failure.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REGISTRY = json.loads((HERE / "registry.json").read_text())
# Prefix of each op list: enough to reach a Monte Carlo command in cli_mc and
# the (178, 1, 1) sliver in triangle_sweep.
TINY = {"triangle_sweep": 5, "polygon_mix": 2, "cli_mc": 8}


def run_tiny(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--max-ops", str(TINY[workload])],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert done.returncode == 0, f"{workload}: exit {done.returncode}\n{done.stderr[-3000:]}"
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_emitted():
    for workload in TINY:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_tiny(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in REGISTRY[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, f"{workload} trace {trace}: {sorted(set(got) ^ set(expected))}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (workload, name, m)
            if trace:
                share = result["metrics"]["trace.unattributed_frac"]["value"]
                assert abs(share) <= 0.05, f"{workload}: {share:.3%} unattributed"
                assert result["correct"], f"{workload}: traced run not correct"
            print(f"PASS {workload} trace {trace}: {len(got)} metrics emitted")


def _shifted(ref: dict) -> dict:
    if "cdf" in ref:
        ref = dict(ref, cdf=ref["cdf"] + 0.05)
    return ref


def check_wrong_reference_counts():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import worker
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        class Wrong(cls):
            def reference(self, op):
                return _shifted(super().reference(op))

        figures = []
        for workload in (cls(), Wrong()):
            ops = workload.make_ops(7)[: TINY[name]]
            workdir = ROOT / ".perfbench" / f"smoke-{name}"
            os.makedirs(workdir, exist_ok=True)
            workload.prepare(ops, str(workdir))
            try:
                log, _ = worker.execute(workload, ops, 0.0)
                figures.append(worker.summarize(log, worker.verify(workload, ops, log)))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        clean, wrong = figures
        assert wrong["fail_frac"] > clean["fail_frac"], (name, clean, wrong)
        assert not wrong["correct"], name
        print(f"PASS {name}: wrong reference raises fail_frac "
              f"{clean['fail_frac']:.3f} -> {wrong['fail_frac']:.3f}")


def check_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["run_seconds"] == REGISTRY["run_seconds"]
    assert [w["name"] for w in bench["workloads"]] == [w["name"] for w in REGISTRY["workloads"]]
    for key, fields in (("end_to_end", ("name", "unit", "better", "bound")),
                        ("per_layer", ("name", "unit", "better"))):
        ours = [{f: m[f] for f in fields} for m in REGISTRY[key]]
        assert bench[key] == ours, f"BENCHMARK.json {key} differs from registry.json"
    print("PASS BENCHMARK.json agrees with registry.json")


def main() -> int:
    try:
        check_benchmark_json()
        check_emitted()
        check_wrong_reference_counts()
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

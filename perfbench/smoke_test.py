#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json, and report_stream (runnable but not
in BENCHMARK.json, see README.md), briefly on sf 0.01 catalogs, once
untraced and once traced, and checks that each run passes its own output
checks and prints exactly the end-to-end (untraced) or per-layer (traced)
metrics BENCHMARK.json names, with the same units and finite values. Also
checks that the benchmark refuses to run outside a full source checkout.
Exits non-zero on the first failure. Takes about a minute after the build.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(workload, trace):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "2",
                 "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def check_metrics(result, expected, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{label}: correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']}")
    got = result["metrics"]
    names = [m["name"] for m in expected]
    if sorted(got) != sorted(names):
        fail(f"{label}: missing {sorted(set(names) - set(got))}, "
             f"unexpected {sorted(set(got) - set(names))}")
    for m in expected:
        value = got[m["name"]]
        if value["unit"] != m["unit"]:
            fail(f"{label}: {m['name']} unit {value['unit']} != {m['unit']}")
        if not isinstance(value["value"], (int, float)) or not math.isfinite(value["value"]):
            fail(f"{label}: {m['name']} = {value['value']!r}")


def check_refuses_partial_checkout():
    """In a directory holding only BENCHMARK.json and perfbench/, the
    benchmark must fail without printing a result."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=str(Path(tmp) / ".bench_build"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "explore", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180, env=env)
        if proc.returncode == 0 or proc.stdout.strip():
            fail("benchmark ran in a directory without the program's sources")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if "report_stream" not in workloads:
        workloads.append("report_stream")
    for workload in workloads:
        check_metrics(run(workload, 0), spec["end_to_end"], f"{workload} trace=0")
        check_metrics(run(workload, 1), spec["per_layer"], f"{workload} trace=1")
        print(f"ok: {workload}")
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    check_refuses_partial_checkout()
    print("ok: refuses a partial checkout")


if __name__ == "__main__":
    main()

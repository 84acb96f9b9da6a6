#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 10 --trace 0

Run it from the repository root. The driver binary (perfbench/src/) is built
with CMake in Release mode under $CARGO_TARGET_DIR (default .bench_build),
together with the dpstarj library from this checkout. Build output goes to
stderr; the driver's last stdout line is the JSON result. --trace 1 writes
the run's spans to <build dir>/spans/<workload>-seed<N>.jsonl.

Workloads: explore, dashboard, report_stream (see perfbench/README.md).
"""

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# The driver must end within 180 s of starting; the build gets its own budget.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    env = dict(os.environ)
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # keep compiler temporaries inside the checkout
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "dpsj_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return build_dir / "dpsj_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["explore", "dashboard", "report_stream"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--tiny", action="store_true",
                        help="sf 0.01 catalogs, for the smoke test")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")

    if not (ROOT / "src" / "service" / "query_service.h").is_file():
        log(f"no dpstarj sources under {ROOT}; run from a full checkout")
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as exc:
        log(f"build failed: {exc}")
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace == "1":
        spans = target / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=str(ROOT))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 3
    log(f"run finished in {time.monotonic() - started:.1f} s with code {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the benchmark program (Release) under .bench_build/perfbench;
later runs only rebuild what changed. The program's output is passed
through: its last stdout line is the JSON result. A traced run also writes
its spans to .bench_build/traces/<workload>-seed<n>.jsonl. Exits non-zero
without a result if the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_churn", "service_faulty")
RUN_TIMEOUT_S = 170


def build(root: Path, build_dir: Path) -> Path:
    source = root / "perfbench"
    if not (root / "src" / "core" / "engine.h").is_file():
        raise RuntimeError(f"library sources not found under {root / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(source), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "validity_bench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    out_dir = root / ".bench_build"
    try:
        binary = build(root, out_dir / "perfbench")
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        trace_dir = out_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"benchmark exited with {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

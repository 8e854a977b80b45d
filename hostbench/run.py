#!/usr/bin/env python3
"""Build the hostbench package and run one workload on one pinned CPU.

Usage, from the repository root:

    python3 hostbench/run.py --workload serve_steady --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build in the current
directory). The workload process is pinned to the highest-numbered CPU this
process may run on, so the program's thread fan-out runs on one worker and
the client is the only thread competing for that core. It runs with one
malloc arena (MALLOC_ARENA_MAX=1): the program starts a thread per parallel
call, and per-thread arenas would otherwise make peak memory depend on
thread timing rather than on live data. The binary's
standard output is passed through; its last line is the JSON result. The
exit status is the binary's, or 1 when the build fails or the run overruns.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_steady", "serve_churn", "tune_sweep")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"error: build failed: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("error: build failed", file=sys.stderr)
        return 1

    name = f"{args.workload}-{args.seed}"
    command = [
        os.path.join(target, "release", "hostbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--state-dir", os.path.join(target, "hostbench-state"),
        "--trace-out", os.path.join(target, f"hostbench-trace-{name}.json"),
    ]
    cpu = {max(os.sched_getaffinity(0))}
    sys.stdout.flush()
    try:
        run = subprocess.run(command, env=dict(env, MALLOC_ARENA_MAX="1"),
                             preexec_fn=lambda: os.sched_setaffinity(0, cpu),
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"error: {name} overran {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode

if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload small_kgw1 --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default `.bench_build`); set-up
fixtures go to `perfbench-work` inside it. Cargo's output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

# heavy_cuts_q7 keeps one thread runnable for ~0.8 s per job and runs pinned
# to one CPU, so its jobs do not migrate between vCPUs mid-computation.
# small_kgw1 gets every CPU: pinned, its client, front-end and scheduler
# threads take turns on one vCPU, and its latency split into two modes
# (~0.065 and ~0.115 ms) whose mix changed from run to run, so the median
# jumped between them (10-run spreads of 23-33%, against 10-14% unpinned).
# mixed_fleet keeps two workers busy and gets every CPU.
ONE_CPU_WORKLOADS = {"heavy_cuts_q7"}


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    # A relative work directory keeps `file:` instance paths free of spaces.
    work = os.path.relpath(os.path.join(target, "perfbench-work"))
    binary = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else None
    if workload in ONE_CPU_WORKLOADS and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.stdout.flush()
    return subprocess.run([binary, *args, "--work-dir", work], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

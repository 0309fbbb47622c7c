#!/usr/bin/env python3
"""End-to-end benchmark of the fdm fair-diversity server.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest_bulk --seed 1 --seconds 15 --trace 0

Builds `fdm_serve` and the load generator `perfbench_gen` from source into
`.bench_build/` (Release; see perfbench/CMakeLists.txt), then runs the
generator, which launches `fdm_serve --listen` as a separate process, drives
one workload over TCP, checks every reply against an in-process reference and
prints the metrics. `--trace 0` reports the end-to-end metrics, `--trace 1`
the per-layer ones (from a traced replay and the server's METRICS counters).
The last line of standard output is the JSON result. Build output goes to
standard error. See perfbench/METRICS.md for what each metric means.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("ingest_bulk", "query_mixed", "spill_churn")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the server and the generator."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", "4", "--target", "fdm_serve",
         "perfbench_gen"],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: the fdm sources are not next to perfbench/")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    workdir = os.path.join(ROOT, ".bench_build", "perfbench-work")
    os.makedirs(workdir, exist_ok=True)
    command = [
        os.path.join(BUILD, "perfbench_gen"),
        f"--workload={args.workload}", f"--seed={args.seed}",
        f"--seconds={args.seconds}", f"--trace={args.trace}",
        f"--server={os.path.join(BUILD, 'fdm', 'fdm_serve')}",
        f"--workdir={workdir}",
    ]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        sys.exit(f"perfbench: generator exited with {result.returncode}")
    sys.stdout.write(result.stdout)


if __name__ == "__main__":
    main()

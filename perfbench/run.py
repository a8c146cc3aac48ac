#!/usr/bin/env python3
"""Builds and runs the DEKG-ILP benchmark (see perfbench/WORKLOADS.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload serve_hubs --seed 1 --seconds 16 --trace 0

Builds the library, the shipped dekg_serve server and the benchmark program
from source into $CARGO_TARGET_DIR (default .bench_build) with CMake, then
runs the program. Build output and progress go to stderr; the last line of
stdout is the run's JSON result. Exits non-zero, printing no result, when
the sources are missing, the build fails, or the run fails or overruns.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_hubs", "serve_ingest", "train_eval")
BUILD_JOBS = 4
RUN_TIMEOUT_S = 175


def build(build_root):
    """Configures and builds perfbench_run and dekg_serve."""
    cmake_dir = os.path.join(build_root, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    with open(os.path.join(build_root, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configuring every time is cheap and keeps a build tree left by
        # other sources in step with these.
        subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", cmake_dir, "--target", "perfbench_run",
             "dekg_serve", "-j", str(BUILD_JOBS)],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return (os.path.join(cmake_dir, "perfbench_run"),
            os.path.join(cmake_dir, "dekg_tools", "dekg_serve"))


def stop_group(pgid):
    """Kills whatever perfbench_run left in its process group and waits
    until none of it is left."""
    for _ in range(200):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no DEKG-ILP sources next to perfbench/", file=sys.stderr)
        return 2
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        program, server = build(build_root)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_root, "runs")
    os.makedirs(work_dir, exist_ok=True)
    # A process group of its own, so an overrun can be stopped together
    # with the dekg_serve child it started.
    proc = subprocess.Popen(
        [program, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--server", server, "--work-dir", work_dir],
        stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run overran its time limit", file=sys.stderr)
        return 1
    finally:
        stop_group(proc.pid)
    if proc.returncode != 0:
        print(f"perfbench: perfbench_run exited with {proc.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

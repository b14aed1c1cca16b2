#!/usr/bin/env python3
"""Builds the remus benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload loopback_read --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/ (the remus library from src/
plus the benchmark binary) into .bench_build/; later runs rebuild only what
changed. The workload's WAL directories live in a fresh directory under
.bench_build/ that is removed on every exit path. The last line of stdout is
the JSON result; the exit status is 0 only when every check passed.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("loopback_read", "sim_kv", "sim_fuzz")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(BUILD_DIR, "remus_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log("run.py: the remus sources (CMakeLists.txt, src/) are not here")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def commit():
    """The git commit of the checkout, or "unknown" when it is no git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    res = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not build():
        log("run.py: build failed")
        return 2

    work_dir = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--commit", commit()]

    # SIGTERM/SIGINT unwind through the finally below: the child is stopped
    # and waited for, and the WAL directory is removed.
    def stop(signum, _frame):
        raise KeyboardInterrupt(signum)

    signal.signal(signal.SIGTERM, stop)
    child = None
    try:
        child = subprocess.Popen(cmd, stdout=sys.stdout, stderr=sys.stderr)
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
        return 3
    except KeyboardInterrupt:
        return 4
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

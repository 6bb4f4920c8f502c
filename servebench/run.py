#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Usage (from the repository root):

    python3 servebench/run.py --workload serial-uniform --seed 1 \
        --seconds 10 --trace 0

The binary is built with CMake under $CARGO_TARGET_DIR (default
`.bench_build`), relative to the repository root, and the remaining arguments
are passed to it unchanged.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  Exits non-zero, printing no result,
when the program's sources are missing, the build fails, or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "servebench")


def build(directory):
    """Configures once, then builds the benchmark target (a no-op when fresh)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("servebench: program sources not found under " + ROOT,
              file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", directory,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", directory, "--target", "servebench",
                        "-j", jobs], stdout=sys.stderr) != 0:
        return None
    return os.path.join(directory, "servebench")


def main():
    directory = build_dir()
    binary = build(directory)
    if binary is None:
        print("servebench: build failed", file=sys.stderr)
        return 2
    work = os.path.join(directory, "work")
    os.makedirs(work, exist_ok=True)
    proc = subprocess.Popen([binary, *sys.argv[1:], "--work-dir", work],
                            cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("servebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark program and the relperf library are compiled with CMake into
the build directory named by $CARGO_TARGET_DIR (default: .bench_build at the
repository root); repeated runs rebuild incrementally. Work files go to
.bench_work at the repository root. Build output goes to stderr, so the last
line of stdout is the program's JSON result. Exits non-zero, without a
result, when the build fails (for instance when the relperf sources are
absent).
"""

import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def configured_for_this_tree(build):
    """True when the CMake cache in `build` belongs to this source tree."""
    cache = os.path.join(build, "CMakeCache.txt")
    if not os.path.exists(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip()) == \
                    os.path.realpath(HERE)
    return False


def build(build):
    """Configures (once) and builds the program; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not configured_for_this_tree(build):
        shutil.rmtree(build, ignore_errors=True)
        os.makedirs(build, exist_ok=True)
        if subprocess.call(["cmake", "-S", HERE, "-B", build,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr) != 0:
            return None
    if subprocess.call(["cmake", "--build", build, "--parallel", jobs],
                       stdout=sys.stderr) != 0:
        return None
    return os.path.join(build, "perfbench")


def main():
    build_path = build_dir()
    os.makedirs(build_path, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(build_path, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        program = build(build_path)
    if program is None or not os.path.exists(program):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.call(
        [program, *sys.argv[1:],
         "--work-dir", os.path.join(ROOT, ".bench_work"),
         "--refs-dir", os.path.join(HERE, "refs")])


if __name__ == "__main__":
    sys.exit(main())

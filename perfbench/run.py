#!/usr/bin/env python3
"""Build and run the checkpoint/restart benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
program and the benchmark (CMake, Release) under $CARGO_TARGET_DIR, default
.bench_build; later calls only rebuild what changed. Build output goes to
stderr, so the benchmark's last stdout line (one JSON object) stays last.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = os.path.join(ROOT, target)
    build = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j", jobs],
    ]
    if os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    sys.stdout.flush()
    binary = os.path.join(build, "perfbench")
    args = [binary] + sys.argv[1:] + ["--out-dir", os.path.join(build, "out")]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

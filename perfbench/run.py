#!/usr/bin/env python3
"""End-to-end TASTI benchmark driver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload session --seed 1 --seconds 36 --trace 0

Builds perfbench/ (and the library sources in src/ it compiles in) into
.bench_build/perfbench with CMake, then runs one workload and passes its
output through. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Build output goes to
standard error. Traces and scratch files go to .bench_out/.

Helper tests: `ctest --test-dir .bench_build/perfbench` after a build.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "tasti_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("run.py: no src/ directory next to perfbench/; nothing to build",
              file=sys.stderr)
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the driver
    uses is not a git repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    """HEAD of the checkout, or "unknown" when it is not its own git work
    tree (a parent directory's repository would name the wrong commit)."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    if len(out) != 2 or os.path.realpath(out[0]) != os.path.realpath(ROOT):
        return "unknown"
    return out[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["session", "serve_write", "serve_remote"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not build():
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR, "--commit", commit(),
               "--source-digest", source_digest()]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the composed BusSense benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Configures and builds perfbench/ (a CMake package that pulls in the
repository's own build) as an optimized Release build under
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
benchmark binary with the same arguments. The binary's last line of standard
output is the result JSON. Exits non-zero, without a result, when the build
fails (for example when the BusSense sources are missing).
"""
import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out):
        out = os.path.join(root, out)
    build = os.path.join(out, "perfbench")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [["cmake", "--build", build, "-j", jobs, "--target", "perfbench"]]
    # A configured tree re-runs CMake by itself when a build file changed.
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(root, "perfbench"),
                         "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            return done.returncode or 1
    binary = os.path.join(build, "perfbench")
    work = os.path.join(out, "work")
    args = [binary] + sys.argv[1:] + ["--work", work]
    return subprocess.run(args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())

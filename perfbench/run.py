#!/usr/bin/env python3
"""Build and run the pfl benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the benchmark with CMake into the build directory (default
.bench_build/perfbench; $CARGO_TARGET_DIR, when set, replaces
.bench_build); later runs rebuild incrementally. Build output goes to
stderr. The benchmark binary's standard output is passed through
unchanged: informational lines starting with '#', and last a JSON object
with the keys correct, attempted, failed and metrics. The exit status is
the binary's (0 ok, 1 a correctness check failed, 2 bad usage or error),
or 3 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the perfbench target; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: pfl sources (src/CMakeLists.txt) not found next to "
              "the benchmark directory", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, check=False)
        if proc.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    out_dir = build_dir()
    if not build(out_dir):
        return 3
    binary = os.path.join(out_dir, "perfbench")
    try:
        proc = subprocess.run([binary] + argv, cwd=ROOT, check=False,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

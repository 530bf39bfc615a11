#!/usr/bin/env python3
"""Builds the PODS benchmark binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 12 --trace 0

The binary is configured and built into .bench_build/perfbench (build logs
go to stderr), then run as a child of this process, so that its peak-memory
figure counts only the binary and its own worker processes, not the build.
The last line of its standard output is the JSON result. A directory without
the PODS sources exits 2 before building and prints no result.
"""
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "pods_perfbench"


def build() -> bool:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no PODS sources at %s/src" % ROOT, file=sys.stderr)
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "pods_perfbench",
                  "-j", "2"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as e:
            print("perfbench: %s: %s" % (cmd[0], e), file=sys.stderr)
            return False
        if rc != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd), file=sys.stderr)
            return False
    return BINARY.is_file()


def main() -> int:
    if not build():
        return 2
    return subprocess.run([str(BINARY)] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

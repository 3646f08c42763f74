#!/usr/bin/env python3
"""Build and run the fxcpp end-to-end benchmark.

Usage (from the repository root):
    python3 fxbench/run.py --workload <resnet50_b1|mlp_serve|compile_zoo> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the library sources under src/ and the benchmark binary into
.bench_build/fxbench (Release, no tests), then runs the benchmark binary with the same
arguments. The binary's last line of standard output is the JSON result.
Build output goes to standard error. Exits non-zero, without a result, when
the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fxbench")


def build() -> str:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "fxbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, "fxbench")


def main() -> int:
    try:
        exe = build()
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"fxbench: build failed: {e}", file=sys.stderr)
        return 3
    out_dir = os.path.join(ROOT, ".bench_out")
    return subprocess.run([exe, *sys.argv[1:], "--out", out_dir],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

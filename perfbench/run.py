#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload <paper200|flip2k|steady10k> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds perfbench/ (the
simulator libraries from src/ plus the driver) into .bench_build/ with CMake
and Ninja, then runs the driver. The build goes to stderr; the driver's last
stdout line is the JSON result. A traced run (--trace 1) also writes a
Chrome trace-event file, viewable in Perfetto, to
.bench_build/traces/<workload>.json. Exits non-zero, without a result line,
when the sources are missing or the build fails.
"""
import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "gfair_perfbench")


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.exit("perfbench: src/CMakeLists.txt not found; run from the repository root")
    if not os.path.isfile(os.path.join(BUILD_DIR, "build.ninja")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "gfair_perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(trace_dir, f"{args.workload}.json")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())

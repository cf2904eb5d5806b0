#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and compiles
perfbench/ (the ProvMark library, the `provmark` CLI, the fsync shim
and the benchmark program the mode needs) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
calls only re-check the build. Build
output goes to stderr; the last stdout line is the result JSON. Scratch
files go to .bench_run/.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table1_sweep", "gen_search", "serve_mixed")


def build(build_dir, targets):
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("run.py: cmake not found")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = [cmake, "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            sys.exit("run.py: configuring the benchmark failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.call([cmake, "--build", build_dir, "-j", jobs,
                        "--target", *targets], stdout=sys.stderr) != 0:
        sys.exit("run.py: building the benchmark failed")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    # Only the traced program links against the wrapped symbol names, so
    # an untraced run never builds it.
    program = "provbench_traced" if args.trace else "provbench"
    build(build_dir, [program, "provmark_cli", "fsync_shim"])

    command = [os.path.join(build_dir, program),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--tools-dir", build_dir]
    sys.stdout.flush()
    os.execv(command[0], command)


if __name__ == "__main__":
    main()

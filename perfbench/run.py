#!/usr/bin/env python3
"""Builds and runs the repository benchmark, one workload per call.

From the repository root:

    python3 perfbench/run.py --workload align_batch --seed 1 --seconds 10 --trace 0

The first call configures perfbench/ (which compiles the library from
src/) into .bench_build/ and builds it; later calls rebuild only what
changed. Build output goes to stderr. The benchmark's report goes to
stdout and its last line is the JSON result. The exit status is non-zero
when the build fails, a correctness gate fails, the run overruns, or the
reported metrics are not exactly those BENCHMARK.json declares for the
run's mode, each in its declared unit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("align_batch", "serve_quantized", "stream_incr")
# A run must end well inside the 180 s every workload is sized for.
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at " + os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))


def declared_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(BUILD, "work")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("run failed with status %d" % run.returncode)

    result = json.loads(lines[-1])
    units = declared_units(args.trace)
    reported = {name: metric["unit"]
                for name, metric in result["metrics"].items()}
    if reported != units:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("reported metrics differ from BENCHMARK.json: undeclared %s, "
             "missing %s" % (
                 sorted(n for n in reported if units.get(n) != reported[n]),
                 sorted(n for n in units if reported.get(n) != units[n])))
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()

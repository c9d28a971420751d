#!/usr/bin/env python3
"""Repo benchmark for brel: build brel_perfbench from source, run workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, in turn
    python3 perfbench/run.py --selftest      # determinism/checker/trace test

Run from the root of a checkout.  brel_perfbench is configured and built
under .bench_build/perfbench (perfbench/CMakeLists.txt pulls in the library
from the repository's own CMakeLists.txt), then run once per workload, each
in its own process.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The exit status is non-zero when
the build fails, a run fails, or any answer is incompatible.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["batch_cold", "eco_stream", "service_open"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD, "brel_perfbench")
RUN_TIMEOUT_S = 170
# Compilers and brel_perfbench keep their temporary files in the checkout.
TMP = os.path.join(BUILD, "tmp")
ENV = dict(os.environ, TMPDIR=TMP)


def build():
    """Configure (once) and build brel_perfbench; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    os.makedirs(TMP, exist_ok=True)
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=ENV)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def run_program(args):
    """Run brel_perfbench; return its exit code and its stdout lines."""
    try:
        done = subprocess.run([PROGRAM] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, env=ENV,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: brel_perfbench timed out: " + " ".join(args))
    lines = done.stdout.rstrip("\n").split("\n")
    return done.returncode, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()

    build()
    if opts.selftest:
        code, lines = run_program(["--selftest"])
        print("\n".join(lines))
        return code

    names = WORKLOADS if opts.workload == "all" else [opts.workload]
    results = {}
    for name in names:
        args = ["--workload", name, "--seed", str(opts.seed),
                "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
        if opts.trace:
            args += ["--trace-out", os.path.join(
                BUILD, "trace-%s-seed%d.jsonl" % (name, opts.seed))]
        code, lines = run_program(args)
        print("\n".join(lines[:-1]))
        if code != 0:
            if lines and lines[-1]:
                print(lines[-1])
            sys.exit("perfbench: %s exited with status %d" % (name, code))
        results[name] = json.loads(lines[-1])

    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (name, metric): value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

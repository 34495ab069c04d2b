#!/usr/bin/env python3
"""Build and run the end-to-end SOE benchmark.

    python3 soebench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout. It builds soebench/main.exe with
dune (into the checkout's _build, shared cache off), runs it with the given
arguments, relays its output, and checks that the last line is the result
object carrying exactly the metrics BENCHMARK.json declares for the trace
mode. The workloads and metrics are described in soebench/main.ml.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("soebench: " + msg, file=sys.stderr)
    sys.exit(2)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"] for m in spec[key]}


def main():
    args = sys.argv[1:]
    if "--trace" not in args or args.index("--trace") + 1 >= len(args):
        fail("missing --trace")
    trace = args[args.index("--trace") + 1]
    # the program is built from the library sources beside this directory;
    # without them there is nothing to measure
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        fail("run from a source checkout: dune-project and lib/ are missing")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "--cache=disabled", "./soebench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(ROOT, "_build", "default", "soebench", "main.exe")
    run = subprocess.run(
        [exe] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
    )
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode)
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("last line is not a result object")
    if set(result["metrics"]) != expected_metrics(trace):
        fail("reported metrics differ from BENCHMARK.json")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-test of the SOE benchmark: deterministic counters and the layer split.

    python3 soebench/check_determinism.py [--seed N] [--seconds S]

For every workload, runs the benchmark three times with short runs:
untraced and traced with the same seed, and untraced with the next seed.
It checks that

  * the deterministic counters printed on the `counters` line
    (channel.kb_to_soe, core.transitions, skip_index.events_decoded,
    dissem.delta_kb, modeled_session_s) are identical for the same seed,
    whether traced or not, and differ for another seed, so the seed really
    reaches the inputs;
  * every run is correct, and in the traced run the layer self times plus
    session.unattributed_ms add up to session.traced_ms with a non-negative
    residual (and likewise for updates).

Exits 0 when all checks pass, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["view-local", "fleet-remote", "publish-sync"]
SESSION_LAYERS = [
    "terminal.fetch_ms",
    "wire.connect_ms",
    "channel.self_ms",
    "skip_index.decode_self_ms",
    "core.eval_self_ms",
    "xml.serialize_ms",
    "session.unattributed_ms",
]
UPDATE_LAYERS = [
    "skip_index.update_ms",
    "dissem.update_ms",
    "wire.apply_delta_ms",
    "wire.sync_ms",
    "update.unattributed_ms",
]


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(BENCH_DIR, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    counters = next(
        (json.loads(l[len("counters "):]) for l in lines if l.startswith("counters ")),
        None,
    )
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, counters, result


def adds_up(metrics, parts, total):
    value = lambda name: metrics[name]["value"]
    wall = value(total)
    return abs(sum(value(p) for p in parts) - wall) <= 1e-6 * max(1.0, wall)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=2)
    opts = parser.parse_args()
    problems = []
    for w in WORKLOADS:
        code0, plain, r0 = run(w, opts.seed, opts.seconds, 0)
        code1, traced, r1 = run(w, opts.seed, opts.seconds, 1)
        code2, other, _ = run(w, opts.seed + 1, opts.seconds, 0)
        if code0 or code1 or code2 or not (r0 and r1):
            problems.append(f"{w}: a run failed (exit codes {code0}, {code1}, {code2})")
            continue
        if plain != traced:
            problems.append(f"{w}: counters differ between runs of one seed: {plain} vs {traced}")
        if plain == other:
            problems.append(f"{w}: counters do not depend on the seed: {plain}")
        m = r1["metrics"]
        if m["session.unattributed_ms"]["value"] < 0:
            problems.append(f"{w}: negative session.unattributed_ms")
        if not adds_up(m, SESSION_LAYERS, "session.traced_ms"):
            problems.append(f"{w}: session layer self times do not add up to session.traced_ms")
        if w == "publish-sync":
            if m["update.unattributed_ms"]["value"] < 0:
                problems.append(f"{w}: negative update.unattributed_ms")
            if not adds_up(m, UPDATE_LAYERS, "update.traced_ms"):
                problems.append(f"{w}: update layer self times do not add up to update.traced_ms")
        print(f"{w}: counters {plain}")
    for p in problems:
        print("FAIL " + p)
    print("ok" if not problems else f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()

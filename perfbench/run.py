#!/usr/bin/env python3
"""Build the benchmark from source and run one workload, or smoke-check all.

Run from the repository root:

    python3 perfbench/run.py --workload paper_vco_b --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

A workload run builds perfbench/wbench.exe with dune (the repository's
libraries are linked from source), runs it, and relays its output; the
last line of standard output is the result JSON.  It exits non-zero,
without a result line, when the build fails or the run produces no
well-formed result.

The smoke check runs every workload of BENCHMARK.json at reduced size,
untraced and traced, and checks that each prints exactly the metrics
BENCHMARK.json names, with their units, that the answers were correct,
and that each Perfetto trace has balanced B/E events.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "wbench.exe")
RUN_TIMEOUT_S = 170


def build():
    # no shared dune cache: the build stays inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/wbench.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return False
    return proc.returncode == 0 and os.path.isfile(EXE)


def run(args):
    """Runs the benchmark executable; returns (stdout lines, result or None)."""
    try:
        proc = subprocess.run(
            [EXE] + args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"{EXE} {' '.join(args)}: timed out", file=sys.stderr)
        return [], None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return lines, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return lines, None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return lines, None
    return lines, result


def smoke():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            name = w["name"]
            problems = []
            lines, result = run(
                ["--workload", name, "--seed", "1", "--seconds", "2", "--trace", str(trace),
                 "--smoke"]
            )
            print("\n".join(lines[:-1]))
            if result is None:
                problems.append("no result")
            else:
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    problems.append(f"metrics {sorted(got.items())} differ from {key}")
                if not result["correct"] or result["failed"]:
                    problems.append(f"{result['failed']} of {result['attempted']} failed")
            if trace == 1:
                with open(os.path.join(".perfbench", f"{name}-trace.json")) as f:
                    phases = [e.get("ph") for e in json.load(f)]
                b, e = phases.count("B"), phases.count("E")
                if b == 0 or b != e:
                    problems.append(f"trace has {b} B and {e} E events")
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print(f"smoke {name} trace {trace}: {status}")
            failures += problems
    return not failures


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    if not a.smoke and a.workload is None:
        p.error("--workload or --smoke is required")
    if not build():
        return 1
    if a.smoke:
        return 0 if smoke() else 1
    lines, result = run(
        ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
         "--trace", str(a.trace)]
    )
    if result is None:
        print("\n".join(lines), file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs a tiny size of every workload in both modes through run.py, so each
run passes the fingerprint gate (serial, sharded and traced replays agree)
and the schema check against BENCHMARK.json.  Then checks that a wrong
reference value is caught: the run must exit non-zero with correct=false.

    python3 perfbench/smoke_test.py      # from the repository root
"""

import json
import math
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def check(workload, trace):
    proc, result = run(workload, trace)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0 or result is None:
        return f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    metrics = SPEC["per_layer" if trace else "end_to_end"]
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        return f"{label}: gate failed: {result}"
    for metric in metrics:
        value = result["metrics"][metric["name"]]["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{label}: {metric['name']} = {value!r}"
    for metric in SPEC["end_to_end"] if trace == 0 else ():
        if result["metrics"][metric["name"]]["value"] <= 0:
            return f"{label}: {metric['name']} is not positive"
    for metric in metrics:
        if not any(line.startswith(metric["name"] + " ") and "samples=" in line
                   for line in proc.stdout.splitlines()):
            return f"{label}: no printed line for {metric['name']}"
    return None


def main():
    problems = []
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            problem = check(workload, trace)
            print(f"{workload} trace={trace}: {'FAIL' if problem else 'ok'}", flush=True)
            if problem:
                problems.append(problem)

    proc, result = run("obr_cascade", 0, "--expect", "obr.n=1")
    caught = proc.returncode != 0 and result is not None and not result["correct"]
    print(f"wrong reference caught: {'ok' if caught else 'FAIL'}")
    if not caught:
        problems.append(f"a wrong obr.n was not caught (exit {proc.returncode})")

    for problem in problems:
        print(problem, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()

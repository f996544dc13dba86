#!/usr/bin/env python3
"""Simulator benchmark: builds the driver from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload sbr_flood --seed 1 --seconds 30 --trace 0

Workloads: sbr_flood, obr_cascade, mixed_edge (see perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ledger.
Every metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is non-zero when the build fails, a
campaign output differs from its reference, or the result does not match
the metric list in BENCHMARK.json.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory.  Reference values are read from the committed
obr_node_exhaustion.csv and gossip_detection.csv at the repository root.
"""

import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
DRIVER = "rangeamp_perfbench"

# Columns of the committed CSV rows the driver checks its reference runs
# against, and the --expect keys they are passed under.
OBR_ROW = ("obr_node_exhaustion.csv", "FCDN->BCDN", "Cloudflare->Akamai",
           {"n": "obr.n", "MB/request on fcdn-bcdn": "obr.mb_per_request"})
GOSSIP_ROW = ("gossip_detection.csv", "row", "fanout-2",
              {column: "gossip." + column for column in (
                  "legit_requests", "attack_requests", "legit_quarantined",
                  "attack_quarantined", "collateral_rate", "legit_hit_rate",
                  "convergence_exchange", "alarms", "final_coverage",
                  "signatures_expired", "gossip_msgs_sent",
                  "gossip_sigs_accepted")})


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the driver; returns its path."""
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    build_dir.mkdir(parents=True, exist_ok=True)
    # Temporary files of the toolchain stay inside the build tree.
    env = dict(os.environ, TMPDIR=str(build_dir))
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return build_dir / DRIVER


def expectations():
    """--expect arguments from the committed reference rows."""
    args = []
    for name, key_column, key, columns in (OBR_ROW, GOSSIP_ROW):
        path = REPO_ROOT / name
        try:
            with open(path, newline="") as f:
                row = next((r for r in csv.DictReader(f) if r[key_column] == key), None)
        except OSError as e:
            fail(f"cannot read {path}: {e}")
        if row is None:
            fail(f"{name} has no {key} row")
        for column, expect_key in columns.items():
            args += ["--expect", f"{expect_key}={row[column]}"]
    return args


def check_schema(result, trace):
    """The result must carry exactly BENCHMARK.json's metrics for this mode."""
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--expect", action="append", default=[],
                        help="override a reference value (key=value)")
    args = parser.parse_args()

    driver = build()
    command = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale] + expectations()
    for override in args.expect:
        command += ["--expect", override]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"driver printed nothing (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"driver's last line is not JSON: {lines[-1]!r}")
    problem = check_schema(result, args.trace)
    if problem:
        fail(problem)
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

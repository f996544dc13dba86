#!/usr/bin/env bash
# Full reproduction: build, run the test suite, regenerate every table and
# figure.  Outputs land in test_output.txt / bench_output.txt at the repo
# root and CSV/JSON series in the working directory.
set -euo pipefail
cd "$(dirname "$0")/.."

# Fresh checkouts get Ninja; an existing build dir keeps whatever generator
# configured it (cmake refuses to switch generators in place).
if [ -f build/CMakeCache.txt ]; then
  cmake -B build
else
  cmake -B build -G Ninja
fi
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

: > bench_output.txt
status=0
failed=()
# The glob includes bench_socket_fig6, the loopback-TCP smoke: it re-measures
# the Fig 6a 10 MB row on the socket transport backend and exits non-zero if
# any vendor's amplification diverges >20% from the in-memory reference (see
# docs/transport-model.md).  It writes no CSV -- wall-clock numbers must
# never feed the drift gate below.
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "==================== $b ====================" | tee -a bench_output.txt
  # bench_micro feeds no CSV and no gate, so a short per-benchmark minimum
  # time is enough (google-benchmark 1.7 takes plain seconds here).
  args=()
  [ "$(basename "$b")" = bench_micro ] && args=(--benchmark_min_time=0.05)
  # Run every bench even after a failure, but never report overall success:
  # each step's exit code is checked and the script exits non-zero if any
  # bench (or the tee recording its output) failed.
  if ! "$b" "${args[@]}" 2>&1 | tee -a bench_output.txt; then
    rc=${PIPESTATUS[0]}
    status=1
    failed+=("$b")
    echo "FAILED: $b (exit $rc)" | tee -a bench_output.txt
  fi
done

if [ "$status" -ne 0 ]; then
  echo
  echo "Reproduction FAILED for: ${failed[*]}" >&2
  exit "$status"
fi

# Every CSV the harnesses must (re)generate.  A missing entry means a bench
# was dropped from the build (the bench/* glob above would skip it silently);
# a diff against the committed copy means the model drifted.  Both are
# failures, loudly.
expected_csvs=(
  ablation_mitigations.csv
  byzantine_origin_ablation.csv
  cache_pollution.csv
  collateral_damage.csv
  fault_mitigation_ablation.csv
  fault_retry_amplification.csv
  feasibility_corpus.csv
  fig6a_amplification.csv
  fig6b_client_traffic.csv
  fig6c_origin_traffic.csv
  fig7a_client_in_kbps.csv
  fig7b_origin_out_mbps.csv
  gossip_detection.csv
  http2_rangeamp.csv
  obr_node_exhaustion.csv
  origin_shield_ablation.csv
  overload_ablation.csv
  practicability_cost.csv
  table1_sbr_forwarding.csv
  table2_obr_forwarding.csv
  table3_obr_replying.csv
  table5_obr.csv
)
for csv in "${expected_csvs[@]}"; do
  if [ ! -f "$csv" ]; then
    echo "Reproduction FAILED: expected output $csv was not generated" >&2
    exit 1
  fi
done

if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  if ! git diff --exit-code -- '*.csv'; then
    echo "Reproduction FAILED: regenerated CSVs drifted from the committed copies (diff above)" >&2
    exit 1
  fi
fi

# Observability gate: re-run the Fig 6 harness with tracing + metrics on.
# The knobs must not change a single CSV byte, and the exported trace must
# validate against scripts/trace_schema.json -- including the cross-check
# that every measurement's wire-span byte sums equal its recorder totals.
echo "==================== traced Fig 6 re-run ====================" | tee -a bench_output.txt
RANGEAMP_TRACE=1 RANGEAMP_METRICS=1 \
  ./build/bench/bench_table4_fig6_sbr_amplification 2>&1 | tee -a bench_output.txt
python3 scripts/check_trace.py fig6_trace.jsonl
python3 scripts/check_metrics.py fig6_metrics.prom
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  if ! git diff --exit-code -- '*.csv'; then
    echo "Reproduction FAILED: the traced run perturbed committed CSVs (diff above)" >&2
    exit 1
  fi
fi

# Overload metrics gate: the storm's metrics-enabled re-run must export a
# .prom whose names are all in the documented catalogue with the four
# overload counters present, and must not perturb a committed CSV byte.
echo "==================== overload storm metrics re-run ====================" | tee -a bench_output.txt
RANGEAMP_METRICS=1 ./build/bench/bench_overload_storm 2>&1 | tee -a bench_output.txt
python3 scripts/check_metrics.py overload_metrics.prom \
  --require cdn_overload_shed_total,cdn_overload_degraded_total,cdn_deadline_expired_total,cdn_retry_budget_denied_total
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  if ! git diff --exit-code -- '*.csv'; then
    echo "Reproduction FAILED: the overload metrics re-run perturbed committed CSVs (diff above)" >&2
    exit 1
  fi
fi

# Cache metrics gate: the pollution bench re-runs one budgeted cell with
# metrics on; the cdn_cache_* catalogue must validate and the committed
# CSVs must stay byte-identical.
echo "==================== cache pollution metrics re-run ====================" | tee -a bench_output.txt
RANGEAMP_METRICS=1 ./build/bench/bench_cache_pollution 2>&1 | tee -a bench_output.txt
python3 scripts/check_metrics.py cache_pollution_metrics.prom \
  --require cdn_cache_evictions_total,cdn_cache_admission_rejects_total,cdn_cache_bytes
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  if ! git diff --exit-code -- '*.csv'; then
    echo "Reproduction FAILED: the cache metrics re-run perturbed committed CSVs (diff above)" >&2
    exit 1
  fi
fi

# Gossip-detection metrics gate: the distributed-detection bench re-runs the
# fanout-2 cell with metrics on; the cdn_gossip_*/cdn_detection_* catalogue
# must validate and the committed CSVs must stay byte-identical.
echo "==================== gossip detection metrics re-run ====================" | tee -a bench_output.txt
RANGEAMP_METRICS=1 ./build/bench/bench_gossip_detection 2>&1 | tee -a bench_output.txt
python3 scripts/check_metrics.py gossip_detection_metrics.prom \
  --require cdn_detection_alarms_total,cdn_detection_quarantined_total,cdn_gossip_messages_sent_total,cdn_gossip_signatures_held
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  if ! git diff --exit-code -- '*.csv'; then
    echo "Reproduction FAILED: the gossip metrics re-run perturbed committed CSVs (diff above)" >&2
    exit 1
  fi
fi

# Campaign-throughput gate: the bench glob above already ran
# bench_campaign_throughput (which exits non-zero if any sharded campaign
# diverges from the serial baseline); validate the JSON it wrote.  No
# speedup floor here -- wall-clock gains need real cores, and this script
# must pass on a 1-core box; CI layers --min-speedup on top.
python3 scripts/check_bench.py BENCH_campaign.json

# Parallel drift gate: re-run the CSV-writing harnesses with the `threads`
# knob wide open.  The sharding contract (docs/parallel-model.md) says
# thread count is unobservable in the results, so every committed CSV must
# regenerate byte-identically at 8 threads.
echo "==================== 8-thread drift re-run ====================" | tee -a bench_output.txt
RANGEAMP_THREADS=8 \
  ./build/bench/bench_table4_fig6_sbr_amplification 2>&1 | tee -a bench_output.txt
RANGEAMP_THREADS=8 ./build/bench/bench_practicability 2>&1 | tee -a bench_output.txt
RANGEAMP_THREADS=8 ./build/bench/bench_gossip_detection 2>&1 | tee -a bench_output.txt
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  if ! git diff --exit-code -- '*.csv'; then
    echo "Reproduction FAILED: the 8-thread re-run perturbed committed CSVs (diff above)" >&2
    exit 1
  fi
fi

echo
echo "Done. See test_output.txt, bench_output.txt and EXPERIMENTS.md."

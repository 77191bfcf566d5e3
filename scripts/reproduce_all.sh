#!/usr/bin/env bash
# Regenerate every table/figure of the reproduction and archive the outputs.
#
#   scripts/reproduce_all.sh [build_dir] [results_dir] [ranks]
#
# Runs each bench binary at its default (paper-scale) parameters, teeing the
# console tables into results/<bench>.txt and CSVs into results/<bench>.csv.
# `ranks` is the comma list forwarded to the dist_scaling bench (default
# 1,2,4).
# Fails loudly (before running anything) if any bench binary named by a
# bench/*.cpp source is missing from the build tree — a silent skip would
# produce an incomplete results/ directory that looks complete.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-build}"
RESULTS_DIR="${2:-results}"
RANKS="${3:-1,2,4}"

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: $BUILD_DIR/bench not found — build first:" >&2
  echo "  cmake -B $BUILD_DIR -G Ninja && cmake --build $BUILD_DIR" >&2
  exit 1
fi

# Every bench/*.cpp source must have produced an executable.
missing=0
benches=()
for src in "$REPO_ROOT"/bench/*.cpp; do
  name="$(basename "${src%.cpp}")"
  if [ ! -x "$BUILD_DIR/bench/$name" ]; then
    echo "error: bench binary missing: $BUILD_DIR/bench/$name" >&2
    missing=1
  fi
  benches+=("$name")
done
if [ "$missing" -ne 0 ]; then
  echo "error: rebuild before reproducing: cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

mkdir -p "$RESULTS_DIR"

# Exit non-zero on a malformed or self-check-failing record — a truncated
# or half-written artifact committed as a tracked result would silently
# poison the trajectory. Schemas live in scripts/validate_bench.py (shared
# with bench_perf.sh and CI).
validate_json() {
  if command -v python3 >/dev/null 2>&1; then
    python3 "$REPO_ROOT/scripts/validate_bench.py" "$1"
  fi
}

for name in "${benches[@]}"; do
  bench="$BUILD_DIR/bench/$name"
  case "$name" in
    micro_substrates|perf_sim)
      echo "== $name (google-benchmark)"
      # Older google-benchmark releases take a plain double; newer ones also
      # accept the "0.05s" form.
      "$bench" --benchmark_min_time=0.05 | tee "$RESULTS_DIR/$name.txt"
      ;;
    robustness_faults)
      echo "== $name"
      # Also refreshes the tracked fault-overhead curve at the repo root.
      "$bench" --csv="$RESULTS_DIR/$name.csv" \
        --json="$REPO_ROOT/BENCH_faults.json" | tee "$RESULTS_DIR/$name.txt"
      validate_json "$REPO_ROOT/BENCH_faults.json"
      cp "$REPO_ROOT/BENCH_faults.json" "$RESULTS_DIR/BENCH_faults.json"
      ;;
    dist_scaling)
      echo "== $name (ranks=$RANKS)"
      # Refreshes the tracked rank-process scaling record; the binary exits
      # non-zero if the distributed engine diverges bitwise from the serial
      # one at any rank count.
      "$bench" --ranks="$RANKS" \
        --json="$REPO_ROOT/BENCH_dist.json" | tee "$RESULTS_DIR/$name.txt"
      validate_json "$REPO_ROOT/BENCH_dist.json"
      cp "$REPO_ROOT/BENCH_dist.json" "$RESULTS_DIR/BENCH_dist.json"
      ;;
    telemetry_overhead)
      echo "== $name"
      # Refreshes the tracked observer-cost record at the repo root.
      "$bench" --json="$REPO_ROOT/BENCH_telemetry.json" \
        | tee "$RESULTS_DIR/$name.txt"
      validate_json "$REPO_ROOT/BENCH_telemetry.json"
      cp "$REPO_ROOT/BENCH_telemetry.json" "$RESULTS_DIR/BENCH_telemetry.json"
      ;;
    wire_overhead)
      echo "== $name"
      # Refreshes the tracked message-size record; the binary exits
      # non-zero if any encoded frame exceeds the c*log2(n) bound.
      "$bench" --json="$REPO_ROOT/BENCH_wire.json" \
        | tee "$RESULTS_DIR/$name.txt"
      validate_json "$REPO_ROOT/BENCH_wire.json"
      cp "$REPO_ROOT/BENCH_wire.json" "$RESULTS_DIR/BENCH_wire.json"
      ;;
    serve_throughput)
      echo "== $name"
      # Refreshes the tracked serve-session throughput record; the binary
      # exits non-zero if any verified commit diverges from kruskal_msf.
      "$bench" --json="$REPO_ROOT/BENCH_serve.json" \
        | tee "$RESULTS_DIR/$name.txt"
      validate_json "$REPO_ROOT/BENCH_serve.json"
      cp "$REPO_ROOT/BENCH_serve.json" "$RESULTS_DIR/BENCH_serve.json"
      ;;
    *)
      echo "== $name"
      "$bench" --csv="$RESULTS_DIR/$name.csv" | tee "$RESULTS_DIR/$name.txt"
      ;;
  esac
  echo
done

# Telemetry trace round-trip: emit a JSONL trace per fault-aware driver and
# replay-validate it (emst_trace re-derives every counter from the events
# and compares to the summary the live run wrote).
if [ -x "$BUILD_DIR/examples/emst_cli" ] && [ -x "$BUILD_DIR/examples/emst_trace" ]; then
  echo "== telemetry traces"
  for algo in sync eopt; do
    "$BUILD_DIR/examples/emst_cli" --algo="$algo" --n=500 --seed=7 \
      --trace="$RESULTS_DIR/trace_$algo.jsonl" --format=json \
      > "$RESULTS_DIR/trace_$algo.run.json"
    "$BUILD_DIR/examples/emst_trace" "$RESULTS_DIR/trace_$algo.jsonl"
  done
  # Multi-threaded trace: the same sync-GHS run with its fragment views
  # built on 4 worker threads. The event lines (everything after the
  # header) must be byte-identical to the 1-thread trace — the strongest
  # form of the determinism contract.
  "$BUILD_DIR/examples/emst_cli" --algo=sync --n=500 --seed=7 --threads=4 \
    --trace="$RESULTS_DIR/trace_sync_t4.jsonl" --format=json \
    > "$RESULTS_DIR/trace_sync_t4.run.json"
  "$BUILD_DIR/examples/emst_trace" "$RESULTS_DIR/trace_sync_t4.jsonl"
  if ! diff <(tail -n +2 "$RESULTS_DIR/trace_sync.jsonl") \
            <(tail -n +2 "$RESULTS_DIR/trace_sync_t4.jsonl") > /dev/null; then
    echo "error: 4-thread trace diverged from the single-threaded trace" >&2
    exit 1
  fi
  # Rank-process trace: the same contract for the distributed engine. The
  # classic GHS run at 4 rank processes must write event lines byte-identical
  # to the in-process run (only the header differs, by its "ranks" field).
  "$BUILD_DIR/examples/emst_cli" --algo=ghs --n=500 --seed=7 \
    --trace="$RESULTS_DIR/trace_ghs.jsonl" --format=json \
    > "$RESULTS_DIR/trace_ghs.run.json"
  "$BUILD_DIR/examples/emst_cli" --algo=ghs --n=500 --seed=7 --ranks=4 \
    --trace="$RESULTS_DIR/trace_ghs_r4.jsonl" --format=json \
    > "$RESULTS_DIR/trace_ghs_r4.run.json"
  "$BUILD_DIR/examples/emst_trace" \
    "$RESULTS_DIR/trace_ghs.jsonl" "$RESULTS_DIR/trace_ghs_r4.jsonl"
  if ! diff <(tail -n +2 "$RESULTS_DIR/trace_ghs.jsonl") \
            <(tail -n +2 "$RESULTS_DIR/trace_ghs_r4.jsonl") > /dev/null; then
    echo "error: distributed trace diverged from the in-process trace" >&2
    exit 1
  fi
  echo
fi

echo "all benches done — outputs in $RESULTS_DIR/"

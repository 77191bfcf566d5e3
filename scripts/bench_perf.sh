#!/usr/bin/env bash
# Run the simulator-engine microbench and record the result as BENCH_sim.json
# at the repo root, plus the rank-process scaling bench as BENCH_dist.json,
# so the perf trajectory is tracked in git from PR to PR.
#
#   scripts/bench_perf.sh [build_dir] [output_json] [ranks]
#
# `ranks` is the comma list passed to dist_scaling (default 1,2,4); the
# record embeds hardware_concurrency so a 1-core record is not mistaken for
# a scaling claim.
#
# BENCH_sim.json is google-benchmark's format: one entry per benchmark run.
# BM_CalendarPump is the collect_round-dominated steady-state workload;
# BM_CalendarEnqueue isolates enqueue. Args are /<messages>/<max_extra_delay>.
# Compare the rows across commits on one host; see docs/PERF.md for how to
# read both files.
set -euo pipefail

# --allow-debug (anywhere in the args) lets a non-Release build produce a
# record anyway; the record is then marked `"untracked": true` and the
# validator refuses it as a tracked artifact. Positional args are unchanged.
ALLOW_DEBUG=0
ARGS=()
for arg in "$@"; do
  if [ "$arg" = "--allow-debug" ]; then
    ALLOW_DEBUG=1
  else
    ARGS+=("$arg")
  fi
done
set -- "${ARGS[@]:-}"

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
OUT="${2:-$REPO_ROOT/BENCH_sim.json}"
RANKS="${3:-1,2,4}"
BIN="$BUILD_DIR/bench/perf_sim"
DIST_BIN="$BUILD_DIR/bench/dist_scaling"
DIST_OUT="$REPO_ROOT/BENCH_dist.json"

for bin in "$BIN" "$DIST_BIN"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not found or not executable — build first:" >&2
    echo "  cmake -B $BUILD_DIR -S $REPO_ROOT -DCMAKE_BUILD_TYPE=Release && cmake --build $BUILD_DIR -j" >&2
    exit 1
  fi
done

# Tracked records come from Release builds only: a debug-built bench binary
# measures assertion overhead, not the engine, and one committed record from
# it poisons the whole perf trajectory. The build type is read from the
# build tree's own cache, not guessed from the binary.
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true)"
BUILD_TYPE_LOWER="$(printf '%s' "$BUILD_TYPE" | tr '[:upper:]' '[:lower:]')"
UNTRACKED=0
if [ "$BUILD_TYPE_LOWER" != "release" ]; then
  if [ "$ALLOW_DEBUG" -ne 1 ]; then
    echo "error: $BUILD_DIR is configured as '${BUILD_TYPE:-unspecified}', not Release." >&2
    echo "A tracked BENCH record from a non-Release build is meaningless." >&2
    echo "Reconfigure with -DCMAKE_BUILD_TYPE=Release, or pass --allow-debug" >&2
    echo "to produce a record marked \"untracked\": true." >&2
    exit 1
  fi
  UNTRACKED=1
  echo "warning: non-Release build (${BUILD_TYPE:-unspecified}) — records will be marked untracked" >&2
fi

# Stamp the record in place with the *repo's* build type (google-benchmark's
# own `context.library_build_type` reports how the system libbenchmark was
# compiled, which this repo does not control), plus the untracked marker when
# the --allow-debug override produced it.
stamp_record() {
  python3 - "$1" "$BUILD_TYPE" "$UNTRACKED" <<'EOF'
import json, sys
path, build_type, untracked = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
with open(path, encoding="utf-8") as handle:
    doc = json.load(handle)
doc["repo_build_type"] = build_type
if untracked:
    doc["untracked"] = True
with open(path, "w", encoding="utf-8") as handle:
    json.dump(doc, handle, indent=2)
    handle.write("\n")
tag = " (untracked)" if untracked else ""
print(f"stamped {path} repo_build_type={build_type}{tag}")
EOF
}

# Plain-double min_time: the "0.1s" spelling needs a newer google-benchmark
# than the oldest this repo supports (see reproduce_all.sh).
"$BIN" \
  --benchmark_min_time=0.1 \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json

echo
echo "wrote $OUT"
stamp_record "$OUT"

# Schema + self-check validation (shared with reproduce_all.sh and CI): a
# truncated or silently-failing record committed as the tracked artifact
# would poison the trajectory. Untracked (debug-build) records pass only
# with the explicit override.
VALIDATE_FLAGS=()
if [ "$UNTRACKED" -eq 1 ]; then VALIDATE_FLAGS+=(--allow-untracked); fi
if command -v python3 >/dev/null 2>&1; then
  python3 "$REPO_ROOT/scripts/validate_bench.py" ${VALIDATE_FLAGS[@]:+"${VALIDATE_FLAGS[@]}"} "$OUT"
fi

# Process-level scaling of the distributed engine: serial Network vs
# DistributedNetwork at the requested rank counts, with bytes-on-wire per
# scenario. The binary exits non-zero if any rank count breaks the bitwise
# delivery/energy identity, so a broken engine can't leave a
# plausible-looking record behind.
echo
"$DIST_BIN" --ranks="$RANKS" --json="$DIST_OUT"
echo
echo "wrote $DIST_OUT"
stamp_record "$DIST_OUT"
if command -v python3 >/dev/null 2>&1; then
  python3 "$REPO_ROOT/scripts/validate_bench.py" ${VALIDATE_FLAGS[@]:+"${VALIDATE_FLAGS[@]}"} "$DIST_OUT"
fi

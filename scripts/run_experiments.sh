#!/usr/bin/env bash
# Rebuilds the project, runs the full test suite, and regenerates every
# experiment (E1..E20), tee-ing the artifacts next to the repository root.
# Each bench binary also writes a machine-readable BENCH_<name>.json into
# artifacts/ (via CISQP_BENCH_OUT_DIR) for downstream plotting.
#
#   scripts/run_experiments.sh [--threads N] [build-dir]
#
# --threads N pins the parallelism of the plan-search stages (default:
# hardware concurrency; results are identical at any setting).
set -euo pipefail

THREADS=""
if [ "${1:-}" = "--threads" ]; then
  THREADS="${2:?--threads requires a count}"
  shift 2
fi

BUILD_DIR="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

if [ -n "$THREADS" ]; then
  export CISQP_BENCH_THREADS="$THREADS"
  echo "bench parallelism: $THREADS thread(s)"
fi

cmake -B "$BUILD_DIR" -G Ninja
cmake --build "$BUILD_DIR"
ctest --test-dir "$BUILD_DIR" --output-on-failure 2>&1 | tee test_output.txt

ARTIFACT_DIR="$ROOT/artifacts"
mkdir -p "$ARTIFACT_DIR"
export CISQP_BENCH_OUT_DIR="$ARTIFACT_DIR"

: > bench_output.txt
for b in "$BUILD_DIR"/bench/bench_*; do
  [ -x "$b" ] || continue
  echo "### $b" | tee -a bench_output.txt
  "$b" 2>&1 | tee -a bench_output.txt
  echo | tee -a bench_output.txt
done

# E15: a bounded differential fuzz campaign; BENCH_fuzz_throughput.json
# (scenarios/sec, oracle-vs-production wall-time ratio) lands in artifacts/.
echo "### cisqp-fuzz (E15)" | tee -a bench_output.txt
"$BUILD_DIR"/examples/cisqp-fuzz --seeds=500 2>&1 | tee -a bench_output.txt
echo | tee -a bench_output.txt

# Render the sample query profiles embedded in the artifacts (E13/E17) as
# markdown reports next to the JSON.
for artifact in "$ARTIFACT_DIR"/BENCH_obs_overhead.json \
                "$ARTIFACT_DIR"/BENCH_profile_feedback.json; do
  [ -f "$artifact" ] || continue
  scripts/profile2md.py "$artifact" "${artifact%.json}_profile.md" || true
done

echo "collected artifacts:"
ls -1 "$ARTIFACT_DIR"/BENCH_*.json "$ARTIFACT_DIR"/*_profile.md 2>/dev/null \
  || echo "  (none)"
echo "done: test_output.txt, bench_output.txt, artifacts/BENCH_*.json"

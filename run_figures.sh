#!/usr/bin/env bash
# Regenerates every paper figure/table into results/ (text + CSV).
#
# All binaries run through the senss-harness executor (docs/harness.md):
#   HARNESS_WORKERS=N   worker threads (default: available parallelism)
#   HARNESS_NO_CACHE=1  disable the content-addressed result cache
# The harness caches results under results/cache/ keyed by the full job
# configuration, so a re-run only executes configs that changed; figure
# text on stdout is byte-identical regardless of worker count or cache
# warmth (harness progress goes to stderr). Per-job run records land in
# results/records/*.jsonl.
set -euo pipefail
cd "$(dirname "$0")"
export SENSS_OPS="${SENSS_OPS:-30000}" SENSS_SEED="${SENSS_SEED:-42}" SENSS_CSV=1
mkdir -p results
cargo build --release -q -p senss-bench
for b in hw_overhead fig06_slowdown fig07_masks fig08_traffic fig09_interval \
         fig10_integrated fig11_variability coherence_protocols scaling_study; do
  echo "== $b =="
  cargo run --release -q -p senss-bench --bin "$b" | tee "results/$b.txt"
done

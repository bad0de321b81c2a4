#!/usr/bin/env bash
# One-command benchmark campaign: runs every harness-backed bench binary
# with JSON output enabled ($YHCCL_BENCH_JSON), merges the per-binary
# reports into one BENCH_collectives.json and validates it against the
# yhccl-bench/1 schema.
#
# usage: run_collectives.sh <bench-bindir> [outfile]
# knobs: YHCCL_BENCH_SCALE / _RANKS / _SOCKETS / _REPS / _CI / _BUDGET
#        (docs/benchmarking.md) — e.g. YHCCL_BENCH_SCALE=0.05 for a smoke
#        run like the CI perf leg.
set -euo pipefail

bindir=${1:?usage: run_collectives.sh <bench-bindir> [outfile]}
out=${2:-BENCH_collectives.json}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

benches=(
  fig03_copyout_slices
  tab04_stream_slice_copy
  fig09_reduce_scatter
  fig10_reduce
  fig11_allreduce
  fig12_adaptive_allreduce
  fig13_adaptive_bcast
  fig14_adaptive_allgather
  fig15_state_of_the_art
  fig16a_scalability
  fig16b_multinode
  fig17_miniamr
  fig18_cnn_training
  tab05_cma_vs_adaptive
  tab0123_dav_models
  ablation_slice_size
  ablation_switching
  ablation_sync_cost
  ablation_alltoall
  kernel_dispatch
)

mtmp="$tmp/metrics"
mkdir -p "$mtmp"

for b in "${benches[@]}"; do
  echo "== ${b}"
  YHCCL_BENCH_JSON="$tmp" YHCCL_METRICS=on YHCCL_METRICS_DIR="$mtmp" \
    "$bindir/$b" >/dev/null
done

"$bindir/bench_compare" merge "$out" "$tmp"/BENCH_*.json
"$bindir/bench_compare" check "$out"

# Metrics leg (docs/observability.md §6): the campaign ran with the
# always-on registry enabled, so every team exported a final snapshot pair
# above.  Validate both export formats and merge the per-process JSON
# snapshots into one campaign-wide artifact next to the bench report.
metrics="${out%.json}_metrics.json"
"$bindir/metrics_check" "$mtmp"/yhccl_metrics_*.json "$mtmp"/yhccl_metrics_*.prom
"$bindir/metrics_check" merge "$metrics" "$mtmp"/yhccl_metrics_*.json
echo "metrics artifact: $metrics"

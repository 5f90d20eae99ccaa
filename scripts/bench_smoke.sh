#!/usr/bin/env bash
# Bench-smoke regression gate.  Every gated bench writes its canonical run
# summary (bench/bench_common.hpp --summary), and tools/report_diff compares
# it with the committed copy:
#
#   summaries      table 5/6/7/8, fault, sched, resilience and serve benches
#                  at reduced size, against their goldens under bench/golden/
#   artifacts      the benches behind the committed BENCH_*.json at the repo
#                  root, at their default size, against those files
#   counter-plane  the bench_sched_throughput snapshot cell, see below
#
# report_diff's rule (obs/report_diff.hpp): virtual-time and count fields
# must match bit for bit (they are deterministic by construction); keys
# containing "host" are wall-clock measurements and are compared with loose
# thresholds; keys under "_metadata." (hardware threads, load average and
# kernel threads of the recording host) are never compared.  The command table below is
# the single source of truth for every gated command -- CI, local runs and
# --update use the same flags.
#
# The counter-plane gate runs the bench_sched_throughput snapshot cell
# (vmpi::Options::snapshot, obs/snapshot.hpp) in BOTH executor modes and
# diffs the full snapshot timeline against bench/golden/snapshots_sched.json
# with report_diff --timeline: every mid-run sample of every stable pvar
# must match character for character, so a counter that drifts mid-run and
# drifts back by the end is still caught and localized in virtual time.
#
# Usage:
#   scripts/bench_smoke.sh                       # every gate
#   scripts/bench_smoke.sh --only summaries      # bench/golden/ summaries
#   scripts/bench_smoke.sh --only artifacts      # root BENCH_*.json
#   scripts/bench_smoke.sh --only counter-plane  # snapshot-timeline gate
#   scripts/bench_smoke.sh --update              # rewrite the committed
#                                                # copies (after an
#                                                # intentional change;
#                                                # commit the diff)
#
# Environment:
#   BUILD_DIR  build tree with bench/ + tools/ binaries (default: ./build)
#   OUT_DIR    where to leave the fresh summaries (default: mktemp -d)
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${BUILD_DIR:-$repo/build}"
out="${OUT_DIR:-$(mktemp -d)}"
golden="$repo/bench/golden"
update=0
only="all"
usage="usage: bench_smoke.sh [--update] [--only summaries|artifacts|counter-plane]"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --update) update=1; shift ;;
    --only)
      only="${2:?$usage}"
      shift 2 ;;
    *)
      echo "bench_smoke: unknown argument $1" >&2
      echo "$usage" >&2
      exit 2 ;;
  esac
done
case "$only" in
  all|summaries|artifacts|counter-plane) ;;
  *) echo "$usage" >&2
     exit 2 ;;
esac
mkdir -p "$out"

status=0

need_bin() {
  if [[ ! -x "$1" ]]; then
    echo "bench_smoke: missing $1 (build with -DHPRS_BUILD_BENCH=ON)" >&2
    exit 2
  fi
}

# --- Summary gates ----------------------------------------------------
# One entry per gated summary: leg, committed file (repo-relative), bench
# binary and flags.  The summaries leg runs at reduced size; Table 8
# partitions by rows across up to 256 ranks, so it keeps >= 256 rows and
# trims the other axes instead.  The artifacts leg runs each bench at its
# default size, so the committed numbers are the ones README and DESIGN
# quote.
gates=(
  "summaries bench/golden/table5.json bench/bench_table5_exec_times --rows 48 --cols 48 --replication 8"
  "summaries bench/golden/table6.json bench/bench_table6_breakdown --rows 48 --cols 48 --replication 8"
  "summaries bench/golden/table7.json bench/bench_table7_imbalance --rows 48 --cols 48 --replication 8"
  "summaries bench/golden/table8.json bench/bench_table8_thunderhead --rows 256 --cols 16 --replication 4"
  "summaries bench/golden/fault.json bench/bench_fault_recovery --rows 48 --cols 48 --replication 8"
  "summaries bench/golden/sched.json bench/bench_sched_throughput --rows 48 --cols 48 --replication 8"
  "summaries bench/golden/resilience.json bench/bench_sched_resilience --rows 48 --cols 48 --replication 8"
  "summaries bench/golden/serve.json bench/bench_serve_traffic --rows 48 --cols 48 --replication 8 --jobs 48 --duration 30"
  "artifacts BENCH_resilience.json bench/bench_sched_resilience"
  "artifacts BENCH_fault.json bench/bench_fault_recovery"
  "artifacts BENCH_stream.json bench/bench_table6_breakdown"
  "artifacts BENCH_kernels.json bench/bench_kernels --benchmark_repetitions=3"
  "artifacts BENCH_serve.json bench/bench_serve_traffic"
)

for entry in "${gates[@]}"; do
  read -r -a cmd <<< "$entry"
  leg="${cmd[0]}"
  file="${cmd[1]}"
  bin="$build/${cmd[2]}"
  if [[ "$only" != "all" && "$only" != "$leg" ]]; then
    continue
  fi
  need_bin "$bin"
  fresh="$out/$(basename "$file")"
  echo "== bench_smoke: $leg: $file =="
  "$bin" "${cmd[@]:3}" --summary "$fresh" > "${fresh%.json}.txt"
  if [[ "$update" == "1" ]]; then
    cp "$fresh" "$repo/$file"
    echo "updated $file"
  elif ! "$build/tools/report_diff" "$repo/$file" "$fresh"; then
    status=1
  fi
done

# --- Counter-plane gate -----------------------------------------------
# The snapshot cell is one fully-heterogeneous hetero-policy stream with
# the per-group + dispatcher pvar snapshot service on.  The Perfetto trace
# of the executor-mode run is left in $OUT_DIR for CI to upload on failure.
if [[ "$only" == "all" || "$only" == "counter-plane" ]]; then
  snap_bin="$build/bench/bench_sched_throughput"
  need_bin "$snap_bin"
  snap_flags=(--rows 48 --cols 48 --replication 8
              --jobs 16 --snapshot-interval 1.0 --snapshots-only)
  echo "== bench_smoke: counter-plane (executor) =="
  "$snap_bin" "${snap_flags[@]}" \
    --snapshots "$out/snapshots_sched.json" \
    --trace "$out/snapshots_sched_trace.json" > "$out/counter_plane.txt"
  echo "== bench_smoke: counter-plane (thread-per-rank) =="
  HPRS_THREAD_PER_RANK=1 "$snap_bin" "${snap_flags[@]}" \
    --snapshots "$out/snapshots_sched_tpr.json" >> "$out/counter_plane.txt"

  if [[ "$update" == "1" ]]; then
    mkdir -p "$golden"
    cp "$out/snapshots_sched.json" "$golden/snapshots_sched.json"
    echo "updated $golden/snapshots_sched.json"
    if ! cmp -s "$out/snapshots_sched.json" "$out/snapshots_sched_tpr.json"; then
      echo "bench_smoke: executor-mode timelines DIVERGE -- not committing" >&2
      exit 1
    fi
  else
    # --timeline must follow the positionals: CliArgs would otherwise eat
    # the golden path as the flag's value.
    if ! "$build/tools/report_diff" "$golden/snapshots_sched.json" \
        "$out/snapshots_sched.json" --timeline; then
      status=1
    fi
    if ! "$build/tools/report_diff" "$golden/snapshots_sched.json" \
        "$out/snapshots_sched_tpr.json" --timeline; then
      echo "bench_smoke: thread-per-rank timeline diverged" >&2
      status=1
    fi
  fi
fi

if [[ "$update" == "1" ]]; then
  echo "bench_smoke: committed summaries regenerated -- review and commit"
elif [[ "$status" == "0" ]]; then
  echo "bench_smoke: all gates match their committed summaries"
else
  echo "bench_smoke: MISMATCH -- see report_diff output above." >&2
  echo "If the change is intentional, regenerate with" >&2
  echo "  scripts/bench_smoke.sh --only <leg> --update" >&2
fi
exit "$status"

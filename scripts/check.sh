#!/usr/bin/env bash
# Tier-1 verification wrapper: configure (warnings as errors, as CI does),
# build, run the full test suite, then rebuild the kernel-equivalence tests,
# the scheduler and cluster-resilience suites and the input parsers' suites
# under ASan/UBSan and run them once, and finally rebuild the vmpi engine,
# fault-injection and scheduler tests under ThreadSanitizer and run them in
# both host execution modes (bounded executor and HPRS_THREAD_PER_RANK).
# This is the gate a change must pass before merging.
#
# A final bench-smoke tier reruns the table 5/7/8 + fault benches at
# reduced size and diffs their run summaries against bench/golden/
# (scripts/bench_smoke.sh) -- the same regression gate CI applies.
#
# Usage: scripts/check.sh [--no-sanitizers] [--no-bench-smoke]
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"
run_sanitizers=1
run_bench_smoke=1
for arg in "$@"; do
  case "$arg" in
    --no-sanitizers) run_sanitizers=0 ;;
    --no-bench-smoke) run_bench_smoke=0 ;;
    *) echo "check.sh: unknown option $arg" >&2; exit 2 ;;
  esac
done

echo "== tier 1: build (-Werror) + full test suite =="
cmake -S "$repo" -B "$repo/build" -DCMAKE_BUILD_TYPE=Release -DHPRS_WERROR=ON
cmake --build "$repo/build" -j "$jobs"
ctest --test-dir "$repo/build" --output-on-failure -j "$jobs"

if [[ "$run_sanitizers" == "1" ]]; then
  echo "== tier 1b: fast paths + scheduler + parsers under ASan/UBSan =="
  # sched_scheduler_test, sched_resilience_test and core_fault_recovery_test
  # unwind crashed ranks' fibers out of collectives mid-phase, and
  # vmpi_engine_test and vmpi_fault_test out of point-to-point waits, so
  # LeakSanitizer checks the executor's per-fiber exception state;
  # serve_traffic_test, hsi_io_test and simnet_platform_io_test feed the
  # trace, ENVI and platform-file parsers malformed input.
  asan_tests=(linalg_blocked_test morph_sad_cache_test
              fastpath_equivalence_test sched_scheduler_test
              sched_resilience_test core_fault_recovery_test
              serve_traffic_test hsi_io_test simnet_platform_io_test
              vmpi_engine_test vmpi_fault_test)
  cmake -S "$repo" -B "$repo/build-asan" \
    -DCMAKE_BUILD_TYPE=Release \
    -DHPRS_ENABLE_SANITIZERS=ON \
    -DHPRS_BUILD_BENCH=OFF \
    -DHPRS_BUILD_EXAMPLES=OFF
  cmake --build "$repo/build-asan" -j "$jobs" --target "${asan_tests[@]}"
  for t in "${asan_tests[@]}"; do
    "$repo/build-asan/tests/$t"
  done

  echo "== tier 1c: vmpi engine + scheduler under TSan, both execution modes =="
  vmpi_tests=(vmpi_engine_test vmpi_collectives_test vmpi_engine_stress_test
              vmpi_fault_test vmpi_split_test sched_scheduler_test
              sched_resilience_test core_fault_recovery_test
              sched_snapshot_test serve_service_test)
  cmake -S "$repo" -B "$repo/build-tsan" \
    -DCMAKE_BUILD_TYPE=Release \
    -DHPRS_ENABLE_TSAN=ON \
    -DHPRS_BUILD_BENCH=OFF \
    -DHPRS_BUILD_EXAMPLES=OFF
  cmake --build "$repo/build-tsan" -j "$jobs" --target "${vmpi_tests[@]}"
  for t in "${vmpi_tests[@]}"; do
    # Smaller stress world under TSan: thread-per-rank mode instruments
    # every rank thread, so full 192-rank runs are disproportionately slow.
    HPRS_STRESS_RANKS=64 "$repo/build-tsan/tests/$t"
    HPRS_STRESS_RANKS=64 HPRS_THREAD_PER_RANK=1 "$repo/build-tsan/tests/$t"
  done

  echo "== tier 1e: threaded kernels under TSan (HPRS_KERNEL_THREADS=4) =="
  # The tile-plan suite rides along with the kernel suites.
  kernel_tests=(linalg_thread_pool_test linalg_blocked_test
                morph_sad_cache_test linalg_tile_graph_test
                fastpath_equivalence_test)
  cmake --build "$repo/build-tsan" -j "$jobs" --target "${kernel_tests[@]}"
  for t in "${kernel_tests[@]}"; do
    HPRS_KERNEL_THREADS=4 "$repo/build-tsan/tests/$t"
  done
fi

if [[ "$run_bench_smoke" == "1" ]]; then
  echo "== tier 1d: bench-smoke vs bench/golden/ =="
  BUILD_DIR="$repo/build" "$repo/scripts/bench_smoke.sh"
fi

echo "check.sh: all green"

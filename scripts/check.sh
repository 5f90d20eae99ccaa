#!/usr/bin/env bash
# Tier-1 verification wrapper: configure (warnings as errors, as CI does),
# build, run the full test suite, then build and run the sanitizer tiers
# declared in tests/CMakeLists.txt: the asan tier under ASan/UBSan, the
# tsan tier under ThreadSanitizer in both host execution modes (bounded
# executor and HPRS_THREAD_PER_RANK), and the kernels tier under
# ThreadSanitizer.  This is the gate a change must pass before merging.
#
# A final bench-smoke tier reruns the gated benches and diffs their run
# summaries against bench/golden/ and the committed BENCH_*.json
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
  echo "== tier 1b: asan tier under ASan/UBSan =="
  cmake -S "$repo" -B "$repo/build-asan" \
    -DCMAKE_BUILD_TYPE=Release \
    -DHPRS_ENABLE_SANITIZERS=ON \
    -DHPRS_BUILD_BENCH=OFF \
    -DHPRS_BUILD_EXAMPLES=OFF
  cmake --build "$repo/build-asan" -j "$jobs" --target check_asan

  echo "== tier 1c: tsan tier under TSan, both execution modes =="
  cmake -S "$repo" -B "$repo/build-tsan" \
    -DCMAKE_BUILD_TYPE=Release \
    -DHPRS_ENABLE_TSAN=ON \
    -DHPRS_BUILD_BENCH=OFF \
    -DHPRS_BUILD_EXAMPLES=OFF
  cmake --build "$repo/build-tsan" -j "$jobs" --target check_tsan
  HPRS_THREAD_PER_RANK=1 \
    cmake --build "$repo/build-tsan" -j "$jobs" --target check_tsan

  echo "== tier 1e: kernels tier under TSan =="
  cmake --build "$repo/build-tsan" -j "$jobs" --target check_kernels
fi

if [[ "$run_bench_smoke" == "1" ]]; then
  echo "== tier 1d: bench-smoke vs bench/golden/ and BENCH_*.json =="
  BUILD_DIR="$repo/build" "$repo/scripts/bench_smoke.sh"
fi

echo "check.sh: all green"

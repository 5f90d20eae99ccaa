// Google-benchmark microbenchmarks of the numeric kernels that dominate the
// algorithms' inner loops.  These measure *real* wall time on the host --
// they calibrate how expensive a simulated experiment is to run, and guard
// against performance regressions in the kernels themselves.
//
// The *_Reference / *_Fast pairs pin the scalar loops against the blocked
// kernels (linalg/kernels.hpp) on the dominant sweeps: the MORPH windowed
// eccentricity pass, the PCT covariance accumulation, the ATDCA OSP sweep
// (one round, and all 17 rounds of an 18-target run from an empty
// projection cache) and the PPI projection sweep;
// BM_JacobiEigen_Reference/224 pins the PCT eigensolver's reference loop
// against its row-only default (BM_JacobiEigen/224).  --summary <path>
// writes every benchmark's ns/op (a "host" key, compared by threshold) and
// bytes/op as a run summary, the median when --benchmark_repetitions runs
// each benchmark more than once; that summary of a three-repetition run
// is the committed BENCH_kernels.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "core/morph_kernel.hpp"
#include "core/ppi.hpp"
#include "core/spmd_common.hpp"
#include "hsi/cube.hpp"
#include "hsi/metrics.hpp"
#include "linalg/eigen.hpp"
#include "linalg/fcls.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"
#include "linalg/thread_pool.hpp"
#include "linalg/tile_graph.hpp"
#include "linalg/vec.hpp"

namespace {

using namespace hprs;

std::vector<float> random_pixel(std::size_t bands, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> px(bands);
  for (auto& v : px) v = static_cast<float>(rng.uniform(0.05, 1.0));
  return px;
}

linalg::Matrix random_targets(std::size_t count, std::size_t bands,
                              std::uint64_t seed) {
  Xoshiro256 rng(seed);
  linalg::Matrix m(count, bands);
  for (std::size_t r = 0; r < count; ++r) {
    const double shift = rng.uniform(0, 3);
    for (std::size_t b = 0; b < bands; ++b) {
      m(r, b) = 0.3 + 0.2 * std::sin(shift + 0.05 * static_cast<double>(b)) +
                0.01 * rng.uniform();
    }
  }
  return m;
}

void BM_Sad(benchmark::State& state) {
  const auto bands = static_cast<std::size_t>(state.range(0));
  const auto a = random_pixel(bands, 1);
  const auto b = random_pixel(bands, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hsi::sad<float, float>(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Sad)->Arg(32)->Arg(224);

void BM_Sid(benchmark::State& state) {
  const auto a = random_pixel(224, 3);
  const auto b = random_pixel(224, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hsi::sid<float>(a, b));
  }
}
BENCHMARK(BM_Sid);

void BM_OspScore(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix targets = random_targets(t, 224, 5);
  const linalg::Cholesky gram(
      [&] {
        linalg::Matrix g = targets.multiply(targets.transposed());
        for (std::size_t i = 0; i < g.rows(); ++i) g(i, i) += 1e-6;
        return g;
      }());
  const auto px = random_pixel(224, 6);
  for (auto _ : state) {
    std::vector<double> b(t);
    for (std::size_t i = 0; i < t; ++i) {
      b[i] = linalg::dot<double, float>(targets.row(i), px);
    }
    const auto z = gram.solve(b);
    benchmark::DoNotOptimize(linalg::norm_sq<float>(px) -
                             linalg::dot<double, double>(b, z));
  }
}
BENCHMARK(BM_OspScore)->Arg(2)->Arg(9)->Arg(18);

void BM_Fcls(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  const linalg::Unmixer unmixer(random_targets(t, 224, 7));
  const auto px = random_pixel(224, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(unmixer.fcls(px));
  }
}
BENCHMARK(BM_Fcls)->Arg(2)->Arg(9)->Arg(18);

void BM_JacobiEigenPath(benchmark::State& state, bool reference) {
  const linalg::ScopedKernelPath path(reference);
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(9);
  linalg::Matrix b(n, n);
  for (auto& v : b.data()) v = rng.uniform(-1, 1);
  const linalg::Matrix cov = b.gram();
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::jacobi_eigen(cov));
  }
}
// The row-only solver, the default path, keeps the unsuffixed name.
void BM_JacobiEigen(benchmark::State& state) {
  BM_JacobiEigenPath(state, false);
}
void BM_JacobiEigen_Reference(benchmark::State& state) {
  BM_JacobiEigenPath(state, true);
}
BENCHMARK(BM_JacobiEigen)->Arg(32)->Arg(64)->Arg(224)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JacobiEigen_Reference)->Arg(224)
    ->Unit(benchmark::kMillisecond);

void BM_CovarianceAccumulation(benchmark::State& state) {
  // The per-pixel covariance update that dominates PCT's parallel phase.
  const std::size_t bands = 224;
  const auto px = random_pixel(bands, 10);
  std::vector<double> mean(bands, 0.4);
  std::vector<double> centered(bands);
  std::vector<double> tri(bands * (bands + 1) / 2, 0.0);
  for (auto _ : state) {
    for (std::size_t b = 0; b < bands; ++b) {
      centered[b] = static_cast<double>(px[b]) - mean[b];
    }
    std::size_t k = 0;
    for (std::size_t i = 0; i < bands; ++i) {
      const double di = centered[i];
      for (std::size_t j = i; j < bands; ++j) {
        tri[k++] += di * centered[j];
      }
    }
    benchmark::DoNotOptimize(tri.data());
  }
}
BENCHMARK(BM_CovarianceAccumulation);

void BM_CholeskyFactorization(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(11);
  linalg::Matrix b(n, n);
  for (auto& v : b.data()) v = rng.uniform(-1, 1);
  linalg::Matrix spd = b.gram();
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::Cholesky(spd));
  }
}
BENCHMARK(BM_CholeskyFactorization)->Arg(18)->Arg(64);

// --- Paired reference/fast benchmarks of the dominant sweeps --------------

hsi::HsiCube random_cube(std::size_t rows, std::size_t cols,
                         std::size_t bands, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> samples(rows * cols * bands);
  for (auto& v : samples) v = static_cast<float>(rng.uniform(0.05, 1.0));
  return hsi::HsiCube(rows, cols, bands, std::move(samples));
}

void BM_MatrixMultiply(benchmark::State& state, bool reference) {
  const linalg::ScopedKernelPath path(reference);
  const std::size_t n = 96;
  const std::size_t k = 224;
  Xoshiro256 rng(12);
  linalg::Matrix a(n, k);
  linalg::Matrix b(k, n);
  for (auto& v : a.data()) v = rng.uniform(-1, 1);
  for (auto& v : b.data()) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.multiply(b));
  }
  state.counters["bytes_per_op"] = static_cast<double>(
      (n * k + k * n + n * n) * sizeof(double));
}
void BM_MatrixMultiply_Reference(benchmark::State& state) {
  BM_MatrixMultiply(state, true);
}
void BM_MatrixMultiply_Fast(benchmark::State& state) {
  const linalg::ScopedKernelThreads threads(
      static_cast<std::size_t>(state.range(0)));
  BM_MatrixMultiply(state, false);
}
BENCHMARK(BM_MatrixMultiply_Reference)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MatrixMultiply_Fast)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_MorphWindow(benchmark::State& state, bool reference) {
  // One full MORPH erosion/dilation/MEI iteration on a worker-sized block:
  // the windowed SAD pass this pair measures is the paper's dominant kernel.
  const linalg::ScopedKernelPath path(reference);
  const std::size_t rows = 16;
  const std::size_t cols = 16;
  const std::size_t bands = 224;
  const std::size_t radius = 2;
  core::MorphBlockEngine engine(random_cube(rows, cols, bands, 13), radius);
  for (auto _ : state) {
    engine.iterate(/*last=*/false);
    benchmark::DoNotOptimize(engine.mei().data());
  }
  const double window = static_cast<double>((2 * radius + 1) * (2 * radius + 1));
  state.counters["bytes_per_op"] = static_cast<double>(rows * cols * bands) *
                                   sizeof(float) * (window + 1.0);
}
void BM_MorphWindow_Reference(benchmark::State& state) {
  BM_MorphWindow(state, true);
}
void BM_MorphWindow_Fast(benchmark::State& state) {
  const linalg::ScopedKernelThreads threads(
      static_cast<std::size_t>(state.range(0)));
  BM_MorphWindow(state, false);
}
BENCHMARK(BM_MorphWindow_Reference)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MorphWindow_Fast)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_PctCovariance(benchmark::State& state, bool reference) {
  // A 64-pixel strip of PCT's centered covariance accumulation: per-pixel
  // rank-1 updates against one rank-64 syrk update of the packed triangle.
  const std::size_t bands = 224;
  const std::size_t strip = 64;
  const std::size_t tri_n = bands * (bands + 1) / 2;
  Xoshiro256 rng(14);
  std::vector<double> centered(strip * bands);
  for (auto& v : centered) v = rng.uniform(-0.5, 0.5);
  std::vector<double> tri(tri_n, 0.0);
  for (auto _ : state) {
    if (reference) {
      for (std::size_t p = 0; p < strip; ++p) {
        const double* cp = centered.data() + p * bands;
        std::size_t k = 0;
        for (std::size_t i = 0; i < bands; ++i) {
          const double di = cp[i];
          for (std::size_t j = i; j < bands; ++j) {
            tri[k++] += di * cp[j];
          }
        }
      }
    } else {
      linalg::syrk_tri_update(centered.data(), strip, bands, tri.data());
    }
    benchmark::DoNotOptimize(tri.data());
  }
  state.counters["bytes_per_op"] = static_cast<double>(
      (strip * bands + 2 * tri_n) * sizeof(double));
}
void BM_PctCovariance_Reference(benchmark::State& state) {
  BM_PctCovariance(state, true);
}
void BM_PctCovariance_Fast(benchmark::State& state) {
  const linalg::ScopedKernelThreads threads(
      static_cast<std::size_t>(state.range(0)));
  BM_PctCovariance(state, false);
}
BENCHMARK(BM_PctCovariance_Reference)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PctCovariance_Fast)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_PctCovariance_Tiled(benchmark::State& state) {
  // The same strip as BM_PctCovariance_Fast, accumulated tile by tile over
  // the row-tile plan the streamed engine driver walks (16-pixel tiles into
  // one shared triangle): pins the tiling overhead of the steady-state
  // runtime against the monolithic syrk, which this must track closely.
  const linalg::ScopedKernelThreads threads(
      static_cast<std::size_t>(state.range(0)));
  const std::size_t bands = 224;
  const std::size_t strip = 64;
  const std::size_t tri_n = bands * (bands + 1) / 2;
  Xoshiro256 rng(14);
  std::vector<double> centered(strip * bands);
  for (auto& v : centered) v = rng.uniform(-0.5, 0.5);
  const auto tiles =
      linalg::make_row_tiles(0, strip, bands * sizeof(double), 16);
  std::vector<double> tri(tri_n, 0.0);
  for (auto _ : state) {
    for (const auto& t : tiles) {
      linalg::syrk_tri_update(centered.data() + t.row_begin * bands, t.rows(),
                              bands, tri.data());
    }
    benchmark::DoNotOptimize(tri.data());
  }
  state.counters["bytes_per_op"] = static_cast<double>(
      (strip * bands + 2 * tri_n) * sizeof(double));
}
BENCHMARK(BM_PctCovariance_Tiled)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// The first t rows of `u`, shared as ATDCA ships them.
core::detail::SharedTargets leading_rows(const linalg::Matrix& u,
                                         std::size_t t) {
  linalg::Matrix rows;
  for (std::size_t i = 0; i < t; ++i) rows.append_row(u.row(i));
  return std::make_shared<const linalg::Matrix>(std::move(rows));
}

void BM_OspSweep(benchmark::State& state, bool reference) {
  // One round of ATDCA's OSP argmax over a 32x32 block with nine current
  // targets, as a chunk runs it: the fast path's projection cache holds
  // the first eight rows and adds the ninth; the reference projects every
  // pixel onto all nine.
  const linalg::ScopedKernelPath path(reference);
  const std::size_t t = 9;
  const std::size_t bands = 224;
  const hsi::HsiCube cube = random_cube(32, 32, bands, 15);
  const linalg::Matrix all = random_targets(t, bands, 16);
  const auto targets = leading_rows(all, t);
  const auto previous = leading_rows(all, t - 1);
  const linalg::Cholesky gram(core::detail::ridged_row_gram(*targets));
  core::detail::ProjectionCache cache(cube, 0, cube.rows());
  linalg::ScratchArena arena;
  for (auto _ : state) {
    cache.sync(previous);
    benchmark::DoNotOptimize(core::detail::osp_argmax_sweep(
        cache, targets, gram, 0, cube.rows(), arena));
  }
  state.counters["bytes_per_op"] =
      static_cast<double>(cube.pixel_count() * bands) * sizeof(float) +
      static_cast<double>(t * bands) * sizeof(double);
}
void BM_OspSweep_Reference(benchmark::State& state) {
  BM_OspSweep(state, true);
}
void BM_OspSweep_Fast(benchmark::State& state) {
  const linalg::ScopedKernelThreads threads(
      static_cast<std::size_t>(state.range(0)));
  BM_OspSweep(state, false);
}
BENCHMARK(BM_OspSweep_Reference)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OspSweep_Fast)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_OspSweep_Tiled(benchmark::State& state) {
  // BM_OspSweep_Fast cut into the 8-row tiles the streamed driver sweeps,
  // per-tile argmaxes folded strictly-greater in tile order (the runtime's
  // order-preserving fold): pins the tiling overhead of the OSP sweep.
  const linalg::ScopedKernelThreads threads(
      static_cast<std::size_t>(state.range(0)));
  const linalg::ScopedKernelPath path(false);
  const std::size_t t = 9;
  const std::size_t bands = 224;
  const hsi::HsiCube cube = random_cube(32, 32, bands, 15);
  const linalg::Matrix all = random_targets(t, bands, 16);
  const auto targets = leading_rows(all, t);
  const auto previous = leading_rows(all, t - 1);
  const linalg::Cholesky gram(core::detail::ridged_row_gram(*targets));
  const auto tiles = linalg::make_row_tiles(
      0, cube.rows(), cube.cols() * cube.bands() * sizeof(float), 8);
  core::detail::ProjectionCache cache(cube, 0, cube.rows());
  linalg::ScratchArena arena;
  for (auto _ : state) {
    cache.sync(previous);
    auto best = core::detail::osp_argmax_sweep(
        cache, targets, gram, tiles[0].row_begin, tiles[0].row_end, arena);
    for (std::size_t i = 1; i < tiles.size(); ++i) {
      const auto cand = core::detail::osp_argmax_sweep(
          cache, targets, gram, tiles[i].row_begin, tiles[i].row_end, arena);
      if (cand.score > best.score) best = cand;
    }
    benchmark::DoNotOptimize(best);
  }
  state.counters["bytes_per_op"] =
      static_cast<double>(cube.pixel_count() * bands) * sizeof(float) +
      static_cast<double>(t * bands) * sizeof(double);
}
BENCHMARK(BM_OspSweep_Tiled)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_AtdcaRounds(benchmark::State& state, bool reference) {
  // The 17 OSP rounds of an 18-target ATDCA over one 96x96 chunk, from an
  // empty projection cache: the reference projects every pixel onto all t
  // rows in round t (153 band-length dots per pixel), the cache adds one
  // row per round (17 dots and one norm per pixel).
  const linalg::ScopedKernelPath path(reference);
  const std::size_t rounds = 17;
  const std::size_t bands = 224;
  const hsi::HsiCube cube = random_cube(96, 96, bands, 21);
  const linalg::Matrix all = random_targets(rounds, bands, 22);
  std::vector<core::detail::SharedTargets> targets;
  std::vector<linalg::Cholesky> grams;
  for (std::size_t t = 1; t <= rounds; ++t) {
    targets.push_back(leading_rows(all, t));
    grams.emplace_back(core::detail::ridged_row_gram(*targets.back()));
  }
  linalg::ScratchArena arena;
  for (auto _ : state) {
    core::detail::ProjectionCache cache(cube, 0, cube.rows());
    for (std::size_t r = 0; r < rounds; ++r) {
      benchmark::DoNotOptimize(core::detail::osp_argmax_sweep(
          cache, targets[r], grams[r], 0, cube.rows(), arena));
    }
  }
  state.counters["bytes_per_op"] =
      static_cast<double>(cube.pixel_count() * bands) * sizeof(float) +
      static_cast<double>(rounds * bands) * sizeof(double);
}
void BM_AtdcaRounds_Reference(benchmark::State& state) {
  BM_AtdcaRounds(state, true);
}
void BM_AtdcaRounds_Fast(benchmark::State& state) {
  BM_AtdcaRounds(state, false);
}
BENCHMARK(BM_AtdcaRounds_Reference)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AtdcaRounds_Fast)->Unit(benchmark::kMillisecond);

void BM_PpiSweep(benchmark::State& state, bool reference) {
  // Hetero-PPI's projection pass over a 96x96 scene: every pixel's
  // projection extremes on 32 skewers, one skewer at a time (reference)
  // against 64-pixel dot_strip products.
  const linalg::ScopedKernelPath path(reference);
  const std::size_t k = 32;
  const std::size_t bands = 224;
  const hsi::HsiCube cube = random_cube(96, 96, bands, 19);
  Xoshiro256 rng(20);
  linalg::Matrix skewers(k, bands);
  for (auto& v : skewers.data()) v = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::detail::ppi_extremes(skewers, cube, 0, cube.rows()));
  }
  state.counters["bytes_per_op"] =
      static_cast<double>(cube.pixel_count() * bands) * sizeof(float) +
      static_cast<double>(k * bands) * sizeof(double);
}
void BM_PpiSweep_Reference(benchmark::State& state) {
  BM_PpiSweep(state, true);
}
void BM_PpiSweep_Fast(benchmark::State& state) {
  const linalg::ScopedKernelThreads threads(
      static_cast<std::size_t>(state.range(0)));
  BM_PpiSweep(state, false);
}
BENCHMARK(BM_PpiSweep_Reference)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PpiSweep_Fast)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Console reporter that also records each benchmark's ns/op and bytes/op
/// in a run summary.  With --benchmark_repetitions=N (N > 1) it records the
/// median over the repetitions, under the same key as a single run.
class KernelSummaryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const auto& run : reports) {
      const bool repeated = run.run_type == Run::RT_Aggregate
                                ? run.aggregate_name != "median"
                                : run.repetitions > 1;
      if (repeated) continue;
      const std::string prefix = "kernels." + run.run_name.str();
      if (run.iterations > 0) {
        // GetAdjustedRealTime() is per iteration in the run's time unit,
        // for single runs and aggregates alike.
        summary.set_number(prefix + ".host_ns_per_op",
                           run.GetAdjustedRealTime() /
                               benchmark::GetTimeUnitMultiplier(run.time_unit) *
                               1e9);
      }
      const auto it = run.counters.find("bytes_per_op");
      if (it != run.counters.end()) {
        summary.set_number(prefix + ".bytes_per_op",
                           static_cast<double>(it->second));
      }
    }
    ConsoleReporter::ReportRuns(reports);
  }

  obs::RunSummary summary;
};

int run(int argc, char** argv) {
  const std::string summary_path =
      bench::take_string_flag(argc, argv, "summary");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::size_t hw_threads = std::thread::hardware_concurrency();
  const std::size_t kernel_threads = linalg::kernel_threads();
  if (hw_threads != 0 && kernel_threads > hw_threads) {
    std::fprintf(stderr,
                 "bench_kernels: HPRS_KERNEL_THREADS=%zu exceeds the %zu "
                 "hardware threads; timings will include oversubscription "
                 "stalls and are not comparable to the committed artifact\n",
                 kernel_threads, hw_threads);
  }
  KernelSummaryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!bench::write_summary(summary_path, reporter.summary)) return 1;
  benchmark::Shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}

// End-to-end equivalence of the kernel fast paths: every algorithm is run
// twice on the same scene and platform -- once forcing the scalar reference
// kernels, once on the blocked fast paths -- and must produce identical
// scientific outputs AND an identical virtual-time report.  The virtual
// clock is the repo's headline product (the paper's tables), so this is the
// test that guarantees the host-side optimization cannot perturb it, even
// through data-dependent charges (UFCLS active-set iteration counts, PCT
// Jacobi sweeps).  The PCT case runs the eigensolver on both paths too:
// the scalar Jacobi loop under the reference kernels, the row-only solver
// on the fast path (linalg/eigen.hpp; pinned bit for bit on its own in
// tests/linalg_eigen_test.cpp).
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "core/runner.hpp"
#include "hsi/scene.hpp"
#include "linalg/kernels.hpp"
#include "linalg/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "simnet/platform.hpp"
#include "vmpi/engine.hpp"

namespace hprs {
namespace {

hsi::Scene small_scene() {
  hsi::SceneConfig cfg;
  cfg.rows = 24;
  cfg.cols = 24;
  cfg.bands = 48;
  cfg.seed = 20010916;
  return hsi::generate_wtc_scene(cfg);
}

core::RunnerConfig config_for(core::Algorithm alg) {
  core::RunnerConfig cfg;
  cfg.algorithm = alg;
  cfg.targets = 6;
  cfg.classes = 5;
  cfg.morph_iterations = 3;
  cfg.kernel_radius = 2;
  return cfg;
}

class FastPathEquivalenceTest
    : public ::testing::TestWithParam<core::Algorithm> {};

INSTANTIATE_TEST_SUITE_P(Algorithms, FastPathEquivalenceTest,
                         ::testing::Values(core::Algorithm::kAtdca,
                                           core::Algorithm::kUfcls,
                                           core::Algorithm::kPct,
                                           core::Algorithm::kMorph,
                                           core::Algorithm::kPpi),
                         [](const auto& param_info) {
                           return core::to_string(param_info.param);
                         });

TEST_P(FastPathEquivalenceTest, OutputsAndVirtualTimeIdentical) {
  const hsi::Scene scene = small_scene();
  const simnet::Platform platform = simnet::fully_heterogeneous();
  const core::RunnerConfig cfg = config_for(GetParam());

  core::RunnerOutput ref;
  core::RunnerOutput fast;
  {
    const linalg::ScopedKernelPath path(true);
    ref = core::run_algorithm(platform, scene.cube, cfg);
  }
  {
    const linalg::ScopedKernelPath path(false);
    fast = core::run_algorithm(platform, scene.cube, cfg);
  }

  // Scientific outputs: identical target lists / label images.
  ASSERT_EQ(ref.targets.size(), fast.targets.size());
  for (std::size_t i = 0; i < ref.targets.size(); ++i) {
    EXPECT_EQ(ref.targets[i].row, fast.targets[i].row) << "target " << i;
    EXPECT_EQ(ref.targets[i].col, fast.targets[i].col) << "target " << i;
  }
  ASSERT_EQ(ref.labels.size(), fast.labels.size());
  for (std::size_t i = 0; i < ref.labels.size(); ++i) {
    ASSERT_EQ(ref.labels[i], fast.labels[i]) << "label " << i;
  }
  EXPECT_EQ(ref.label_count, fast.label_count);

  // Virtual-time model: the fast path must charge exactly what the
  // reference charges, down to the last bit of every rank's clocks.
  EXPECT_EQ(ref.report.total_time, fast.report.total_time);
  ASSERT_EQ(ref.report.ranks.size(), fast.report.ranks.size());
  for (std::size_t r = 0; r < ref.report.ranks.size(); ++r) {
    const auto& a = ref.report.ranks[r];
    const auto& b = fast.report.ranks[r];
    EXPECT_EQ(a.clock, b.clock) << "rank " << r;
    EXPECT_EQ(a.compute_par, b.compute_par) << "rank " << r;
    EXPECT_EQ(a.compute_seq, b.compute_seq) << "rank " << r;
    EXPECT_EQ(a.comm, b.comm) << "rank " << r;
    EXPECT_EQ(a.wait, b.wait) << "rank " << r;
    EXPECT_EQ(a.flops, b.flops) << "rank " << r;
    EXPECT_EQ(a.bytes_sent, b.bytes_sent) << "rank " << r;
    EXPECT_EQ(a.bytes_received, b.bytes_received) << "rank " << r;
  }
}

TEST_P(FastPathEquivalenceTest, ThreadCountCannotPerturbAnything) {
  // The threaded kernels' determinism contract: at 2, 4, and 7 worker
  // threads the fast path must reproduce the single-thread run bit for bit
  // -- scientific outputs and every rank's virtual clocks.
  const hsi::Scene scene = small_scene();
  const simnet::Platform platform = simnet::fully_heterogeneous();
  const core::RunnerConfig cfg = config_for(GetParam());

  const linalg::ScopedKernelPath path(false);
  core::RunnerOutput one;
  {
    const linalg::ScopedKernelThreads threads(1);
    one = core::run_algorithm(platform, scene.cube, cfg);
  }
  for (const std::size_t n : {2u, 4u, 7u}) {
    const linalg::ScopedKernelThreads threads(n);
    const core::RunnerOutput out =
        core::run_algorithm(platform, scene.cube, cfg);
    ASSERT_EQ(one.targets.size(), out.targets.size()) << n << " threads";
    for (std::size_t i = 0; i < one.targets.size(); ++i) {
      EXPECT_EQ(one.targets[i].row, out.targets[i].row)
          << n << " threads, target " << i;
      EXPECT_EQ(one.targets[i].col, out.targets[i].col)
          << n << " threads, target " << i;
    }
    ASSERT_EQ(one.labels.size(), out.labels.size()) << n << " threads";
    for (std::size_t i = 0; i < one.labels.size(); ++i) {
      ASSERT_EQ(one.labels[i], out.labels[i])
          << n << " threads, label " << i;
    }
    EXPECT_EQ(one.label_count, out.label_count) << n << " threads";
    EXPECT_EQ(one.report.total_time, out.report.total_time)
        << n << " threads";
    ASSERT_EQ(one.report.ranks.size(), out.report.ranks.size());
    for (std::size_t r = 0; r < one.report.ranks.size(); ++r) {
      const auto& a = one.report.ranks[r];
      const auto& b = out.report.ranks[r];
      EXPECT_EQ(a.clock, b.clock) << n << " threads, rank " << r;
      EXPECT_EQ(a.flops, b.flops) << n << " threads, rank " << r;
    }
  }
}

TEST(FastPathEquivalenceTest, AcceleratedPlatformAlsoIdentical) {
  // Fast-vs-reference equivalence must also hold where accelerated ranks
  // charge staging: the host-side kernel path cannot leak into the
  // virtual staging charges.
  const hsi::Scene scene = small_scene();
  const simnet::Platform platform = simnet::accelerated_now(12, 4);
  const core::RunnerConfig cfg = config_for(core::Algorithm::kAtdca);

  core::RunnerOutput ref;
  core::RunnerOutput fast;
  {
    const linalg::ScopedKernelPath path(true);
    ref = core::run_algorithm(platform, scene.cube, cfg);
  }
  {
    const linalg::ScopedKernelPath path(false);
    fast = core::run_algorithm(platform, scene.cube, cfg);
  }
  EXPECT_EQ(ref.report.total_time, fast.report.total_time);
  ASSERT_EQ(ref.report.ranks.size(), fast.report.ranks.size());
  for (std::size_t r = 0; r < ref.report.ranks.size(); ++r) {
    EXPECT_EQ(ref.report.ranks[r].clock, fast.report.ranks[r].clock)
        << "rank " << r;
    EXPECT_EQ(ref.report.ranks[r].comm, fast.report.ranks[r].comm)
        << "rank " << r;
  }
  ASSERT_EQ(ref.targets.size(), fast.targets.size());
  for (std::size_t i = 0; i < ref.targets.size(); ++i) {
    EXPECT_EQ(ref.targets[i].row, fast.targets[i].row);
    EXPECT_EQ(ref.targets[i].col, fast.targets[i].col);
  }
}

TEST(FastPathEquivalenceTest, AcceleratedRanksChargeStagingTime) {
  // The accelerated platform must actually charge staging somewhere:
  // compare against an identical platform with the accelerators' staging
  // costs zeroed out (compute speeds unchanged).
  const hsi::Scene scene = small_scene();
  const simnet::Platform with_staging = simnet::accelerated_now(12, 4);
  std::vector<simnet::ProcessorSpec> procs = with_staging.processors();
  for (auto& p : procs) {
    p.stage_latency_ms = 0.0;
    p.stage_ms_per_mbit = 0.0;
  }
  const simnet::Platform without("accelerated-now-free-staging",
                                 std::move(procs), {{26.64}});
  const core::RunnerConfig cfg = config_for(core::Algorithm::kAtdca);

  const linalg::ScopedKernelPath path(false);
  const core::RunnerOutput staged =
      core::run_algorithm(with_staging, scene.cube, cfg);
  const core::RunnerOutput free_run =
      core::run_algorithm(without, scene.cube, cfg);
  EXPECT_GT(staged.report.total_time, free_run.report.total_time);
}

TEST(FastPathEquivalenceTest, HomogeneousPolicyAlsoIdentical) {
  // One homogeneous-partition run to cover the other WEA branch.
  const hsi::Scene scene = small_scene();
  const simnet::Platform platform = simnet::fully_homogeneous();
  core::RunnerConfig cfg = config_for(core::Algorithm::kUfcls);
  cfg.policy = core::PartitionPolicy::kHomogeneous;

  core::RunnerOutput ref;
  core::RunnerOutput fast;
  {
    const linalg::ScopedKernelPath path(true);
    ref = core::run_algorithm(platform, scene.cube, cfg);
  }
  {
    const linalg::ScopedKernelPath path(false);
    fast = core::run_algorithm(platform, scene.cube, cfg);
  }
  EXPECT_EQ(ref.report.total_time, fast.report.total_time);
  ASSERT_EQ(ref.targets.size(), fast.targets.size());
  for (std::size_t i = 0; i < ref.targets.size(); ++i) {
    EXPECT_EQ(ref.targets[i].row, fast.targets[i].row);
    EXPECT_EQ(ref.targets[i].col, fast.targets[i].col);
  }
}

// Full bit-identity check between two runs: scientific outputs plus every
// field of every rank's virtual-time decomposition.
void expect_identical_runs(const core::RunnerOutput& a,
                           const core::RunnerOutput& b,
                           const std::string& label) {
  ASSERT_EQ(a.targets.size(), b.targets.size()) << label;
  for (std::size_t i = 0; i < a.targets.size(); ++i) {
    EXPECT_EQ(a.targets[i].row, b.targets[i].row) << label << " target " << i;
    EXPECT_EQ(a.targets[i].col, b.targets[i].col) << label << " target " << i;
  }
  ASSERT_EQ(a.labels, b.labels) << label;
  EXPECT_EQ(a.label_count, b.label_count) << label;
  EXPECT_EQ(a.report.total_time, b.report.total_time) << label;
  ASSERT_EQ(a.report.ranks.size(), b.report.ranks.size()) << label;
  for (std::size_t r = 0; r < a.report.ranks.size(); ++r) {
    const auto& x = a.report.ranks[r];
    const auto& y = b.report.ranks[r];
    EXPECT_EQ(x.clock, y.clock) << label << " rank " << r;
    EXPECT_EQ(x.compute_par, y.compute_par) << label << " rank " << r;
    EXPECT_EQ(x.compute_seq, y.compute_seq) << label << " rank " << r;
    EXPECT_EQ(x.comm, y.comm) << label << " rank " << r;
    EXPECT_EQ(x.wait, y.wait) << label << " rank " << r;
    EXPECT_EQ(x.flops, y.flops) << label << " rank " << r;
    EXPECT_EQ(x.bytes_sent, y.bytes_sent) << label << " rank " << r;
    EXPECT_EQ(x.bytes_received, y.bytes_received) << label << " rank " << r;
  }
}

TEST(FastPathEquivalenceTest, Table8TargetCountIdentical) {
  // Table 8's 18 targets: the detectors' projection caches grow through 17
  // rounds.  The cached runs must equal the reference runs, and at 2, 4 and
  // 7 kernel threads the single-thread cached run, bit for bit.
  const hsi::Scene scene = small_scene();
  const simnet::Platform platform = simnet::fully_heterogeneous();
  for (const core::Algorithm alg :
       {core::Algorithm::kAtdca, core::Algorithm::kUfcls}) {
    core::RunnerConfig cfg = config_for(alg);
    cfg.targets = 18;
    const std::string name = core::to_string(alg);
    core::RunnerOutput ref;
    {
      const linalg::ScopedKernelPath path(true);
      ref = core::run_algorithm(platform, scene.cube, cfg);
    }
    ASSERT_EQ(ref.targets.size(), 18u) << name;
    const linalg::ScopedKernelPath path(false);
    for (const std::size_t n : {1u, 2u, 4u, 7u}) {
      const linalg::ScopedKernelThreads threads(n);
      expect_identical_runs(ref, core::run_algorithm(platform, scene.cube, cfg),
                            name + " " + std::to_string(n) + " threads");
    }
  }
}

TEST(TileEquivalenceTest, TilingCannotPerturbAnything) {
  // The tile driver's headline contract: any tile size reproduces the
  // monolithic (auto-tiled) run bit for bit -- outputs AND every rank's
  // virtual clocks -- across both host executor modes and thread counts.
  const hsi::Scene scene = small_scene();
  const simnet::Platform platform = simnet::fully_heterogeneous();
  for (const core::Algorithm alg :
       {core::Algorithm::kPct, core::Algorithm::kAtdca}) {
    const core::RunnerConfig base = config_for(alg);
    const core::RunnerOutput golden =
        core::run_algorithm(platform, scene.cube, base);
    for (const std::size_t tile_rows : {1u, 2u, 5u, 1000u}) {
      core::RunnerConfig cfg = base;
      cfg.tile_rows = tile_rows;
      for (const bool thread_per_rank : {false, true}) {
        vmpi::Options options;
        options.exec_mode = thread_per_rank ? vmpi::ExecMode::kThreadPerRank
                                            : vmpi::ExecMode::kBoundedExecutor;
        for (const std::size_t threads : {1u, 4u}) {
          const linalg::ScopedKernelThreads scoped(threads);
          const core::RunnerOutput out =
              core::run_algorithm(platform, scene.cube, cfg, options);
          expect_identical_runs(
              golden, out,
              std::string(core::to_string(alg)) + " tile_rows=" +
                  std::to_string(tile_rows) +
                  (thread_per_rank ? " tpr" : " bounded") + " threads=" +
                  std::to_string(threads));
        }
      }
    }
  }
}

TEST(TileEquivalenceTest, TilingUnderFaultPlanAlsoIdentical) {
  // Recovery recomputes lost chunks on their adopters' own tile plans,
  // through the same shared-accumulator range kernels -- a crash plan must
  // not let tile configuration leak into recovery numerics.
  const hsi::Scene scene = small_scene();
  const simnet::Platform platform = simnet::fully_heterogeneous();
  const core::RunnerConfig cfg = config_for(core::Algorithm::kPct);
  const double fault_free_s =
      core::run_algorithm(platform, scene.cube, cfg).report.total_time;
  vmpi::Options options;
  options.fault_plan.crashes.push_back({3, 0.25 * fault_free_s});
  options.fault_plan.crashes.push_back({11, 0.50 * fault_free_s});
  const core::RunnerOutput golden =
      core::run_algorithm(platform, scene.cube, cfg, options);
  for (const std::size_t tile_rows : {1u, 5u}) {
    core::RunnerConfig tiled = cfg;
    tiled.tile_rows = tile_rows;
    const core::RunnerOutput out =
        core::run_algorithm(platform, scene.cube, tiled, options);
    expect_identical_runs(golden, out,
                          "ft tile_rows=" + std::to_string(tile_rows));
  }
}

TEST(TileEquivalenceTest, StreamingOverlapBeatsMonolithicOnAccelerators) {
  // The perf claim behind the tile runtime: on accelerated ranks the
  // streamed driver hides the host->device copy of tile k+1 behind the
  // compute of tile k, so the virtual makespan strictly beats the
  // monolithic upfront-stage run -- with identical scientific outputs.
  // Enough rows per rank and a compute-heavy replication keep the critical
  // path on the accelerated ranks instead of integer row-rounding noise.
  hsi::SceneConfig scfg;
  scfg.rows = 48;
  scfg.cols = 24;
  scfg.bands = 48;
  scfg.seed = 20010916;
  const hsi::Scene scene = hsi::generate_wtc_scene(scfg);
  const simnet::Platform platform = simnet::accelerated_now(2, 2);
  for (const core::Algorithm alg :
       {core::Algorithm::kPct, core::Algorithm::kAtdca}) {
    core::RunnerConfig mono_cfg = config_for(alg);
    mono_cfg.replication = 64;
    core::RunnerConfig stream_cfg = mono_cfg;
    stream_cfg.tile_stream = true;
    const core::RunnerOutput mono =
        core::run_algorithm(platform, scene.cube, mono_cfg);
    const core::RunnerOutput stream =
        core::run_algorithm(platform, scene.cube, stream_cfg);
    EXPECT_LT(stream.report.total_time, mono.report.total_time)
        << core::to_string(alg);
    // Streaming only reschedules the copies; the science is untouched.
    ASSERT_EQ(mono.targets.size(), stream.targets.size());
    for (std::size_t i = 0; i < mono.targets.size(); ++i) {
      EXPECT_EQ(mono.targets[i].row, stream.targets[i].row);
      EXPECT_EQ(mono.targets[i].col, stream.targets[i].col);
    }
    EXPECT_EQ(mono.labels, stream.labels);
    EXPECT_EQ(mono.label_count, stream.label_count);
  }
}

TEST(TileEquivalenceTest, StreamingIsDeterministicAcrossExecutorModes) {
  // Streamed runs keep the engine's reproducibility contract: repeated
  // runs and both executor modes agree bit for bit, including the stable
  // observability metrics (vmpi.stage.* charge accounting).
  const hsi::Scene scene = small_scene();
  const simnet::Platform platform = simnet::accelerated_now(12, 4);
  core::RunnerConfig cfg = config_for(core::Algorithm::kPct);
  cfg.tile_stream = true;

  core::RunnerOutput first;
  obs::Metrics::Snapshot stable_first;
  {
    const obs::ScopedMetrics metrics;
    first = core::run_algorithm(platform, scene.cube, cfg);
    stable_first =
        obs::Metrics::stable_subset(obs::Metrics::instance().snapshot());
  }
  bool saw_stage_metric = false;
  for (const auto& [name, value] : stable_first) {
    saw_stage_metric |= name == "vmpi.stage.tiles";
  }
  EXPECT_TRUE(saw_stage_metric);

  for (const bool thread_per_rank : {false, true}) {
    vmpi::Options options;
    options.exec_mode = thread_per_rank ? vmpi::ExecMode::kThreadPerRank
                                        : vmpi::ExecMode::kBoundedExecutor;
    const obs::ScopedMetrics metrics;
    const core::RunnerOutput out =
        core::run_algorithm(platform, scene.cube, cfg, options);
    expect_identical_runs(first, out,
                          thread_per_rank ? "stream tpr" : "stream bounded");
    EXPECT_EQ(stable_first, obs::Metrics::stable_subset(
                                obs::Metrics::instance().snapshot()))
        << (thread_per_rank ? "stream tpr" : "stream bounded");
  }
}

}  // namespace
}  // namespace hprs

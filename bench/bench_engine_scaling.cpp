// Engine host-runtime scaling: how much wall time the *host* spends
// simulating a communication-bound program, by rank count and execution
// mode.  The workload is rounds of {compute, bcast, gather, pairwise
// send/recv, barrier} with negligible numeric work, so nearly all of the
// measured time is engine cost: scheduling, wakeups, payload fan-out.
// This is the benchmark behind the README's engine-scaling numbers (the
// table-8 cells measure whole algorithm runs, where the paper's real
// numerics dominate the host time at every p).
//
// Virtual time is printed alongside as a cross-check: it must be identical
// across modes (and across engine versions -- the cost model is frozen).
//
// Usage: bench_engine_scaling [--rounds N] [--csv]
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "simnet/platform.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/engine.hpp"

namespace {

/// Uniform p-rank single-segment platform (the workload is about engine
/// cost, not partitioning, so heterogeneity adds nothing here).
hprs::simnet::Platform uniform_platform(std::size_t p) {
  std::vector<hprs::simnet::ProcessorSpec> procs;
  procs.reserve(p);
  for (std::size_t i = 0; i < p; ++i) {
    procs.push_back(hprs::simnet::ProcessorSpec{"p" + std::to_string(i),
                                                "bench", 0.001, 1024, 512, 0});
  }
  return hprs::simnet::Platform("engine-scaling", std::move(procs), {{10.0}});
}

void workload(hprs::vmpi::Comm& comm, int rounds) {
  const int r = comm.rank();
  const int n = comm.size();
  for (int k = 0; k < rounds; ++k) {
    comm.compute(100);
    std::vector<double> payload;
    if (r == comm.root()) payload.assign(1024, 1.0);
    const auto view = comm.bcast_shared(comm.root(), std::move(payload),
                                        1024 * sizeof(double));
    const auto gathered =
        comm.gather(comm.root(), (*view)[0] + r, sizeof(double));
    const int peer = (r % 2 == 0) ? r + 1 : r - 1;
    if (peer >= 0 && peer < n) {
      if (r % 2 == 0) {
        comm.send(peer, static_cast<double>(k), sizeof(double), 1);
        (void)comm.recv<double>(peer, 2);
      } else {
        (void)comm.recv<double>(peer, 1);
        comm.send(peer, static_cast<double>(k), sizeof(double), 2);
      }
    }
    comm.barrier();
  }
}

int run(int argc, char** argv) {
  using namespace hprs;
  const CliArgs args(argc, argv, {"rounds", "csv"});
  const int rounds = static_cast<int>(args.get_int("rounds", 40));
  const bool csv = args.get_bool("csv", false);

  TextTable table({"Ranks", "Executor (s)", "ThreadPerRank (s)", "Speedup",
                   "Virtual (s)"});
  for (const std::size_t p : {std::size_t{16}, std::size_t{64},
                              std::size_t{256}}) {
    double host[2] = {0.0, 0.0};
    double virt[2] = {0.0, 0.0};
    const vmpi::ExecMode modes[2] = {vmpi::ExecMode::kBoundedExecutor,
                                     vmpi::ExecMode::kThreadPerRank};
    for (int m = 0; m < 2; ++m) {
      vmpi::Options opts;
      opts.exec_mode = modes[m];
      vmpi::Engine engine(uniform_platform(p), opts);
      const auto t0 = std::chrono::steady_clock::now();
      const auto report =
          engine.run([&](vmpi::Comm& comm) { workload(comm, rounds); });
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      host[m] = dt.count();
      virt[m] = report.total_time;
    }
    if (virt[0] != virt[1]) {
      std::fprintf(stderr, "virtual-time mismatch at p=%zu: %.9f vs %.9f\n",
                   p, virt[0], virt[1]);
      return 1;
    }
    table.add_row({TextTable::num(static_cast<long long>(p)),
                   TextTable::num(host[0], 3), TextTable::num(host[1], 3),
                   TextTable::num(host[1] / host[0], 1),
                   TextTable::num(virt[0], 3)});
  }
  std::printf("Engine host runtime, %d communication rounds per rank.\n",
              rounds);
  if (csv) {
    std::printf("%s", table.to_csv().c_str());
  } else {
    std::printf("%s", table.to_string().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}

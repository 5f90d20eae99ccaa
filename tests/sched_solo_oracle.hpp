// The scheduler tests' output oracle.
#pragma once

#include <algorithm>
#include <vector>

#include "core/ft.hpp"
#include "core/runner.hpp"
#include "hsi/cube.hpp"
#include "sched/job.hpp"
#include "simnet/platform.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/engine.hpp"

namespace hprs::testing {

/// One job's Program, as core::make_program builds it, run solo and
/// uninterrupted under the collective driver on `members` -- the gang
/// whose WEA partition froze the job's chunk list.  A scheduled run
/// (batched, resumed on another width, preempted, or with crashed workers
/// absorbed) must reproduce this output bit for bit.
inline sched::JobOutput run_solo(const simnet::Platform& platform,
                                 const hsi::HsiCube& scene,
                                 const sched::JobSpec& spec,
                                 const std::vector<int>& members,
                                 const vmpi::Options& options) {
  sched::JobOutput out;
  vmpi::Engine engine(platform, options);
  engine.run([&](vmpi::Comm& world) {
    if (std::find(members.begin(), members.end(), world.rank()) ==
        members.end()) {
      return;
    }
    vmpi::Comm sub = world.subset(members, spec.id);
    core::AlgorithmProgram built =
        core::make_program(core::RunnerConfig{spec}, scene);
    core::ft::run_collective(sub, scene, built.program);
    if (sub.is_root()) out = built.harvest();
  });
  return out;
}

}  // namespace hprs::testing

// top_run: textual "top"-style view over the counter plane of a long
// scheduler run (obs/snapshot.hpp).  Two modes:
//
//   top_run --jobs 24 --policy hetero --network fully-heterogeneous
//       runs a mixed multi-job stream with the snapshot service enabled
//       and renders the live counter plane it produced: one line per
//       dispatcher sample (queue depth, running gangs, free workers,
//       retries, control-plane bytes in flight) followed by a per-scope
//       rate table (collectives/s, p2p bytes/s, flops/s per job).
//
//   top_run --replay snapshots.json
//       renders a previously exported timeline instead of running one --
//       the replay of a CI artifact or a bench_smoke golden.
//
// --out writes the timeline as flat JSON (the snapshot-diff gate's input;
// see tools/report_diff --timeline), --csv as long-form CSV.  The rendered
// virtual-time series is deterministic in the workload; only host wording
// like sample counts per second would vary, and none is printed.
//
//   top_run --jobs 12 --resilient --crash 3@0.05 --interval 0.02
//
// --trace steady|diurnal|bursty|tenant-mix serves a seeded traffic trace
// (serve/traffic.hpp) with batching on instead of the plain cycle stream;
// the dispatcher then emits "tenant:<name>" scopes and the render adds a
// per-tenant service table (ready/running/riders/in-flight ranks, quota
// rejections, batched fan-outs).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "hsi/scene.hpp"
#include "obs/report_diff.hpp"
#include "obs/snapshot.hpp"
#include "sched/scheduler.hpp"
#include "serve/traffic.hpp"
#include "simnet/platform.hpp"
#include "tool_common.hpp"

namespace {

using namespace hprs;

double pvar_value(const obs::PvarSet& set, const std::string& name) {
  for (const obs::Pvar& var : set.sorted()) {
    if (var.name != name) continue;
    return var.cls == obs::PvarClass::kCounter
               ? static_cast<double>(var.count)
               : var.value;
  }
  return 0.0;
}

/// One dispatcher sample per line: the "live" view of the control plane.
void render_dispatcher(const obs::SnapshotTimeline& timeline) {
  bool header = false;
  for (const obs::SnapshotSample& s : timeline.samples()) {
    if (s.scope != "dispatcher") continue;
    if (!header) {
      std::printf("%10s %6s %6s %6s %6s %6s %6s %6s %6s %10s\n", "t_s",
                  "ready", "retryq", "run", "free", "disp", "done", "retry",
                  "lost", "inflight");
      header = true;
    }
    std::printf("%10.4f %6.0f %6.0f %6.0f %6.0f %6.0f %6.0f %6.0f %6.0f "
                "%10.0f\n",
                s.t_s, pvar_value(s.pvars, "queue.ready"),
                pvar_value(s.pvars, "queue.retry"),
                pvar_value(s.pvars, "gangs.running"),
                pvar_value(s.pvars, "workers.free"),
                pvar_value(s.pvars, "jobs.dispatched"),
                pvar_value(s.pvars, "jobs.completed"),
                pvar_value(s.pvars, "jobs.retried"),
                pvar_value(s.pvars, "workers.lost"),
                pvar_value(s.pvars, "bytes.in_flight"));
  }
  if (!header) std::printf("(no dispatcher samples)\n");
}

/// Per-tenant service table from the "tenant:<name>" scopes the
/// dispatcher emits for tenanted streams (sched/scheduler.cpp): the last
/// sample's live levels plus the cumulative counters.
void render_tenants(const obs::SnapshotTimeline& timeline) {
  std::map<std::string, const obs::SnapshotSample*> tenants;
  for (const obs::SnapshotSample& s : timeline.samples()) {
    if (s.scope.rfind("tenant:", 0) != 0) continue;
    const obs::SnapshotSample*& last = tenants[s.scope.substr(7)];
    if (last == nullptr || s.seq > last->seq) last = &s;
  }
  if (tenants.empty()) return;
  std::printf("\n%-16s %6s %6s %6s %8s %6s %8s %8s\n", "tenant", "ready",
              "run", "ride", "inflight", "done", "quota_rej", "batched");
  for (const auto& [name, s] : tenants) {
    std::printf("%-16s %6.0f %6.0f %6.0f %8.0f %6.0f %9.0f %8.0f\n",
                name.c_str(), pvar_value(s->pvars, "jobs.ready"),
                pvar_value(s->pvars, "gangs.running"),
                pvar_value(s->pvars, "jobs.riders"),
                pvar_value(s->pvars, "ranks.inflight"),
                pvar_value(s->pvars, "jobs.completed"),
                pvar_value(s->pvars, "jobs.rejected_quota"),
                pvar_value(s->pvars, "jobs.batched"));
  }
}

/// Per-scope rate table over each scope's first..last sample window.
void render_rates(const obs::SnapshotTimeline& timeline) {
  struct Window {
    const obs::SnapshotSample* first = nullptr;
    const obs::SnapshotSample* last = nullptr;
    std::size_t samples = 0;
  };
  std::map<std::string, Window> scopes;
  for (const obs::SnapshotSample& s : timeline.samples()) {
    Window& w = scopes[s.scope];
    if (w.first == nullptr || s.seq < w.first->seq) w.first = &s;
    if (w.last == nullptr || s.seq > w.last->seq) w.last = &s;
    ++w.samples;
  }
  std::printf("\n%-28s %5s %9s %11s %11s %11s\n", "scope", "n", "span_s",
              "colls/s", "p2p_MB/s", "Mflops/s");
  for (const auto& [scope, w] : scopes) {
    // Control-plane scopes carry no wire/flop counters.
    if (scope == "dispatcher" || scope.rfind("tenant:", 0) == 0) continue;
    const double dt = w.last->t_s - w.first->t_s;
    const auto rate = [&](const std::string& name, double scale) {
      if (dt <= 0.0) return 0.0;
      return (pvar_value(w.last->pvars, name) -
              pvar_value(w.first->pvars, name)) *
             scale / dt;
    };
    double colls = 0.0;
    for (const char* kind :
         {"barrier", "bcast", "gather", "scatter", "exchange"}) {
      colls += rate(std::string("collectives.") + kind, 1.0);
    }
    const double bytes = rate("collective_wire_bytes.bcast", 1.0) +
                         rate("collective_wire_bytes.gather", 1.0) +
                         rate("collective_wire_bytes.scatter", 1.0) +
                         rate("collective_wire_bytes.exchange", 1.0) +
                         rate("p2p.wire_bytes", 1.0);
    std::printf("%-28s %5zu %9.4f %11.1f %11.3f %11.1f\n", scope.c_str(),
                w.samples, dt, colls, bytes / 1e6,
                rate("ranks.flops", 1e-6));
  }
}

void render(const obs::SnapshotTimeline& timeline) {
  double t0 = 0.0;
  double t1 = 0.0;
  std::map<std::string, int, std::less<>> scopes;
  for (const obs::SnapshotSample& s : timeline.samples()) {
    if (scopes.empty()) t0 = t1 = s.t_s;
    t0 = std::min(t0, s.t_s);
    t1 = std::max(t1, s.t_s);
    ++scopes[s.scope];
  }
  std::printf("counter plane: %zu samples over %zu scopes, t in "
              "[%.4f, %.4f] s\n\n",
              timeline.size(), scopes.size(), t0, t1);
  render_dispatcher(timeline);
  render_tenants(timeline);
  render_rates(timeline);
}

int run(int argc, char** argv) {
  const CliArgs args(argc, argv,
                     {"replay", "out", "csv", "interval", "jobs", "gap",
                      "policy", "network", "cpus", "accels", "rows", "cols",
                      "bands", "seed", "replication", "targets", "classes",
                      "iters", "radius", "resilient", "checkpoint", "crash",
                      "trace", "duration"});

  obs::SnapshotTimeline timeline;
  const std::string replay_path = args.get("replay", "");
  if (!replay_path.empty()) {
    std::ifstream f(replay_path, std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "top_run: cannot open %s\n", replay_path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << f.rdbuf();
    std::map<std::string, std::string> flat;
    std::string error;
    if (!obs::parse_flat_json(text.str(), flat, error) ||
        !obs::timeline_from_flat(flat, timeline, error)) {
      std::fprintf(stderr, "top_run: %s: %s\n", replay_path.c_str(),
                   error.c_str());
      return 2;
    }
  } else {
    simnet::Platform platform = simnet::fully_heterogeneous();
    if (!tools::make_platform(args.get("network", "fully-heterogeneous"),
                       static_cast<std::size_t>(args.get_int("cpus", 16)),
                       static_cast<std::size_t>(args.get_int("accels", 2)),
                       platform)) {
      std::fprintf(stderr,
                   "top_run: unknown --network (want fully-heterogeneous, "
                   "fully-homogeneous, partially-heterogeneous, "
                   "partially-homogeneous, thunderhead, accelerated-now)\n");
      return 2;
    }
    const auto scene = tools::make_scene(args);
    vmpi::Options options;
    options.snapshot.enabled = true;
    options.snapshot.interval_s = args.get_double("interval", 0.05);
    sched::SchedulerConfig sched_cfg = tools::make_sched_config(args, options);

    const int pool = static_cast<int>(platform.size()) - 1;
    std::vector<sched::JobSpec> stream;
    const auto jobs = static_cast<std::size_t>(args.get_int("jobs", 12));
    const std::string trace_name = args.get("trace", "");
    if (!trace_name.empty()) {
      serve::TraceConfig trace_cfg = serve::preset_trace(trace_name);
      trace_cfg.jobs = jobs;
      trace_cfg.duration_s = args.get_double("duration", 0.1);
      trace_cfg.seed =
          static_cast<std::uint64_t>(args.get_int("seed", 20010916));
      for (serve::TenantProfile& tenant : trace_cfg.tenants) {
        tenant.targets = static_cast<std::size_t>(args.get_int("targets", 8));
        tenant.classes = static_cast<std::size_t>(args.get_int("classes", 5));
        tenant.max_ranks = std::min(tenant.max_ranks, pool);
        tenant.min_ranks = std::min(tenant.min_ranks, tenant.max_ranks);
        tenant.replication =
            static_cast<std::size_t>(args.get_int("replication", 8));
      }
      stream = serve::generate_trace(trace_cfg);
      sched_cfg.batching = true;
    } else {
      stream = tools::round_robin_stream(args, jobs,
                                         args.get_double("gap", 0.005), pool);
    }

    const auto result =
        sched::run_schedule(platform, scene.cube, stream, sched_cfg, options);
    timeline = result.report.snapshots;
    std::printf("%zu jobs on %s (%zu ranks), policy %s: makespan %.4f s\n",
                jobs, platform.name().c_str(), platform.size(),
                sched::to_string(result.policy), result.makespan_s);
    tools::print_lost_ranks(result);
  }

  render(timeline);

  const std::string out_path = args.get("out", "");
  if (!out_path.empty()) {
    if (!write_file(out_path, obs::snapshot_timeline_json(timeline))) {
      std::fprintf(stderr, "top_run: failed to write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("\ntimeline json: %s\n", out_path.c_str());
  }
  const std::string csv_path = args.get("csv", "");
  if (!csv_path.empty()) {
    if (!write_file(csv_path, obs::snapshot_timeline_csv(timeline))) {
      std::fprintf(stderr, "top_run: failed to write %s\n", csv_path.c_str());
      return 1;
    }
    std::printf("timeline csv: %s\n", csv_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 2);
}

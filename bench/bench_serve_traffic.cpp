// Scene-service traffic benchmark (the serving story the workflow papers
// benchmark: Paraskevakos 2019's task-parallel pipelines vs Al-Saadi
// 2020's bag-of-jobs fan-out, here over the paper's NOW platforms).
//
// Three cell families, all on the fully heterogeneous NOW:
//
//  * diurnal -- a --jobs-request diurnal trace from the skewed three-tenant
//    mix, served once per executor mode.  The per-tenant SLA documents of
//    the two modes must be character-identical (the service plane is
//    virtual-time only); any drift is a hard failure.
//  * mix_nobatch / mix_batch -- the shared-scene tenant mix served without
//    and with compute-once batching.  Batching must strictly win the
//    stream makespan (the survey tenant keeps asking one question).
//  * taskpar / bagofjobs -- the same trace as task-parallel gangs (each
//    request at its requested width) vs a bag of width-1 jobs, reproducing
//    the two workflow designs' wait/slowdown trade-off at thousands of
//    requests.
//
// All numbers are virtual time: every cell is bit-identical across runs
// and executor modes; at the default size, the --summary of every cell is
// the committed BENCH_serve.json.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/service.hpp"
#include "serve/traffic.hpp"

namespace {

using namespace hprs;

/// Peels "--<name> <value>" out of argv (make_setup rejects flags it does
/// not know); returns `fallback` when absent.
double take_double_flag(int& argc, char** argv, const std::string& name,
                        double fallback) {
  double value = fallback;
  int out = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--" + name && i + 1 < argc) {
      value = std::stod(argv[++i]);
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return value;
}

/// The tenant-mix trace every cell family serves, shrunk to test-scale
/// algorithm parameters so a request costs milliseconds of virtual time.
std::vector<sched::JobSpec> make_trace(serve::TrafficShape shape,
                                       std::size_t jobs, double duration_s,
                                       int max_ranks) {
  serve::TraceConfig config;
  config.shape = shape;
  config.jobs = jobs;
  config.duration_s = duration_s;
  config.seed = 20010916;
  config.tenants = serve::default_tenant_mix();
  for (serve::TenantProfile& tenant : config.tenants) {
    tenant.targets = 4;
    tenant.classes = 3;
    tenant.skewers = 32;
    tenant.max_ranks = std::min(tenant.max_ranks, max_ranks);
    tenant.min_ranks = std::min(tenant.min_ranks, tenant.max_ranks);
  }
  return serve::generate_trace(config);
}

vmpi::Options mode_options(vmpi::ExecMode mode) {
  vmpi::Options options;
  options.exec_mode = mode;
  return options;
}

const char* mode_name(vmpi::ExecMode mode) {
  return mode == vmpi::ExecMode::kBoundedExecutor ? "executor" : "threads";
}

/// Adds one service run's stream-wide makespan, utilization, wait and
/// slowdown percentiles, and request counts to the table and the summary.
void add_cell(TextTable& table, obs::RunSummary& summary,
              const std::string& scenario, const std::string& mode,
              const serve::ServiceResult& result, std::size_t total) {
  std::vector<double> waits;
  std::vector<double> slowdowns;
  for (const sched::JobRecord& record : result.schedule.records) {
    if (!record.completed()) continue;
    waits.push_back(record.queue_wait_s());
    const double makespan = record.makespan_s();
    slowdowns.push_back(
        makespan > 0.0 ? (record.queue_wait_s() + makespan) / makespan : 1.0);
  }
  const sched::ScheduleResult& schedule = result.schedule;
  const double wait_p50_s = serve::percentile(waits, 0.50);
  const double wait_p95_s = serve::percentile(waits, 0.95);
  const double slowdown_p95 = serve::percentile(slowdowns, 0.95);
  table.add_row({scenario, mode, TextTable::num(schedule.makespan_s, 3),
                 TextTable::num(schedule.utilization, 3),
                 TextTable::num(wait_p50_s, 3), TextTable::num(wait_p95_s, 3),
                 TextTable::num(slowdown_p95, 3),
                 std::to_string(schedule.completed()) + "/" +
                     std::to_string(total),
                 std::to_string(result.batches.riders)});

  const std::string prefix = "serve." + scenario + "." + mode;
  summary.set_number(prefix + ".makespan_s", schedule.makespan_s);
  summary.set_number(prefix + ".utilization", schedule.utilization);
  summary.set_number(prefix + ".wait_p50_s", wait_p50_s);
  summary.set_number(prefix + ".wait_p95_s", wait_p95_s);
  summary.set_number(prefix + ".slowdown_p95", slowdown_p95);
  summary.set_count(prefix + ".completed", schedule.completed());
  summary.set_count(prefix + ".rejected", schedule.rejected());
  summary.set_count(prefix + ".riders", result.batches.riders);
}

int run(int argc, char** argv) {
  const auto jobs = static_cast<std::size_t>(
      take_double_flag(argc, argv, "jobs", 1000));
  const double duration_s = take_double_flag(argc, argv, "duration", 600.0);
  const auto setup = bench::make_setup(argc, argv, bench::Summary::kWritten);

  const auto networks = bench::paper_networks();
  const auto net = std::find_if(
      networks.begin(), networks.end(), [](const simnet::Platform& n) {
        return n.name() == "fully-heterogeneous";
      });
  if (net == networks.end()) {
    std::fprintf(stderr, "bench_serve_traffic: no fully-heterogeneous "
                         "network in paper_networks()\n");
    return 1;
  }
  const int pool = static_cast<int>(net->size()) - 1;
  int status = 0;
  obs::RunSummary summary;
  TextTable table({"Scenario", "Mode", "Makespan (s)", "Util", "Wait p50 (s)",
                   "Wait p95 (s)", "Slow p95", "Done", "Riders"});

  // -- diurnal SLA cell: both executor modes, SLA plane bit-identical ----
  const auto diurnal = make_trace(serve::TrafficShape::kDiurnal, jobs,
                                  duration_s, std::min(pool, 6));
  serve::ServiceConfig sla_config;
  sla_config.batching = true;
  sla_config.quotas["adhoc"].max_inflight_ranks = 2 * std::min(pool, 6);
  sla_config.record_metrics = false;
  std::string sla_doc[2];
  for (const auto mode : {vmpi::ExecMode::kBoundedExecutor,
                          vmpi::ExecMode::kThreadPerRank}) {
    const auto result = serve::run_service(*net, setup.scene.cube, diurnal,
                                           sla_config, mode_options(mode));
    obs::RunSummary sla;
    serve::add_sla_summary(sla, "serve.diurnal", result);
    sla_doc[mode == vmpi::ExecMode::kThreadPerRank ? 1 : 0] = sla.to_json();
    add_cell(table, summary, "diurnal", mode_name(mode), result,
             diurnal.size());
  }
  if (sla_doc[0] != sla_doc[1]) {
    std::fprintf(stderr,
                 "bench_serve_traffic: per-tenant SLA reports differ "
                 "between executor modes\n");
    status = 1;
  }

  // -- batching cell: compute-once must win the shared-scene mix ---------
  // Compressed span: the batching story needs concurrent shared-scene
  // requests, so the mix arrives an order of magnitude hotter than the
  // diurnal trace.
  const std::size_t mix_jobs = std::max<std::size_t>(jobs / 2, 8);
  const auto mix = make_trace(serve::TrafficShape::kTenantMix, mix_jobs,
                              0.05 * duration_s, std::min(pool, 6));
  serve::ServiceConfig mix_config;
  mix_config.record_metrics = false;
  serve::ServiceConfig batch_config = mix_config;
  batch_config.batching = true;
  const auto nobatch =
      serve::run_service(*net, setup.scene.cube, mix, mix_config);
  const auto batch =
      serve::run_service(*net, setup.scene.cube, mix, batch_config);
  add_cell(table, summary, "mix_nobatch", "executor", nobatch, mix.size());
  add_cell(table, summary, "mix_batch", "executor", batch, mix.size());
  std::printf("tenant-mix: batch/nobatch makespan %.3f/%.3f s (%.2fx), "
              "%zu riders\n",
              batch.schedule.makespan_s, nobatch.schedule.makespan_s,
              batch.schedule.makespan_s > 0.0
                  ? nobatch.schedule.makespan_s / batch.schedule.makespan_s
                  : 0.0,
              batch.batches.riders);
  if (batch.schedule.makespan_s >= nobatch.schedule.makespan_s ||
      batch.batches.riders == 0) {
    std::fprintf(stderr, "bench_serve_traffic: batching failed to beat "
                         "no-batching on the shared-scene mix\n");
    status = 1;
  }

  // -- workflow-design cell: task-parallel gangs vs a bag of jobs --------
  auto bag = mix;
  for (sched::JobSpec& spec : bag) spec.ranks = 1;
  const auto taskpar =
      serve::run_service(*net, setup.scene.cube, mix, mix_config);
  const auto bagofjobs =
      serve::run_service(*net, setup.scene.cube, bag, mix_config);
  add_cell(table, summary, "taskpar", "executor", taskpar, mix.size());
  add_cell(table, summary, "bagofjobs", "executor", bagofjobs, bag.size());

  bench::emit(table, setup.csv,
              "Scene-service traffic. Tenant-mix traces on the fully "
              "heterogeneous NOW (virtual time).");

  if (!bench::write_summary(setup.summary_path, summary)) return 1;
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  return hprs::run_main(argc, argv, run, 1);
}

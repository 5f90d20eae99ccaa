#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <set>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "common/rng.hpp"
#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/run_summary.hpp"
#include "obs/snapshot.hpp"
#include "sched/cost_model.hpp"
#include "sched/policy.hpp"
#include "serve/batcher.hpp"
#include "serve/tenant.hpp"
#include "serve/traffic.hpp"
#include "vmpi/engine.hpp"

namespace perfbench {

namespace core = hprs::core;
namespace hsi = hprs::hsi;
namespace obs = hprs::obs;
namespace sched = hprs::sched;
namespace serve = hprs::serve;
namespace simnet = hprs::simnet;
namespace vmpi = hprs::vmpi;

namespace {

/// serve_diurnal keeps bench_serve_traffic's rate of 1000 requests per
/// 600 virtual seconds; resilient_burst arrives at 30 requests per second.
constexpr double kDiurnalSecondsPerRequest = 0.6;
constexpr double kBurstRequestsPerSecond = 30.0;
/// The adhoc tenant's in-flight cap in serve_diurnal: twice the widest
/// gang (bench_serve_traffic's diurnal cell).
constexpr int kAdhocInflightRanks = 12;
/// top_run's counter-plane interval.
constexpr double kSnapshotIntervalS = 0.05;

struct Size {
  std::size_t rows, cols, bands, requests, replication;
};

Size size_of(Workload workload, Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  switch (workload) {
    case Workload::kServeDiurnal:
      return tiny ? Size{24, 24, 16, 60, 16} : Size{96, 96, 224, 200, 1};
    case Workload::kTable8P256:
      // bench_table8_thunderhead's defaults; 256 rows is the least a
      // 256-way partition accepts.
      return tiny ? Size{256, 16, 32, 0, 1} : Size{1067, 32, 224, 0, 32};
    case Workload::kResilientBurst:
      // Narrow band so numerics are tiny; replication backs the bursts up.
      return tiny ? Size{16, 16, 16, 120, 4} : Size{32, 32, 32, 2000, 32};
  }
  return {};
}

/// bench_serve_traffic's make_trace: the default tenant mix shrunk to
/// test-scale algorithm parameters.
std::vector<sched::JobSpec> make_trace(serve::TrafficShape shape,
                                       std::size_t requests,
                                       double duration_s, std::uint64_t seed,
                                       int max_ranks,
                                       std::size_t replication) {
  serve::TraceConfig config;
  config.shape = shape;
  config.jobs = requests;
  config.duration_s = duration_s;
  config.seed = seed;
  config.tenants = serve::default_tenant_mix();
  for (serve::TenantProfile& tenant : config.tenants) {
    tenant.targets = 4;
    tenant.classes = 3;
    tenant.skewers = 32;
    tenant.replication = replication;
    tenant.max_ranks = std::min(tenant.max_ranks, max_ranks);
    tenant.min_ranks = std::min(tenant.min_ranks, tenant.max_ranks);
  }
  return serve::generate_trace(config);
}

vmpi::Options engine_options(const RunSettings& settings, bool snapshots) {
  vmpi::Options options;
  options.executor_workers = settings.executor_workers;
  if (settings.thread_per_rank) {
    options.exec_mode = vmpi::ExecMode::kThreadPerRank;
  }
  options.snapshot.enabled = snapshots;
  options.snapshot.interval_s = kSnapshotIntervalS;
  return options;
}

serve::ServiceConfig diurnal_service_config(bool record_metrics) {
  serve::ServiceConfig config;
  config.batching = true;
  config.quotas["adhoc"].max_inflight_ranks = kAdhocInflightRanks;
  config.record_metrics = record_metrics;
  return config;
}

const std::vector<core::Algorithm>& table8_algorithms() {
  static const std::vector<core::Algorithm> algs = {
      core::Algorithm::kAtdca, core::Algorithm::kUfcls, core::Algorithm::kPct,
      core::Algorithm::kMorph};
  return algs;
}

std::uint64_t report_digest(const vmpi::RunReport& report) {
  Fnv1a h;
  h.pod(report.total_time);
  for (const vmpi::RankStats& s : report.ranks) {
    h.pod(s.clock);
    h.pod(s.compute_par);
    h.pod(s.compute_seq);
    h.pod(s.comm);
    h.pod(s.wait);
    h.pod(s.flops);
    h.pod(s.bytes_sent);
    h.pod(s.bytes_received);
  }
  return h.value();
}

sched::JobOutput as_job_output(const core::RunnerOutput& out) {
  sched::JobOutput job;
  job.targets = out.targets;
  job.labels = out.labels;
  job.label_count = out.label_count;
  return job;
}

/// The SLA document and snapshot timeline: the serve workloads' result.
void export_documents(Result& result, SpanRecorder* spans) {
  {
    ScopedSpan span(spans, "serve.sla_export");
    {
      ScopedSpan inner(spans, "serve.tenant_slas");
      result.service.tenants =
          serve::tenant_slas(result.service.schedule.records);
    }
    obs::RunSummary summary;
    {
      ScopedSpan inner(spans, "serve.add_sla_summary");
      serve::add_sla_summary(summary, "serve", result.service);
    }
    ScopedSpan inner(spans, "obs.RunSummary.to_json");
    result.sla_json = summary.to_json();
  }
  ScopedSpan span(spans, "obs.snapshot_timeline_json");
  result.timeline_json =
      obs::snapshot_timeline_json(result.service.schedule.report.snapshots);
}

void digest_requests(const Inputs& inputs, Result& result) {
  const sched::ScheduleResult& schedule = result.service.schedule;
  result.virtual_makespan_s = schedule.makespan_s;
  result.items.reserve(inputs.trace.size());
  for (std::size_t i = 0; i < inputs.trace.size(); ++i) {
    Item item;
    item.id = inputs.trace[i].id;
    if (i < schedule.records.size()) {
      const sched::JobRecord& record = schedule.records[i];
      item.record = record_digest(record);
      item.output = output_digest(schedule.outputs[i]);
      item.outcome = classify(record, true);
      if (record.completed()) {
        result.response_s.push_back(record.finish_s - record.arrival_s);
      }
    }
    result.items.push_back(item);
  }
  Fnv1a h;
  h.text(result.sla_json);
  h.text(result.timeline_json);
  result.documents = h.value();
}

/// Band covariance of a uniform pixel subsample (the PCT eigenproblem's
/// shape, without running PCT).
hprs::linalg::Matrix band_covariance(const hsi::HsiCube& cube) {
  const std::size_t bands = cube.bands();
  const std::size_t pixels = cube.pixel_count();
  const std::size_t stride = std::max<std::size_t>(1, pixels / 4096);
  std::vector<double> mean(bands, 0.0);
  std::size_t n = 0;
  for (std::size_t p = 0; p < pixels; p += stride, ++n) {
    const auto px = cube.pixel(p / cube.cols(), p % cube.cols());
    for (std::size_t b = 0; b < bands; ++b) mean[b] += px[b];
  }
  for (double& m : mean) m /= static_cast<double>(n);
  hprs::linalg::Matrix cov(bands, bands);
  std::vector<double> d(bands);
  for (std::size_t p = 0; p < pixels; p += stride) {
    const auto px = cube.pixel(p / cube.cols(), p % cube.cols());
    for (std::size_t b = 0; b < bands; ++b) d[b] = px[b] - mean[b];
    for (std::size_t i = 0; i < bands; ++i) {
      for (std::size_t j = i; j < bands; ++j) cov(i, j) += d[i] * d[j];
    }
  }
  for (std::size_t i = 0; i < bands; ++i) {
    for (std::size_t j = i; j < bands; ++j) {
      cov(i, j) /= static_cast<double>(n);
      cov(j, i) = cov(i, j);
    }
  }
  return cov;
}

double seconds_since(const SpanRecorder& spans, double start) {
  return spans.now_s() - start;
}

/// Host microseconds per communication operation of a program shaped like
/// the workload: 256-rank collectives for table8_p256, small-gang p2p on
/// sub-communicators for the serve workloads.
double engine_probe_us_per_op(const Inputs& inputs, const RunSettings& settings,
                              SpanRecorder& spans) {
  ScopedSpan span(&spans, "vmpi.Engine.run(probe)");
  constexpr int kRounds = 200;
  vmpi::Options options = engine_options(settings, false);
  std::uint64_t ops = 0;
  const double start = spans.now_s();
  if (inputs.workload == Workload::kTable8P256) {
    vmpi::Engine engine(inputs.platform, options);
    engine.run([&](vmpi::Comm& world) {
      for (int r = 0; r < kRounds; ++r) {
        const double sum = world.allreduce(
            1.0, sizeof(double), [](double a, double b) { return a + b; });
        const int echo = world.bcast(world.root(), r, sizeof(int));
        (void)sum;
        (void)echo;
      }
    });
    ops = 2ULL * kRounds;
  } else {
    // Gangs of 2, 3, 4 and 6 workers after rank 0, the idle dispatcher.
    std::vector<std::vector<int>> gangs;
    int next = 1;
    for (const int width : {2, 3, 4, 6}) {
      if (next + width > static_cast<int>(inputs.platform.size())) break;
      gangs.emplace_back();
      for (int m = next; m < next + width; ++m) gangs.back().push_back(m);
      next += width;
      ops += 2ULL * static_cast<std::uint64_t>(width - 1) * kRounds;
    }
    vmpi::Engine engine(inputs.platform, options);
    engine.run([&](vmpi::Comm& world) {
      for (std::size_t g = 0; g < gangs.size(); ++g) {
        const std::vector<int>& members = gangs[g];
        if (world.rank() < members.front() || world.rank() > members.back()) {
          continue;
        }
        vmpi::Comm gang = world.subset(members, 1000 + g);
        for (int r = 0; r < kRounds; ++r) {
          if (gang.rank() == 0) {
            for (int m = 1; m < gang.size(); ++m) gang.send(m, r, 64);
            for (int m = 1; m < gang.size(); ++m) (void)gang.recv<int>(m);
          } else {
            gang.send(0, gang.recv<int>(0), 64);
          }
        }
      }
    });
  }
  return ops == 0 ? 0.0 : seconds_since(spans, start) * 1e6 /
                              static_cast<double>(ops);
}

double metric_count(const obs::Metrics::Snapshot& snapshot,
                    std::string_view name) {
  for (const auto& [key, value] : snapshot) {
    if (key == name) return static_cast<double>(value.count);
  }
  return 0.0;
}

double metric_prefix_sum(const obs::Metrics::Snapshot& snapshot,
                         std::string_view prefix) {
  double sum = 0.0;
  for (const auto& [key, value] : snapshot) {
    if (key.compare(0, prefix.size(), prefix) == 0) {
      sum += static_cast<double>(value.count);
    }
  }
  return sum;
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> workloads = {
      Workload::kServeDiurnal, Workload::kTable8P256,
      Workload::kResilientBurst};
  return workloads;
}

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kServeDiurnal: return "serve_diurnal";
    case Workload::kTable8P256: return "table8_p256";
    case Workload::kResilientBurst: return "resilient_burst";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : all_workloads()) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

std::uint64_t input_seed(std::uint64_t seed, int input) {
  hprs::SplitMix64 rng(seed);
  std::uint64_t value = rng.next();
  for (int i = 0; i < input; ++i) value = rng.next();
  return value;
}

Inputs make_inputs(Workload workload, std::uint64_t seed, Scale scale,
                   SpanRecorder* spans) {
  const Size size = size_of(workload, scale);
  hsi::SceneConfig scene_config;
  scene_config.rows = size.rows;
  scene_config.cols = size.cols;
  scene_config.bands = size.bands;
  scene_config.seed = seed;
  hsi::Scene scene;
  {
    ScopedSpan span(spans, "hsi.generate_wtc_scene");
    scene = hsi::generate_wtc_scene(scene_config);
  }
  simnet::Platform platform = [&] {
    ScopedSpan span(spans, "simnet.platform");
    return workload == Workload::kTable8P256 ? simnet::thunderhead(256)
                                             : simnet::fully_heterogeneous();
  }();
  Inputs inputs{workload, std::move(scene), std::move(platform), {}, {}};
  if (workload == Workload::kTable8P256) {
    // bench_table8_thunderhead's make_setup defaults.
    inputs.runner.targets = 18;
    inputs.runner.classes = 14;
    inputs.runner.morph_iterations = 5;
    inputs.runner.kernel_radius = 2;
    inputs.runner.sad_threshold = 0.06;
    inputs.runner.replication = size.replication;
    return inputs;
  }
  const int max_ranks =
      std::min(static_cast<int>(inputs.platform.size()) - 1, 6);
  const auto requests = static_cast<double>(size.requests);
  ScopedSpan span(spans, "serve.generate_trace");
  inputs.trace =
      workload == Workload::kServeDiurnal
          ? make_trace(serve::TrafficShape::kDiurnal, size.requests,
                       kDiurnalSecondsPerRequest * requests, seed, max_ranks,
                       size.replication)
          : make_trace(serve::TrafficShape::kBursty, size.requests,
                       requests / kBurstRequestsPerSecond, seed, max_ranks,
                       size.replication);
  return inputs;
}

Result run_workload(const Inputs& inputs, const RunSettings& settings,
                    SpanRecorder* spans) {
  Result result;
  try {
    switch (inputs.workload) {
      case Workload::kServeDiurnal: {
        {
          ScopedSpan span(spans, "serve.run_service");
          result.service = serve::run_service(
              inputs.platform, inputs.scene.cube, inputs.trace,
              diurnal_service_config(settings.record_metrics),
              engine_options(settings, true));
        }
        export_documents(result, spans);
        break;
      }
      case Workload::kResilientBurst: {
        sched::SchedulerConfig config;
        config.record_metrics = settings.record_metrics;
        config.resilience.enabled = true;
        {
          ScopedSpan span(spans, "sched.run_schedule");
          result.service.schedule =
              sched::run_schedule(inputs.platform, inputs.scene.cube,
                                  inputs.trace, config,
                                  engine_options(settings, true));
        }
        result.service.batches =
            serve::summarize_batches(result.service.schedule.records);
        export_documents(result, spans);
        break;
      }
      case Workload::kTable8P256: {
        for (const core::Algorithm alg : table8_algorithms()) {
          core::RunnerConfig config = inputs.runner;
          config.algorithm = alg;
          ScopedSpan span(spans, std::string("core.run_algorithm(") +
                                     core::to_string(alg) + ")");
          result.runs.push_back(core::run_algorithm(
              inputs.platform, inputs.scene.cube, config,
              engine_options(settings, false)));
        }
        break;
      }
    }
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  return result;
}

void digest_result(const Inputs& inputs, Result& result) {
  if (inputs.workload != Workload::kTable8P256) {
    digest_requests(inputs, result);
    return;
  }
  for (std::size_t k = 0; k < table8_algorithms().size(); ++k) {
    Item item;
    item.id = k + 1;
    if (k < result.runs.size()) {
      item.record = report_digest(result.runs[k].report);
      item.output = output_digest(as_job_output(result.runs[k]));
      item.outcome = Outcome::kOk;
      result.virtual_makespan_s += result.runs[k].report.total_time;
    }
    result.items.push_back(item);
  }
}

std::size_t check_invariants(const Inputs& inputs, Result& result) {
  std::set<std::size_t> bad;
  if (inputs.workload == Workload::kTable8P256) {
    const std::size_t pixels = inputs.scene.cube.pixel_count();
    for (std::size_t k = 0; k < result.runs.size(); ++k) {
      const core::RunnerOutput& run = result.runs[k];
      const core::Algorithm alg = table8_algorithms()[k];
      const bool detector =
          alg == core::Algorithm::kAtdca || alg == core::Algorithm::kUfcls;
      const bool shaped =
          detector
              ? run.targets.size() == inputs.runner.targets
              : run.labels.size() == pixels &&
                    std::all_of(run.labels.begin(), run.labels.end(),
                                [&](std::uint16_t l) {
                                  return l < run.label_count;
                                });
      if (!shaped || !(run.report.total_time > 0.0)) bad.insert(k);
    }
  } else {
    const sched::ScheduleResult& schedule = result.service.schedule;
    std::unordered_map<std::uint64_t, std::size_t> by_id;
    for (std::size_t i = 0; i < schedule.records.size(); ++i) {
      by_id[schedule.records[i].id] = i;
    }
    // Busy intervals per rank: [dispatch, end) of every gang attempt.
    std::map<int, std::vector<std::tuple<double, double, std::size_t>>> busy;
    for (std::size_t i = 0; i < schedule.records.size(); ++i) {
      const sched::JobRecord& record = schedule.records[i];
      if (!record.completed()) continue;
      if (record.finish_s < record.arrival_s) bad.insert(i);
      if (record.batched_into != 0) {
        const auto leader = by_id.find(record.batched_into);
        if (leader == by_id.end() ||
            !sched::compute_equivalent(inputs.trace[i],
                                       inputs.trace[leader->second]) ||
            output_digest(schedule.outputs[i]) !=
                output_digest(schedule.outputs[leader->second])) {
          bad.insert(i);
        }
        continue;
      }
      if (record.dispatch_s < record.arrival_s ||
          record.finish_s < record.dispatch_s || record.members.empty()) {
        bad.insert(i);
      }
      if (record.attempts.empty()) {
        for (const int m : record.members) {
          busy[m].emplace_back(record.dispatch_s, record.finish_s, i);
        }
      }
      for (const sched::JobAttempt& attempt : record.attempts) {
        for (const int m : attempt.members) {
          busy[m].emplace_back(attempt.dispatch_s, attempt.end_s, i);
        }
      }
    }
    for (auto& [rank, intervals] : busy) {
      std::sort(intervals.begin(), intervals.end());
      for (std::size_t k = 1; k < intervals.size(); ++k) {
        if (std::get<0>(intervals[k]) < std::get<1>(intervals[k - 1])) {
          bad.insert(std::get<2>(intervals[k]));
          bad.insert(std::get<2>(intervals[k - 1]));
        }
      }
    }
  }
  std::size_t marked = 0;
  for (const std::size_t i : bad) {
    if (i < result.items.size() &&
        result.items[i].outcome == Outcome::kOk) {
      result.items[i].outcome = Outcome::kWrong;
      ++marked;
    }
  }
  return marked;
}

std::string format_reference(const Result& result) {
  std::ostringstream os;
  char line[128];
  std::snprintf(line, sizeof(line), "makespan %a\ndocuments %016llx\n",
                result.virtual_makespan_s,
                static_cast<unsigned long long>(result.documents));
  os << line;
  for (const Item& item : result.items) {
    if (item.outcome != Outcome::kOk) continue;
    std::snprintf(line, sizeof(line), "item %llu %016llx %016llx\n",
                  static_cast<unsigned long long>(item.id),
                  static_cast<unsigned long long>(item.record),
                  static_cast<unsigned long long>(item.output));
    os << line;
  }
  return os.str();
}

std::optional<Reference> parse_reference(std::string_view text) {
  Reference reference;
  std::istringstream is{std::string(text)};
  std::string key;
  bool makespan = false;
  bool documents = false;
  while (is >> key) {
    if (key == "makespan") {
      std::string hex;
      if (!(is >> hex)) return std::nullopt;
      reference.virtual_makespan_s = std::strtod(hex.c_str(), nullptr);
      makespan = true;
    } else if (key == "documents") {
      if (!(is >> std::hex >> reference.documents >> std::dec)) {
        return std::nullopt;
      }
      documents = true;
    } else if (key == "item") {
      std::uint64_t id = 0;
      std::uint64_t record = 0;
      std::uint64_t output = 0;
      if (!(is >> std::dec >> id >> std::hex >> record >> output >>
            std::dec)) {
        return std::nullopt;
      }
      reference.items[id] = {record, output};
    } else {
      return std::nullopt;
    }
  }
  if (!makespan || !documents) return std::nullopt;
  return reference;
}

std::size_t compare_with_reference(const Reference& reference,
                                   Result& result) {
  const bool whole_run_differs =
      reference.virtual_makespan_s != result.virtual_makespan_s ||
      reference.documents != result.documents;
  std::size_t marked = 0;
  for (Item& item : result.items) {
    if (item.outcome != Outcome::kOk) continue;
    const auto it = reference.items.find(item.id);
    if (whole_run_differs || it == reference.items.end() ||
        it->second.first != item.record ||
        it->second.second != item.output) {
      item.outcome = Outcome::kWrong;
      ++marked;
    }
  }
  return marked;
}

std::map<std::string, double> layer_metrics(const Inputs& inputs,
                                            const Result& result,
                                            const RunSettings& settings,
                                            SpanRecorder& spans) {
  std::map<std::string, double> m;
  const obs::Metrics::Snapshot counters = obs::Metrics::instance().snapshot();

  m["hsi.scene_gen_s"] = spans.total("hsi.generate_wtc_scene");
  m["core.flops"] = metric_count(counters, "vmpi.flops");
  m["vmpi.collectives"] = metric_prefix_sum(counters, "vmpi.collectives.");
  m["vmpi.p2p_messages"] = metric_count(counters, "vmpi.p2p.messages");
  m["vmpi.wire_bytes"] =
      metric_prefix_sum(counters, "vmpi.collective_wire_bytes.") +
      metric_count(counters, "vmpi.p2p.wire_bytes");
  m["vmpi.parks"] = metric_count(counters, "vmpi.host.executor.parks");
  m["vmpi.wakeups"] = metric_count(counters, "vmpi.host.wakeups_targeted") +
                      metric_count(counters, "vmpi.host.wakeups_broadcast");

  // Eigensolver probe on this scene's band covariance; calls are the PCT
  // computations the workload ran (riders reuse a leader's).
  {
    const hprs::linalg::Matrix cov = band_covariance(inputs.scene.cube);
    ScopedSpan span(&spans, "linalg.jacobi_eigen(probe)");
    const double start = spans.now_s();
    const hprs::linalg::EigenDecomposition eig = hprs::linalg::jacobi_eigen(cov);
    m["linalg.eigen_ms"] = seconds_since(spans, start) * 1e3;
    m["linalg.eigen_sweeps"] = eig.sweeps;
  }
  double pct_runs = 0.0;
  if (inputs.workload == Workload::kTable8P256) {
    pct_runs = 1.0;
  } else {
    for (const sched::JobRecord& record : result.service.schedule.records) {
      if (record.algorithm == sched::JobAlgorithm::kPct &&
          record.completed() && record.batched_into == 0) {
        pct_runs += static_cast<double>(
            std::max<std::size_t>(1, record.attempts.size()));
      }
    }
  }
  m["linalg.eigen_calls"] = pct_runs;
  m["vmpi.host_us_per_op"] = engine_probe_us_per_op(inputs, settings, spans);

  if (inputs.workload == Workload::kTable8P256) {
    // Single-threaded baseline: the same four runs on one processor.
    ScopedSpan span(&spans, "core.run_algorithm(p=1 baseline)");
    const double start = spans.now_s();
    const simnet::Platform one = simnet::thunderhead(1);
    for (const core::Algorithm alg : table8_algorithms()) {
      core::RunnerConfig config = inputs.runner;
      config.algorithm = alg;
      (void)core::run_algorithm(one, inputs.scene.cube, config,
                                engine_options(settings, false));
    }
    m["core.numerics_s"] = seconds_since(spans, start);
    return m;
  }

  const sched::ScheduleResult& schedule = result.service.schedule;
  m["serve.trace_gen_s"] = spans.total("serve.generate_trace");
  {
    // Admission pre-pass over the whole stream, as run_service applies it.
    const serve::TenantQuotas quotas =
        inputs.workload == Workload::kServeDiurnal
            ? diurnal_service_config(false).quotas
            : serve::TenantQuotas{};
    ScopedSpan span(&spans, "serve.apply_rate_limits(probe)");
    const double start = spans.now_s();
    std::vector<serve::RateRejection> rejected;
    (void)serve::apply_rate_limits(inputs.trace, quotas, rejected);
    m["serve.admission_s"] = seconds_since(spans, start);
  }
  double completed = 0.0;
  double riders = 0.0;
  double quota_rejected = 0.0;
  double gangs = 0.0;
  std::vector<double> waits;
  std::vector<double> runs;
  for (const sched::JobRecord& record : schedule.records) {
    if (record.error.rfind("quota:", 0) == 0) quota_rejected += 1.0;
    if (!record.completed()) continue;
    completed += 1.0;
    waits.push_back(record.queue_wait_s());
    runs.push_back(record.makespan_s());
    if (record.batched_into != 0) {
      riders += 1.0;
    } else {
      gangs += static_cast<double>(
          std::max<std::size_t>(1, record.attempts.size()));
    }
  }
  m["serve.rider_share"] = completed > 0.0 ? riders / completed : 0.0;
  m["serve.quota_rejected"] = quota_rejected;
  m["serve.sla_export_s"] = spans.total("serve.sla_export");
  m["sched.gangs"] = gangs;
  m["sched.wait_p95_s"] = serve::percentile(waits, 0.95);
  m["sched.span_p95_s"] = serve::percentile(runs, 0.95);
  m["sched.utilization"] = schedule.utilization;
  m["sched.attempts"] = metric_count(counters, "sched.resilience.attempts");
  m["sched.checkpoints"] =
      metric_count(counters, "sched.resilience.checkpoints");
  m["obs.snapshot_samples"] =
      static_cast<double>(schedule.report.snapshots.size());
  m["obs.timeline_export_s"] = spans.total("obs.snapshot_timeline_json");
  {
    // The four cost-model calls the dispatcher makes per request, over the
    // stream against the full worker pool.
    ScopedSpan span(&spans, "sched.cost_model(probe)");
    const double start = spans.now_s();
    std::vector<int> workers;
    for (int r = 1; r < static_cast<int>(inputs.platform.size()); ++r) {
      workers.push_back(r);
    }
    for (const sched::JobSpec& spec : inputs.trace) {
      sched::check_admission(inputs.platform, workers, spec,
                             inputs.scene.cube);
      std::vector<int> members =
          sched::pick_members(sched::Policy::kHeteroBestFit, inputs.platform,
                              workers, spec.ranks);
      members = sched::refine_members(inputs.platform, workers,
                                      std::move(members), spec,
                                      inputs.scene.cube);
      (void)sched::estimate_job(inputs.platform, members, spec,
                                inputs.scene.cube);
    }
    m["sched.costmodel_s"] = seconds_since(spans, start);
  }
  return m;
}

std::string chrome_trace_json(const Result& result,
                              const SpanRecorder& spans) {
  std::ostringstream os;
  char buf[256];
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  os << "{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", \"args\": "
        "{\"name\": \"host clock (benchmark spans)\"}},\n";
  os << "{\"ph\": \"M\", \"pid\": 2, \"name\": \"process_name\", \"args\": "
        "{\"name\": \"virtual clock (per request)\"}}";
  for (const SpanRecorder::Span& span : spans.spans()) {
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"name\": ",
                  span.begin_s * 1e6, (span.end_s - span.begin_s) * 1e6);
    os << buf << json_string(span.name);
    std::snprintf(buf, sizeof(buf), ", \"args\": {\"id\": %d, \"parent\": %d}}",
                  span.id, span.parent);
    os << buf;
  }
  const auto virtual_span = [&](std::uint64_t id, const char* name,
                                double begin_s, double end_s) {
    if (begin_s < 0.0 || end_s < begin_s) return;
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"ph\": \"X\", \"pid\": 2, \"tid\": %llu, \"ts\": "
                  "%.3f, \"dur\": %.3f, \"name\": \"%s\", \"args\": "
                  "{\"request\": %llu}}",
                  static_cast<unsigned long long>(id), begin_s * 1e6,
                  (end_s - begin_s) * 1e6, name,
                  static_cast<unsigned long long>(id));
    os << buf;
  };
  for (const sched::JobRecord& record : result.service.schedule.records) {
    if (!record.completed()) continue;
    const double started =
        record.attempts.empty() ? record.dispatch_s
                                : record.attempts.front().dispatch_s;
    virtual_span(record.id, "sched.wait", record.arrival_s,
                 std::max(record.arrival_s, started));
    if (record.batched_into != 0) {
      virtual_span(record.id, "sched.rider",
                   std::max(record.arrival_s, record.dispatch_s),
                   record.finish_s);
    } else if (record.attempts.empty()) {
      virtual_span(record.id, "sched.run", record.dispatch_s,
                   record.finish_s);
    } else {
      for (const sched::JobAttempt& attempt : record.attempts) {
        virtual_span(record.id, "sched.attempt", attempt.dispatch_s,
                     attempt.end_s);
      }
    }
  }
  os << "\n], \"otherData\": {";
  bool first = true;
  for (const auto& [name, value] : obs::Metrics::instance().snapshot()) {
    os << (first ? "\n" : ",\n") << json_string(name) << ": ";
    first = false;
    if (value.kind == obs::MetricKind::kCounter) {
      os << value.count;
    } else {
      std::snprintf(buf, sizeof(buf), "%.9g", value.value);
      os << buf;
    }
  }
  os << "\n}}\n";
  return os.str();
}

}  // namespace perfbench

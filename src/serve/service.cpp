#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"

namespace hprs::serve {

namespace {

const std::string& display_name(const std::string& tenant) {
  static const std::string kDefault = "default";
  return tenant.empty() ? kDefault : tenant;
}

}  // namespace

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(xs.size()))));
  return xs[rank - 1];
}

std::vector<TenantSla> tenant_slas(
    const std::vector<sched::JobRecord>& records) {
  struct Acc {
    TenantSla sla;
    std::vector<double> waits, makespans, slowdowns;
  };
  std::map<std::string, Acc> by_tenant;
  for (const sched::JobRecord& record : records) {
    Acc& acc = by_tenant[display_name(record.tenant)];
    ++acc.sla.requests;
    if (record.state == sched::JobState::kRejected) {
      ++acc.sla.rejected;
      continue;
    }
    if (!record.completed()) continue;
    ++acc.sla.completed;
    if (record.batched_into != 0) ++acc.sla.riders;
    acc.sla.busy_s += record.busy_s;
    const double wait = record.queue_wait_s();
    const double makespan = record.makespan_s();
    acc.waits.push_back(wait);
    acc.makespans.push_back(makespan);
    // Bounded slowdown: response time over pure run time, floored at 1.
    acc.slowdowns.push_back(
        makespan > 0.0 ? (wait + makespan) / makespan : 1.0);
  }
  std::vector<TenantSla> slas;
  slas.reserve(by_tenant.size());
  for (auto& [name, acc] : by_tenant) {
    acc.sla.name = name;
    acc.sla.wait_p50_s = percentile(acc.waits, 0.50);
    acc.sla.wait_p95_s = percentile(acc.waits, 0.95);
    acc.sla.makespan_p50_s = percentile(acc.makespans, 0.50);
    acc.sla.makespan_p95_s = percentile(acc.makespans, 0.95);
    acc.sla.slowdown_p50 = percentile(acc.slowdowns, 0.50);
    acc.sla.slowdown_p95 = percentile(acc.slowdowns, 0.95);
    slas.push_back(std::move(acc.sla));
  }
  return slas;
}

ServiceResult run_service(const simnet::Platform& platform,
                          const hsi::HsiCube& scene,
                          const std::vector<sched::JobSpec>& stream,
                          const sched::SchedulerConfig& config,
                          vmpi::Options options) {
  ServiceResult result;
  result.schedule = sched::run_schedule(platform, scene, stream, config,
                                        std::move(options));
  for (const sched::JobRecord& record : result.schedule.records) {
    if (record.error.rfind("quota:rate_limit", 0) == 0) ++result.rate_rejected;
  }
  result.batches = summarize_batches(result.schedule.records);
  result.tenants = tenant_slas(result.schedule.records);

  if (config.record_metrics) {
    auto& metrics = obs::Metrics::instance();
    metrics.add("serve.requests", stream.size());
    metrics.add("serve.rejected.rate_limit", result.rate_rejected);
    metrics.add("serve.batched.riders", result.batches.riders);
    metrics.add("serve.tenants", result.tenants.size());
  }
  return result;
}

void add_sla_summary(obs::RunSummary& summary, std::string_view prefix,
                     const ServiceResult& result) {
  const std::string p(prefix);
  summary.set_count(p + ".requests", result.schedule.records.size());
  summary.set_count(p + ".completed", result.schedule.completed());
  summary.set_count(p + ".rejected", result.schedule.rejected());
  summary.set_count(p + ".rejected.rate_limit", result.rate_rejected);
  summary.set_number(p + ".makespan_s", result.schedule.makespan_s);
  summary.set_number(p + ".utilization", result.schedule.utilization);
  summary.set_count(p + ".batch.leaders", result.batches.leaders);
  summary.set_count(p + ".batch.riders", result.batches.riders);
  summary.set_number(p + ".batch.saved_est_s", result.batches.saved_est_s);
  for (const TenantSla& sla : result.tenants) {
    const std::string tp = p + ".tenant." + sla.name + ".";
    summary.set_count(tp + "requests", sla.requests);
    summary.set_count(tp + "completed", sla.completed);
    summary.set_count(tp + "rejected", sla.rejected);
    summary.set_count(tp + "riders", sla.riders);
    summary.set_number(tp + "wait_p50_s", sla.wait_p50_s);
    summary.set_number(tp + "wait_p95_s", sla.wait_p95_s);
    summary.set_number(tp + "makespan_p50_s", sla.makespan_p50_s);
    summary.set_number(tp + "makespan_p95_s", sla.makespan_p95_s);
    summary.set_number(tp + "slowdown_p50", sla.slowdown_p50);
    summary.set_number(tp + "slowdown_p95", sla.slowdown_p95);
    summary.set_number(tp + "busy_s", sla.busy_s);
  }
}

std::string sla_table(const ServiceResult& result) {
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof(line), "%-10s %5s %5s %5s %5s %9s %9s %9s %9s\n",
                "tenant", "req", "done", "rej", "ride", "wait_p50", "wait_p95",
                "mk_p50", "slow_p95");
  os << line;
  for (const TenantSla& sla : result.tenants) {
    std::snprintf(line, sizeof(line),
                  "%-10s %5zu %5zu %5zu %5zu %9.2f %9.2f %9.2f %9.2f\n",
                  sla.name.c_str(), sla.requests, sla.completed, sla.rejected,
                  sla.riders, sla.wait_p50_s, sla.wait_p95_s,
                  sla.makespan_p50_s, sla.slowdown_p95);
    os << line;
  }
  return os.str();
}

}  // namespace hprs::serve

#include "obs/run_summary.hpp"

#include <fstream>
#include <sstream>

#include "obs/json.hpp"

namespace hprs::obs {

void RunSummary::set_count(std::string_view key, std::uint64_t value) {
  entries_[std::string(key)] = std::to_string(value);
}

void RunSummary::set_number(std::string_view key, double value) {
  entries_[std::string(key)] = json_number(value);
}

void RunSummary::set_bool(std::string_view key, bool value) {
  entries_[std::string(key)] = value ? "true" : "false";
}

void RunSummary::set_string(std::string_view key, std::string_view value) {
  entries_[std::string(key)] = json_string(value);
}

std::string RunSummary::to_json() const {
  std::ostringstream os;
  os << "{\n";
  bool first = true;
  for (const auto& [key, token] : entries_) {  // std::map: sorted keys
    if (!first) os << ",\n";
    first = false;
    os << "  " << json_string(key) << ": " << token;
  }
  os << "\n}\n";
  return os.str();
}

bool RunSummary::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

void add_run_report(RunSummary& summary, std::string_view prefix,
                    const vmpi::RunReport& report) {
  const std::string p = std::string(prefix) + ".";
  summary.set_number(p + "total_s", report.total_time);
  summary.set_number(p + "com_s", report.com());
  summary.set_number(p + "seq_s", report.seq());
  summary.set_number(p + "par_s", report.par());
  summary.set_number(p + "imbalance_all", report.imbalance_all());
  summary.set_number(p + "imbalance_minus_root", report.imbalance_minus_root());
  summary.set_count(p + "bytes_moved", report.total_bytes_moved());
  summary.set_count(p + "flops", report.total_flops());
  summary.set_count(p + "ranks", report.ranks.size());
  summary.set_count(p + "fault_events", report.fault_events.size());
  const vmpi::RecoveryStats& rec = report.recovery;
  if (rec.crashes != 0 || rec.detections != 0 || rec.messages_lost != 0 ||
      rec.total_overhead_s() > 0.0) {
    summary.set_number(p + "recovery.detection_s", rec.detection_s);
    summary.set_number(p + "recovery.redistribution_s", rec.redistribution_s);
    summary.set_number(p + "recovery.recomputed_s", rec.recomputed_s);
    summary.set_count(p + "recovery.recomputed_flops", rec.recomputed_flops);
    summary.set_count(p + "recovery.crashes",
                      static_cast<std::uint64_t>(rec.crashes));
    summary.set_count(p + "recovery.detections",
                      static_cast<std::uint64_t>(rec.detections));
    summary.set_count(p + "recovery.messages_lost", rec.messages_lost);
  }
}

void add_metrics(RunSummary& summary, std::string_view prefix,
                 const Metrics::Snapshot& snapshot, bool include_host) {
  const std::string p = std::string(prefix) + ".metrics.";
  for (const auto& [name, value] : snapshot) {
    if (value.domain == Domain::kStable) {
      switch (value.kind) {
        case MetricKind::kCounter:
          summary.set_count(p + name, value.count);
          break;
        case MetricKind::kGauge:
          summary.set_number(p + name, value.value);
          break;
        case MetricKind::kTimer:
          // Timers are forced to Domain::kHost at creation; unreachable.
          break;
      }
    } else if (include_host) {
      // "host" in the key routes these through report_diff's threshold
      // comparison instead of exact equality.
      switch (value.kind) {
        case MetricKind::kCounter:
          summary.set_count(p + name + ".host_count", value.count);
          break;
        case MetricKind::kGauge:
          summary.set_number(p + name + ".host_level", value.value);
          break;
        case MetricKind::kTimer:
          summary.set_number(p + name + ".host_s", value.value);
          break;
      }
    }
  }
}

}  // namespace hprs::obs

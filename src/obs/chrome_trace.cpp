#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <string_view>

#include "obs/json.hpp"
#include "vmpi/trace.hpp"

namespace hprs::obs {
namespace {

void meta(std::ostringstream& os, bool& first, int pid, int tid,
          std::string_view kind, std::string_view name) {
  if (!first) os << ",\n";
  first = false;
  os << R"(  {"ph":"M","pid":)" << pid << R"(,"tid":)" << tid << R"(,"name":")"
     << kind << R"(","args":{"name":)" << json_string(name) << "}}";
}

std::string_view fault_name(vmpi::FaultEventKind kind) {
  switch (kind) {
    case vmpi::FaultEventKind::kCrash: return "crash";
    case vmpi::FaultEventKind::kDetection: return "detection";
    case vmpi::FaultEventKind::kMessageLoss: return "message_loss";
  }
  return "fault";
}

}  // namespace

std::string chrome_trace_json(const vmpi::RunReport& report,
                              const std::vector<HostSpan>& host_spans) {
  return chrome_trace_json(report, std::vector<TraceTrackGroup>{},
                           host_spans);
}

std::string chrome_trace_json(const vmpi::RunReport& report,
                              const std::vector<TraceTrackGroup>& groups,
                              const std::vector<HostSpan>& host_spans) {
  constexpr int kVirtualPid = 0;
  constexpr int kHostPid = 1;
  constexpr int kFirstGroupPid = 2;
  // First group (input order) owning rank activity that starts at `begin`.
  const auto group_pid = [&](int rank, double begin) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const TraceTrackGroup& grp = groups[g];
      if (begin >= grp.begin_s && begin < grp.end_s &&
          std::find(grp.members.begin(), grp.members.end(), rank) !=
              grp.members.end()) {
        return kFirstGroupPid + static_cast<int>(g);
      }
    }
    return kVirtualPid;
  };
  std::ostringstream os;
  os << "{\n\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n";
  bool first = true;

  // -- Metadata: name the two processes and every track we will emit into.
  meta(os, first, kVirtualPid, 0, "process_name", "vmpi virtual time");
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    std::string label = "rank " + std::to_string(r);
    if (static_cast<int>(r) == report.root) label += " (root)";
    meta(os, first, kVirtualPid, static_cast<int>(r), "thread_name", label);
  }
  // Asynchronous staging copies get their own lane per rank (tid offset past
  // any real rank id) so Perfetto shows the DMA span *beside* the rank's
  // compute spans -- the stage/compute overlap is the point of the tiled
  // streaming driver.
  constexpr int kStageLaneOffset = 1 << 20;
  {
    std::set<int> stage_ranks;
    for (const vmpi::TraceEvent& ev : report.trace) {
      if (ev.kind == vmpi::TraceKind::kStage) stage_ranks.insert(ev.rank);
    }
    for (int r : stage_ranks) {
      meta(os, first, kVirtualPid, r + kStageLaneOffset, "thread_name",
           "rank " + std::to_string(r) + " stage pipe");
    }
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const TraceTrackGroup& grp = groups[g];
    const int pid = kFirstGroupPid + static_cast<int>(g);
    meta(os, first, pid, 0, "process_name", grp.label);
    for (std::size_t m = 0; m < grp.members.size(); ++m) {
      std::string label = "rank " + std::to_string(grp.members[m]);
      if (m == 0) label += " (leader)";
      meta(os, first, pid, grp.members[m], "thread_name", label);
    }
  }
  if (!host_spans.empty()) {
    meta(os, first, kHostPid, 0, "process_name", "host time");
    std::set<int> tids;
    for (const HostSpan& s : host_spans) tids.insert(s.tid);
    for (int tid : tids) {
      meta(os, first, kHostPid, tid, "thread_name",
           "host thread " + std::to_string(tid));
    }
  }

  // -- Virtual timeline: one complete ("X") event per TraceEvent, with the
  // flop/byte amount attached as an argument.  Virtual seconds map to
  // microseconds 1:1 in magnitude (1 virtual s == 1 trace s).
  for (const vmpi::TraceEvent& ev : report.trace) {
    const bool stage = ev.kind == vmpi::TraceKind::kStage;
    os << ",\n"
       << R"(  {"ph":"X","pid":)"
       << (stage ? kVirtualPid : group_pid(ev.rank, ev.begin))
       << R"(,"tid":)" << (stage ? ev.rank + kStageLaneOffset : ev.rank)
       << R"(,"name":")" << vmpi::to_string(ev.kind) << R"(","cat":"virtual")"
       << R"(,"ts":)" << json_number(ev.begin * 1e6) << R"(,"dur":)"
       << json_number((ev.end - ev.begin) * 1e6) << R"(,"args":{"amount":)"
       << ev.amount << "}}";
  }

  // -- Group instants (e.g. checkpoint/restart marks): pinned to the
  // group's leader lane so they line up with the job's activity.
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const TraceTrackGroup& grp = groups[g];
    if (grp.members.empty()) continue;
    const int pid = kFirstGroupPid + static_cast<int>(g);
    for (const TraceInstant& mark : grp.instants) {
      os << ",\n"
         << R"(  {"ph":"i","pid":)" << pid << R"(,"tid":)" << grp.members[0]
         << R"(,"name":)" << json_string(mark.label)
         << R"(,"cat":"resilience","s":"t","ts":)"
         << json_number(mark.t_s * 1e6) << R"(,"args":{}})";
    }
  }

  // -- Fault log: instant events pinned to the affected rank's track.
  for (const vmpi::FaultEvent& ev : report.fault_events) {
    const int tid = ev.rank >= 0 ? ev.rank : 0;
    os << ",\n"
       << R"(  {"ph":"i","pid":)" << kVirtualPid << R"(,"tid":)" << tid
       << R"(,"name":")" << fault_name(ev.kind) << R"(","cat":"fault")"
       << R"(,"s":"t","ts":)" << json_number(ev.time_s * 1e6)
       << R"(,"args":{"peer":)" << ev.peer << R"(,"attempt":)" << ev.attempt << "}}";
  }

  // -- Host timeline: the ScopedHostTimer sections, already host-µs.
  for (const HostSpan& s : host_spans) {
    os << ",\n"
       << R"(  {"ph":"X","pid":)" << kHostPid << R"(,"tid":)" << s.tid
       << R"(,"name":)" << json_string(s.name) << R"(,"cat":"host","ts":)"
       << json_number(s.begin_us) << R"(,"dur":)"
       << json_number(s.end_us - s.begin_us) << ",\"args\":{}}";
  }

  os << "\n]}\n";
  return os.str();
}

}  // namespace hprs::obs

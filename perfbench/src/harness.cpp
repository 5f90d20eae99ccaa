#include "harness.hpp"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

Outcome classify(const hprs::sched::JobRecord& record,
                 bool matches_reference) {
  using hprs::sched::JobState;
  switch (record.state) {
    case JobState::kRejected: return Outcome::kRefused;
    case JobState::kFailed: return Outcome::kFailed;
    case JobState::kDegraded: return Outcome::kDegraded;
    case JobState::kPending: return Outcome::kAborted;
    case JobState::kCompleted:
      if (!record.completed()) return Outcome::kAborted;
      return matches_reference ? Outcome::kOk : Outcome::kWrong;
  }
  return Outcome::kAborted;
}

void FailureTally::add(Outcome outcome) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk: break;
    case Outcome::kRefused: ++refused; break;
    case Outcome::kFailed: ++failed; break;
    case Outcome::kDegraded: ++degraded; break;
    case Outcome::kAborted: ++aborted; break;
    case Outcome::kWrong: ++wrong; break;
  }
}

void Fnv1a::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= p[i];
    hash_ *= 0x100000001b3ULL;
  }
}

std::uint64_t record_digest(const hprs::sched::JobRecord& record) {
  Fnv1a h;
  h.pod(record.id);
  h.pod(record.algorithm);
  h.pod(record.arrival_s);
  h.pod(record.dispatch_s);
  h.pod(record.finish_s);
  h.pod(record.est_seconds);
  h.pod(record.members.size());
  for (const int m : record.members) h.pod(m);
  h.pod(record.busy_s);
  h.pod(record.rejected);
  h.text(record.error);
  h.pod(record.state);
  h.text(record.tenant);
  h.pod(record.batched_into);
  h.pod(record.batch_fanout);
  h.pod(record.attempts.size());
  for (const hprs::sched::JobAttempt& a : record.attempts) {
    h.pod(a.attempt);
    h.pod(a.dispatch_s);
    h.pod(a.end_s);
    h.pod(a.backoff_s);
    h.pod(a.width);
    for (const int m : a.members) h.pod(m);
    h.pod(a.resumed_seq);
    h.pod(a.checkpoints);
    h.pod(a.checkpoint_s);
    for (const double t : a.checkpoint_at_s) h.pod(t);
    h.text(a.outcome);
  }
  return h.value();
}

std::uint64_t output_digest(const hprs::sched::JobOutput& output) {
  Fnv1a h;
  h.pod(output.targets.size());
  for (const auto& t : output.targets) {
    h.pod(t.row);
    h.pod(t.col);
  }
  h.pod(output.scores.size());
  for (const auto s : output.scores) h.pod(s);
  h.pod(output.labels.size());
  if (!output.labels.empty()) {
    h.bytes(output.labels.data(),
            output.labels.size() * sizeof(output.labels[0]));
  }
  h.pod(output.label_count);
  return h.value();
}

const std::vector<std::string>& toggle_names() {
  static const std::vector<std::string> names = {
      "HPRS_KERNEL_THREADS",  "HPRS_MIXED_PRECISION", "HPRS_REFERENCE_KERNELS",
      "HPRS_THREAD_PER_RANK", "HPRS_FIBER_STACK_KB",  "HPRS_TILE_STREAM",
      "HPRS_TILE_ROWS"};
  return names;
}

std::vector<std::string> toggles_set() {
  std::vector<std::string> set;
  for (const std::string& name : toggle_names()) {
    if (std::getenv(name.c_str()) != nullptr) set.push_back(name);
  }
  return set;
}

const char* build_type() {
#ifdef PERFBENCH_BUILD_TYPE
  return PERFBENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

int SpanRecorder::begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.begin_s = now_s();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_s = now_s();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

double SpanRecorder::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

double SpanRecorder::total(std::string_view name) const {
  double sum = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) sum += span.end_s - span.begin_s;
  }
  return sum;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace perfbench

// Measurement plumbing shared by the benchmark binary and its self-tests:
// request outcome classification, result digests, run-condition checks, and
// the in-memory span recorder the traced run writes as a Chrome trace.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sched/job.hpp"

namespace perfbench {

/// Terminal outcome of one attempted request (or, in table8_p256, one
/// algorithm run).  Everything but kOk counts against failed_share.
enum class Outcome : std::uint8_t {
  kOk,
  kRefused,   ///< rejected at admission (memory bound or a quota:* rule)
  kFailed,    ///< retries exhausted with nothing saved
  kDegraded,  ///< retries exhausted with checkpointed progress
  kAborted,   ///< never reached a terminal state (the program threw)
  kWrong,     ///< completed, but record or output differs from the reference
};

/// Outcome of one request from its record; `matches_reference` is false
/// when its record or output disagreed with the reference.
[[nodiscard]] Outcome classify(const hprs::sched::JobRecord& record,
                               bool matches_reference);

struct FailureTally {
  std::size_t attempted = 0;
  std::size_t refused = 0;
  std::size_t failed = 0;
  std::size_t degraded = 0;
  std::size_t aborted = 0;
  std::size_t wrong = 0;

  void add(Outcome outcome);
  [[nodiscard]] std::size_t failures() const {
    return refused + failed + degraded + aborted + wrong;
  }
};

/// FNV-1a digests of the virtual-time record and the numeric output of one
/// request: equal digests mean bit-identical fields.
[[nodiscard]] std::uint64_t record_digest(const hprs::sched::JobRecord& record);
[[nodiscard]] std::uint64_t output_digest(const hprs::sched::JobOutput& output);

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size);
  template <typename T>
  void pod(const T& value) {
    bytes(&value, sizeof(value));
  }
  void text(std::string_view s) {
    pod(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// The seven HPRS_* environment toggles that change what the program runs;
/// a timed run refuses to start while any of them is present.
[[nodiscard]] const std::vector<std::string>& toggle_names();
[[nodiscard]] std::vector<std::string> toggles_set();

/// CMAKE_BUILD_TYPE the benchmark was compiled with.
[[nodiscard]] const char* build_type();

/// Host-clock spans recorded from the benchmark's own code around each call
/// into the program.  Kept in memory; written once as Chrome-trace events.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int id = 0;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
    double begin_s = 0.0;
    double end_s = 0.0;
  };

  /// Opens a span nested in the innermost open one; returns its index.
  int begin(std::string name);
  void end(int index);
  [[nodiscard]] double now_s() const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration of the spans named `name`.
  [[nodiscard]] double total(std::string_view name) const;

 private:
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder makes it free.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name)
      : recorder_(recorder),
        index_(recorder ? recorder->begin(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

/// JSON string literal with the mandatory escapes.
[[nodiscard]] std::string json_string(std::string_view s);

}  // namespace perfbench

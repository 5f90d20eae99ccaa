// The benchmark's three workloads, driven only through the program's public
// entry points.  Each bench process builds one input (set-up), runs the
// measured phase on it, and checks every result against a reference the
// benchmark recomputed in an earlier, untimed process.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/runner.hpp"
#include "harness.hpp"
#include "hsi/scene.hpp"
#include "sched/scheduler.hpp"
#include "serve/service.hpp"
#include "simnet/platform.hpp"

namespace perfbench {

enum class Workload : std::uint8_t {
  /// Open loop: the diurnal three-tenant trace through run_service with
  /// batching and the adhoc in-flight cap, counter plane on.
  kServeDiurnal,
  /// Closed loop: ATDCA, UFCLS, PCT, MORPH one after another through
  /// core::run_algorithm on the 256-node Thunderhead surrogate.
  kTable8P256,
  /// Open loop of flash crowds through run_schedule with resilience on
  /// (fault-free), counter plane on.
  kResilientBurst,
};

[[nodiscard]] const std::vector<Workload>& all_workloads();
[[nodiscard]] const char* to_string(Workload workload);
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

/// kFull is what the benchmark times; kTiny keeps the self-tests fast.
enum class Scale : std::uint8_t { kFull, kTiny };

/// Seed of input `input` of a run started with `seed`: a pure function, so
/// a seed always names the same inputs.
[[nodiscard]] std::uint64_t input_seed(std::uint64_t seed, int input);

struct Inputs {
  Workload workload = Workload::kServeDiurnal;
  hprs::hsi::Scene scene;
  hprs::simnet::Platform platform;
  /// Request stream (serve_diurnal, resilient_burst).
  std::vector<hprs::sched::JobSpec> trace;
  /// Algorithm settings (table8_p256; `algorithm` is set per run).
  hprs::core::RunnerConfig runner;
};

/// Set-up: scene, platform and trace for one input.
[[nodiscard]] Inputs make_inputs(Workload workload, std::uint64_t seed,
                                 Scale scale, SpanRecorder* spans);

struct RunSettings {
  /// Two fiber workers: as fast as four on these workloads and far steadier
  /// on a shared host (README.md, "Steadiness").
  std::size_t executor_workers = 2;
  /// Thread-per-rank oracle mode, used only for the untimed reference.
  bool thread_per_rank = false;
  /// Let the scheduler publish its sched.* / serve.* metrics.
  bool record_metrics = false;
};

/// One unit of a workload's result: a served request, or one algorithm run
/// of table8_p256.
struct Item {
  std::uint64_t id = 0;
  std::uint64_t record = 0;  ///< digest of the virtual-time record
  std::uint64_t output = 0;  ///< digest of the numeric output
  Outcome outcome = Outcome::kAborted;
};

struct Result {
  std::vector<Item> items;
  double virtual_makespan_s = 0.0;
  /// Virtual finish - arrival of every completed request (serve workloads).
  std::vector<double> response_s;
  /// Digest of the result documents (SLA JSON, snapshot timeline JSON).
  std::uint64_t documents = 0;
  /// What the program threw, if it did ("" otherwise).
  std::string error;

  // Kept for the invariant checks and the per-layer metrics.
  hprs::serve::ServiceResult service;
  std::vector<hprs::core::RunnerOutput> runs;
  std::string sla_json;
  std::string timeline_json;
};

/// The measured phase: from the first call after set-up until the SLA
/// document (or the run reports) is in hand.  What the program throws is
/// caught into Result::error.
[[nodiscard]] Result run_workload(const Inputs& inputs,
                                  const RunSettings& settings,
                                  SpanRecorder* spans);

/// After the measured phase: one Item per request (or algorithm run) with
/// its digests and outcome, the response times, the virtual makespan and
/// the document digest.  Requests without a record count as aborted.
void digest_result(const Inputs& inputs, Result& result);

/// Marks as kWrong every item that breaks an invariant no correct run can
/// break (a rank in two gangs at once, a rider whose output or computation
/// differs from its leader's, a completion before arrival, an output of
/// the wrong shape).  Returns the number of items it marked.
std::size_t check_invariants(const Inputs& inputs, Result& result);

/// The reference a timed run is compared against: per-item digests plus
/// the virtual makespan and document digest, in a line-based text format.
struct Reference {
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> items;
  double virtual_makespan_s = 0.0;
  std::uint64_t documents = 0;
};

[[nodiscard]] std::string format_reference(const Result& result);
[[nodiscard]] std::optional<Reference> parse_reference(std::string_view text);

/// Marks as kWrong every completed item whose record or output differs
/// from the reference, and every item the reference lacks.  A makespan or
/// document mismatch marks every item.  Returns the number marked.
std::size_t compare_with_reference(const Reference& reference,
                                   Result& result);

/// Per-layer metrics of the traced run, measured from outside the program:
/// spans around public calls, the program's obs::Metrics counters, and the
/// probes (cost model, engine, eigensolver, p=1 numerics).  Layers a
/// workload does not run are absent.
[[nodiscard]] std::map<std::string, double> layer_metrics(
    const Inputs& inputs, const Result& result, const RunSettings& settings,
    SpanRecorder& spans);

/// Chrome-trace JSON of the traced run: the benchmark's host spans, one
/// virtual-time track per request built from its JobRecord, and the
/// program's counters and timers.
[[nodiscard]] std::string chrome_trace_json(const Result& result,
                                            const SpanRecorder& spans);

}  // namespace perfbench

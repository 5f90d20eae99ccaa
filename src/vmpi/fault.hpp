// Deterministic virtual-time fault model for the vmpi engine.
//
// A FaultPlan describes everything that goes wrong during a run, in virtual
// time only, so a faulted simulation is exactly as reproducible as a
// fault-free one:
//
//  * RankCrash -- fail-stop: the rank executes normally until the first
//    engine operation it begins with its virtual clock at or past `time_s`,
//    at which point it dies silently (its clock freezes, it never posts or
//    matches another message).  This is the paper's "workstation switched
//    off / node lost" failure on networks of workstations.
//
//  * LinkDegradation -- the capacity between two communication segments
//    (or inside one, when segment_a == segment_b) is multiplied by `factor`
//    for transfers *starting* in the virtual interval [begin_s, end_s).
//    Models background traffic or a flapping switch.
//
//  * MessageLoss -- seeded transient loss of point-to-point messages: each
//    p2p transfer deterministically loses `k >= 0` attempts (a hash of the
//    seed and the per-queue sequence number), and each lost attempt delays
//    the transfer by one wire time plus a fixed 0.5 ms retry backoff.
//    Collective schedules are not subjected to loss: they model a
//    message-passing layer with its own reliability, while p2p loss models
//    the commodity link layer under it.
//
// Determinism: crashes trigger on the rank's own virtual clock at operation
// boundaries, degradation keys off virtual transfer start times, and loss
// draws are a pure function of (seed, src, dst, tag, per-queue sequence
// number) -- none of which depend on host scheduling.  A fixed plan
// therefore yields bit-identical RunReports across repeats, host schedules,
// and execution modes (tests/vmpi_fault_test.cpp).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace hprs::vmpi {

/// Fail-stop crash of one rank at a virtual time.
struct RankCrash {
  int rank = -1;
  double time_s = 0.0;
};

/// Multiplies the capacity (ms per megabit; larger = slower) between two
/// segments by `factor` for transfers starting in [begin_s, end_s).
struct LinkDegradation {
  std::size_t segment_a = 0;
  std::size_t segment_b = 0;
  double factor = 1.0;
  double begin_s = 0.0;
  double end_s = 0.0;
};

/// Seeded transient point-to-point message loss.  Each lost attempt costs
/// its wire time plus a fixed 0.5 ms retry backoff.
struct MessageLoss {
  /// Per-attempt loss probability in [0, 1).  Zero disables the model.
  double probability = 0.0;
  std::uint64_t seed = 0;
};

struct FaultPlan {
  std::vector<RankCrash> crashes;
  std::vector<LinkDegradation> degradations;
  MessageLoss loss;

  [[nodiscard]] bool empty() const {
    return crashes.empty() && degradations.empty() && loss.probability <= 0.0;
  }
};

/// Parses "<rank>@<time>[,<rank>@<time>...]" (the tools' --crash flag).
/// Each rank must be a whole number and each time a number of seconds,
/// with nothing trailing either; anything else ("3x@0.05", "2@0.1s", an
/// empty entry such as a trailing comma) throws hprs::Error naming the
/// entry.  Range checks stay with the Engine, which knows the platform.
[[nodiscard]] std::vector<RankCrash> parse_crashes(std::string_view text);

/// What a recorded fault-log entry describes.
enum class FaultEventKind : std::uint8_t {
  kCrash,        ///< `rank` died (fail-stop) at its frozen clock `time_s`
  kDetection,    ///< `rank` concluded `peer` is dead at `time_s`
  kMessageLoss,  ///< a transfer peer -> rank lost attempt #`attempt`
};

/// One entry of RunReport::fault_events, sorted deterministically by
/// (time, kind, rank, peer, attempt) before the report is returned.
struct FaultEvent {
  FaultEventKind kind = FaultEventKind::kCrash;
  int rank = -1;
  int peer = -1;
  double time_s = 0.0;
  std::uint64_t attempt = 0;
};

/// Decomposition of the virtual time a run spent surviving its faults
/// (aggregated over ranks; all zero for a fault-free run).
struct RecoveryStats {
  /// Virtual time spent blocked on operations that ultimately failed
  /// (waiting out the heartbeat timeout on a dead peer; every survivor of
  /// a collective that lost a member pays one).
  double detection_s = 0.0;
  /// Root-side time re-placing and re-staging lost work after a loss
  /// (reported by core::ft::CollectiveDriver via Comm::note_redistribution).
  double redistribution_s = 0.0;
  /// Compute re-executed to regenerate lost partition results.
  double recomputed_s = 0.0;
  std::uint64_t recomputed_flops = 0;
  int crashes = 0;
  int detections = 0;
  std::uint64_t messages_lost = 0;

  [[nodiscard]] double recomputed_megaflops() const {
    return static_cast<double>(recomputed_flops) * 1e-6;
  }
  [[nodiscard]] double total_overhead_s() const {
    return detection_s + redistribution_s + recomputed_s;
  }
};

}  // namespace hprs::vmpi

#include "serve/batcher.hpp"

#include <map>

namespace hprs::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void mix(std::uint64_t& h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
}

void mix_double(std::uint64_t& h, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  __builtin_memcpy(&bits, &value, sizeof(bits));
  mix(h, bits);
}

}  // namespace

std::uint64_t batch_key(const sched::JobSpec& spec, std::uint64_t scene_uid) {
  // FNV-1a over exactly the fields compute_equivalent compares (plus the
  // scene identity): placement fields stay out so the same question at a
  // different width or arrival time shares the key.
  std::uint64_t h = kFnvOffset;
  mix(h, scene_uid);
  mix(h, static_cast<std::uint64_t>(spec.algorithm));
  mix(h, spec.targets);
  mix(h, spec.classes);
  mix(h, spec.iterations);
  mix(h, spec.kernel_radius);
  mix(h, spec.skewers);
  mix(h, spec.seed);
  mix_double(h, spec.sad_threshold);
  mix(h, spec.replication);
  mix_double(h, spec.memory_fraction);
  mix(h, static_cast<std::uint64_t>(spec.policy));
  mix(h, static_cast<std::uint64_t>(spec.charge_data_staging));
  // Scene overrides contribute presence only -- a pointer value would make
  // keys run-dependent and unserializable.  Distinct overrides colliding is
  // fine: the dispatcher re-checks compute_equivalent (which compares the
  // pointers) before attaching any rider.
  mix(h, static_cast<std::uint64_t>(spec.scene != nullptr));
  return h == 0 ? 1 : h;
}

void stamp_batch_keys(std::vector<sched::JobSpec>& stream,
                      std::uint64_t scene_uid) {
  for (sched::JobSpec& spec : stream) {
    spec.batch_key = batch_key(spec, scene_uid);
  }
}

BatchStats summarize_batches(const std::vector<sched::JobRecord>& records) {
  BatchStats stats;
  for (const sched::JobRecord& record : records) {
    if (record.batch_fanout > 0) ++stats.leaders;
    if (record.batched_into != 0) {
      ++stats.riders;
      stats.saved_est_s += record.est_seconds;
    }
  }
  return stats;
}

}  // namespace hprs::serve

#include "serve/traffic.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <type_traits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/report_diff.hpp"
#include "obs/run_summary.hpp"
#include "serve/batcher.hpp"

namespace hprs::serve {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// Integrated diurnal rate Lambda(t) = t + (a/w) sin(w t) for
/// rate(t) = 1 + a cos(w t); strictly increasing while a < 1.
double diurnal_integral(double t, double amplitude, double omega) {
  return t + (amplitude / omega) * std::sin(omega * t);
}

/// Inverts Lambda on [0, duration] by bisection (Lambda is monotone).
double diurnal_invert(double target, double duration, double amplitude,
                      double omega) {
  double lo = 0.0;
  double hi = duration;
  for (int i = 0; i < 64; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (diurnal_integral(mid, amplitude, omega) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

std::vector<double> make_arrivals(const TraceConfig& config,
                                  Xoshiro256& rng) {
  const double duration = config.duration_s;
  std::vector<double> arrivals;
  arrivals.reserve(config.jobs);
  switch (config.shape) {
    case TrafficShape::kSteady:
    case TrafficShape::kTenantMix: {
      for (std::size_t k = 0; k < config.jobs; ++k) {
        arrivals.push_back(rng.uniform(0.0, duration));
      }
      break;
    }
    case TrafficShape::kDiurnal: {
      const double amplitude =
          std::min(std::max(config.diurnal_amplitude, 0.0), 0.999);
      const double omega = kTwoPi * config.diurnal_cycles / duration;
      const double total = diurnal_integral(duration, amplitude, omega);
      for (std::size_t k = 0; k < config.jobs; ++k) {
        arrivals.push_back(diurnal_invert(rng.uniform() * total, duration,
                                          amplitude, omega));
      }
      break;
    }
    case TrafficShape::kBursty: {
      const double fraction =
          std::min(std::max(config.burst_fraction, 0.0), 1.0);
      const std::size_t bursts = std::max<std::size_t>(config.bursts, 1);
      const auto in_bursts = static_cast<std::size_t>(
          fraction * static_cast<double>(config.jobs));
      std::vector<double> centers;
      for (std::size_t b = 0; b < bursts; ++b) {
        centers.push_back(rng.uniform(0.1 * duration, 0.9 * duration));
      }
      for (std::size_t k = 0; k < in_bursts; ++k) {
        const std::size_t b = rng.uniform_int(bursts);
        const double t = centers[b] + rng.normal(0.0, config.burst_width_s);
        arrivals.push_back(std::min(std::max(t, 0.0), duration));
      }
      for (std::size_t k = in_bursts; k < config.jobs; ++k) {
        arrivals.push_back(rng.uniform(0.0, duration));
      }
      break;
    }
  }
  std::sort(arrivals.begin(), arrivals.end());
  return arrivals;
}

/// Weighted tenant pick: cumulative weights scanned with one uniform draw.
std::size_t pick_tenant(const std::vector<TenantProfile>& tenants,
                        Xoshiro256& rng) {
  double total = 0.0;
  for (const TenantProfile& t : tenants) total += std::max(t.weight, 0.0);
  if (total <= 0.0) return 0;
  const double draw = rng.uniform() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    acc += std::max(tenants[i].weight, 0.0);
    if (draw < acc) return i;
  }
  return tenants.size() - 1;
}

std::string req_key(std::size_t pos, const char* field) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "req.%06zu.", pos);
  return std::string(buf) + field;
}

/// Raw-token readers for the flat-JSON dialect (throwing on misses, so a
/// truncated document cannot silently replay as a shorter trace).
const std::string& token_of(const std::map<std::string, std::string>& flat,
                            const std::string& key) {
  const auto it = flat.find(key);
  if (it == flat.end()) throw Error("trace JSON: missing key '" + key + "'");
  return it->second;
}

/// A whole number in [0, max]; signs, fractions, exponents, strings and
/// out-of-range values throw, naming the key.
std::uint64_t count_of(const std::map<std::string, std::string>& flat,
                       const std::string& key,
                       std::uint64_t max =
                           std::numeric_limits<std::uint64_t>::max()) {
  const std::string& token = token_of(flat, key);
  const char* last = token.data() + token.size();
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(token.data(), last, value);
  if (ec != std::errc() || end != last || value > max) {
    throw Error("trace JSON: key '" + key + "' = " + token +
                " is not a whole number in [0, " + std::to_string(max) + "]");
  }
  return value;
}

/// A finite number; anything else throws, naming the key.
double number_of(const std::map<std::string, std::string>& flat,
                 const std::string& key) {
  const std::string& token = token_of(flat, key);
  const char* last = token.data() + token.size();
  double value = 0.0;
  const auto [end, ec] = std::from_chars(token.data(), last, value);
  if (ec != std::errc() || end != last || !std::isfinite(value)) {
    throw Error("trace JSON: key '" + key + "' = " + token +
                " is not a finite number");
  }
  return value;
}

std::string string_of(const std::map<std::string, std::string>& flat,
                      const std::string& key) {
  const std::string& token = token_of(flat, key);
  if (token.size() < 2 || token.front() != '"' || token.back() != '"') {
    throw Error("trace JSON: key '" + key + "' is not a string token");
  }
  std::string out;
  for (std::size_t i = 1; i + 1 < token.size(); ++i) {
    if (token[i] == '\\' && i + 2 < token.size()) {
      ++i;
      switch (token[i]) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        default: out += token[i];
      }
    } else {
      out += token[i];
    }
  }
  return out;
}

}  // namespace

const char* to_string(TrafficShape shape) {
  switch (shape) {
    case TrafficShape::kSteady: return "steady";
    case TrafficShape::kDiurnal: return "diurnal";
    case TrafficShape::kBursty: return "bursty";
    case TrafficShape::kTenantMix: return "tenant-mix";
  }
  return "?";
}

TrafficShape parse_traffic_shape(std::string_view name) {
  if (name == "steady") return TrafficShape::kSteady;
  if (name == "diurnal") return TrafficShape::kDiurnal;
  if (name == "bursty") return TrafficShape::kBursty;
  if (name == "tenant-mix") return TrafficShape::kTenantMix;
  throw Error("unknown traffic shape '" + std::string(name) +
              "' (expected steady, diurnal, bursty, or tenant-mix)");
}

std::vector<TenantProfile> default_tenant_mix() {
  // A heavy survey tenant whose requests all ask the same question of the
  // same scene (maximally batchable), a tasking tenant with wide gangs and
  // varied algorithms, and a light ad-hoc tail.
  TenantProfile survey;
  survey.name = "survey";
  survey.weight = 3.0;
  survey.algorithms = {core::Algorithm::kAtdca};
  survey.min_ranks = 2;
  survey.max_ranks = 3;
  survey.scene_uid = 0xa11ce5;
  TenantProfile tasking;
  tasking.name = "tasking";
  tasking.weight = 2.0;
  tasking.algorithms = {core::Algorithm::kPct, core::Algorithm::kPpi,
                        core::Algorithm::kUfcls};
  tasking.min_ranks = 3;
  tasking.max_ranks = 6;
  tasking.scene_uid = 0xbead;
  tasking.seed = 7;
  TenantProfile adhoc;
  adhoc.name = "adhoc";
  adhoc.weight = 1.0;
  adhoc.algorithms = {core::Algorithm::kMorph, core::Algorithm::kAtdca};
  adhoc.min_ranks = 1;
  adhoc.max_ranks = 2;
  adhoc.scene_uid = 0xcafe;
  adhoc.seed = 13;
  adhoc.targets = 6;
  return {survey, tasking, adhoc};
}

TraceConfig preset_trace(std::string_view name) {
  TraceConfig config;
  config.shape = parse_traffic_shape(name);
  if (config.shape == TrafficShape::kTenantMix) {
    config.tenants = default_tenant_mix();
  }
  return config;
}

std::vector<sched::JobSpec> generate_trace(const TraceConfig& config) {
  std::vector<TenantProfile> tenants = config.tenants;
  if (tenants.empty()) {
    tenants = config.shape == TrafficShape::kTenantMix
                  ? default_tenant_mix()
                  : std::vector<TenantProfile>{TenantProfile{}};
  }
  Xoshiro256 rng(SplitMix64(config.seed).next());
  const std::vector<double> arrivals = make_arrivals(config, rng);

  std::vector<std::size_t> algo_cursor(tenants.size(), 0);
  std::vector<sched::JobSpec> trace;
  trace.reserve(arrivals.size());
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    const std::size_t ti = pick_tenant(tenants, rng);
    const TenantProfile& tenant = tenants[ti];
    sched::JobSpec spec;
    spec.id = k + 1;
    spec.arrival_s = arrivals[k];
    spec.tenant = tenant.name;
    const std::vector<core::Algorithm>& algos =
        tenant.algorithms.empty()
            ? std::vector<core::Algorithm>{core::Algorithm::kAtdca}
            : tenant.algorithms;
    spec.algorithm = algos[algo_cursor[ti]++ % algos.size()];
    const int lo = std::max(tenant.min_ranks, 1);
    const int hi = std::max(tenant.max_ranks, lo);
    spec.ranks =
        lo + static_cast<int>(rng.uniform_int(
                 static_cast<std::uint64_t>(hi - lo) + 1));
    spec.targets = tenant.targets;
    spec.classes = tenant.classes;
    spec.morph_iterations = tenant.iterations;
    spec.kernel_radius = tenant.kernel_radius;
    spec.skewers = tenant.skewers;
    spec.seed = tenant.seed;
    spec.replication = tenant.replication;
    spec.batch_key = batch_key(spec, tenant.scene_uid);
    trace.push_back(std::move(spec));
  }
  return trace;
}

std::string trace_json(const std::vector<sched::JobSpec>& trace) {
  obs::RunSummary doc;
  doc.set_count("trace.jobs", trace.size());
  for (std::size_t k = 0; k < trace.size(); ++k) {
    const sched::JobSpec& spec = trace[k];
    doc.set_count(req_key(k, "id"), spec.id);
    doc.set_number(req_key(k, "arrival_s"), spec.arrival_s);
    doc.set_count(req_key(k, "ranks"), static_cast<std::uint64_t>(spec.ranks));
    doc.set_string(req_key(k, "tenant"), spec.tenant);
    doc.set_count(req_key(k, "batch_key"), spec.batch_key);
    core::for_each_field(spec, [&](const char* name, const auto& field) {
      using T = std::decay_t<decltype(field)>;
      const std::string key = req_key(k, name);
      if constexpr (std::is_same_v<T, core::Algorithm>) {
        doc.set_string(key, core::to_string(field));
      } else if constexpr (std::is_same_v<T, double>) {
        doc.set_number(key, field);
      } else {
        doc.set_count(key, static_cast<std::uint64_t>(field));
      }
    });
  }
  return doc.to_json();
}

std::vector<sched::JobSpec> parse_trace_json(std::string_view text) {
  std::map<std::string, std::string> flat;
  std::string error;
  if (!obs::parse_flat_json(text, flat, error)) {
    throw Error("trace JSON: " + error);
  }
  // Every request carries several keys, so a document cannot hold more
  // requests than it has keys; the bound keeps a hostile count from
  // sizing the reservation below.
  const std::uint64_t jobs = count_of(flat, "trace.jobs", flat.size());
  std::vector<sched::JobSpec> trace;
  trace.reserve(jobs);
  for (std::uint64_t k = 0; k < jobs; ++k) {
    const auto pos = static_cast<std::size_t>(k);
    sched::JobSpec spec;
    spec.id = count_of(flat, req_key(pos, "id"));
    spec.arrival_s = number_of(flat, req_key(pos, "arrival_s"));
    spec.ranks = static_cast<int>(count_of(
        flat, req_key(pos, "ranks"), std::numeric_limits<int>::max()));
    spec.tenant = string_of(flat, req_key(pos, "tenant"));
    spec.batch_key = count_of(flat, req_key(pos, "batch_key"));
    core::for_each_field(spec, [&](const char* name, auto& field) {
      using T = std::decay_t<decltype(field)>;
      const std::string key = req_key(pos, name);
      if constexpr (std::is_same_v<T, core::Algorithm>) {
        const std::string value = string_of(flat, key);
        try {
          field = core::parse_algorithm(value);
        } catch (const Error& e) {
          throw Error("trace JSON: key '" + key + "': " + e.what());
        }
      } else if constexpr (std::is_same_v<T, double>) {
        field = number_of(flat, key);
      } else if constexpr (std::is_same_v<T, bool>) {
        field = count_of(flat, key, 1) != 0;
      } else if constexpr (std::is_same_v<T, core::PartitionPolicy>) {
        field = static_cast<T>(count_of(flat, key, 1));
      } else {
        field = count_of(flat, key, std::numeric_limits<T>::max());
      }
    });
    trace.push_back(std::move(spec));
  }
  return trace;
}

}  // namespace hprs::serve

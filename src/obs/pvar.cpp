#include "obs/pvar.hpp"

#include <algorithm>

namespace hprs::obs {

const char* to_string(PvarClass cls) {
  switch (cls) {
    case PvarClass::kCounter:
      return "counter";
    case PvarClass::kLevel:
      return "level";
    case PvarClass::kTimer:
      return "timer";
  }
  return "?";
}

void PvarSet::counter(std::string_view name, std::uint64_t total,
                      Domain domain) {
  vars_.push_back(Pvar{std::string(name), PvarClass::kCounter, domain, total,
                       0.0});
  dirty_ = true;
}

void PvarSet::level(std::string_view name, double value, Domain domain) {
  vars_.push_back(Pvar{std::string(name), PvarClass::kLevel, domain, 0,
                       value});
  dirty_ = true;
}

void PvarSet::timer(std::string_view name, double seconds,
                    std::uint64_t samples) {
  vars_.push_back(Pvar{std::string(name), PvarClass::kTimer, Domain::kHost,
                       samples, seconds});
  dirty_ = true;
}

const std::vector<Pvar>& PvarSet::sorted() const {
  if (dirty_) {
    std::sort(vars_.begin(), vars_.end(),
              [](const Pvar& a, const Pvar& b) { return a.name < b.name; });
    dirty_ = false;
  }
  return vars_;
}

}  // namespace hprs::obs

#include "vmpi/fault.hpp"

#include <algorithm>
#include <charconv>
#include <string>

#include "common/error.hpp"

namespace hprs::vmpi {

namespace {

/// Parses all of `text` as a T, or returns false.
template <typename T>
bool parse_whole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

std::vector<RankCrash> parse_crashes(std::string_view text) {
  std::vector<RankCrash> crashes;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string_view entry = text.substr(pos, comma - pos);
    const std::size_t at = entry.find('@');
    RankCrash crash;
    if (at == std::string_view::npos ||
        !parse_whole(entry.substr(0, at), crash.rank) ||
        !parse_whole(entry.substr(at + 1), crash.time_s)) {
      throw Error("crash entry " + std::to_string(crashes.size()) + " '" +
                  std::string(entry) +
                  "' is not <rank>@<seconds> (e.g. 3@0.05)");
    }
    crashes.push_back(crash);
    if (comma == text.size()) return crashes;
    pos = comma + 1;
  }
}

}  // namespace hprs::vmpi

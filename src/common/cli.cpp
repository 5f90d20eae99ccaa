#include "common/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/error.hpp"

namespace hprs {

CliArgs::CliArgs(int argc, const char* const* argv,
                 const std::vector<std::string>& allowed) {
  const auto is_allowed = [&](const std::string& name) {
    return std::find(allowed.begin(), allowed.end(), name) != allowed.end();
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.erase(eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    } else {
      value = "true";  // bare flag
    }
    HPRS_REQUIRE(is_allowed(arg), "unknown option --" + arg);
    values_[arg] = std::move(value);
  }
}

bool CliArgs::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  HPRS_REQUIRE(end && *end == '\0', "option --" + name + " expects an integer");
  return v;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  HPRS_REQUIRE(end && *end == '\0', "option --" + name + " expects a number");
  return v;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw Error("option --" + name + " expects a boolean, got '" + v + "'");
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f << text;
  return f.good();
}

int run_main(int argc, char** argv, int (*body)(int, char**),
             int error_status) {
  try {
    return body(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return error_status;
  }
}

}  // namespace hprs

// Minimal command-line option parsing for examples, tools and bench
// harnesses, and the one main wrapper they share.
//
// Supports `--name value` and `--name=value` forms plus boolean flags.  Kept
// deliberately tiny: the binaries in this repository take a handful of
// numeric knobs (scene size, seed, processor counts) and nothing more.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hprs {

/// Parsed command line.  Unknown options are an error so typos in experiment
/// scripts fail loudly instead of silently running the default workload.
class CliArgs {
 public:
  /// Parses argv.  `allowed` lists every recognized option name (without the
  /// leading dashes); pass the full set so misspellings are rejected.
  CliArgs(int argc, const char* const* argv,
          const std::vector<std::string>& allowed);

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-option) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// The body of every binary's main: runs `body` and turns an hprs::Error --
/// a rejected option, or an input the program cannot run -- into its
/// message on stderr and exit status `error_status`, never an abort.
int run_main(int argc, char** argv, int (*body)(int, char**),
             int error_status);

}  // namespace hprs

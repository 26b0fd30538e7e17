#pragma once
// Tiny command-line parser for the bench/example binaries.
// Supports `--flag`, `--key value` and `--key=value`; anything else is kept
// as a positional argument. Unknown keys are allowed (benches share a parser
// but consume different subsets).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rechord::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  /// Boolean flag: true for bare `--key`, `--key 1`, `--key=true` etc.;
  /// false when absent or given an explicit falsy value (`--key 0`,
  /// `--key=false`). Used for --full-scan, --profile, --all.
  [[nodiscard]] bool get_flag(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  /// Numeric accessors parse STRICTLY: the whole value must be a valid
  /// in-range number, and a malformed one (`--n 10x00`, `--seed abc`)
  /// throws std::invalid_argument naming the option -- a silently truncated
  /// typo would run a different experiment that looks fine. Absent keys and
  /// empty values still return the fallback.
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;

  // Shared scenario/export plumbing: every bench and example that can run a
  // registered scenario or emit CSV reads these two flags through the same
  // accessors, so the flag names stay uniform across binaries.
  /// `--scenario NAME` (empty when absent).
  [[nodiscard]] std::string scenario() const { return get("scenario", ""); }
  /// `--csv PATH` (empty = no CSV output).
  [[nodiscard]] std::string csv_path() const { return get("csv", ""); }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

}  // namespace rechord::util

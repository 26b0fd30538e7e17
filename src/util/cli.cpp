#include "util/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace rechord::util {

namespace {

// Strict numeric parsing: the whole value must be consumed (with optional
// surrounding spaces, which strtoll itself skips on the left) and must fit
// the type. A null endptr would silently accept "10x00" as 10 and turn
// garbage into 0 -- a typo'd --n then runs a completely different
// experiment that LOOKS fine. Errors name the offending option and value.
std::int64_t parse_int(const std::string& key, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str())
    throw std::invalid_argument("--" + key + ": expected an integer, got '" +
                                text + "'");
  while (*end == ' ') ++end;
  if (*end != '\0')
    throw std::invalid_argument("--" + key +
                                ": trailing characters after integer in '" +
                                text + "'");
  if (errno == ERANGE)
    throw std::invalid_argument("--" + key + ": integer out of range: '" +
                                text + "'");
  return v;
}

double parse_double(const std::string& key, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str())
    throw std::invalid_argument("--" + key + ": expected a number, got '" +
                                text + "'");
  while (*end == ' ') ++end;
  if (*end != '\0')
    throw std::invalid_argument("--" + key +
                                ": trailing characters after number in '" +
                                text + "'");
  if (errno == ERANGE)
    throw std::invalid_argument("--" + key + ": number out of range: '" +
                                text + "'");
  return v;
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--key value` unless the next token is another option or absent.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_[arg] = argv[++i];
    } else {
      kv_[arg] = "";
    }
  }
}

bool Cli::has(const std::string& key) const { return kv_.count(key) != 0; }

bool Cli::get_flag(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return false;
  const std::string& v = it->second;
  return v.empty() || !(v == "0" || v == "false" || v == "no" || v == "off");
}

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end() || it->second.empty()) return fallback;
  return parse_int(key, it->second);
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end() || it->second.empty()) return fallback;
  return parse_double(key, it->second);
}

}  // namespace rechord::util

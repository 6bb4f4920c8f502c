#ifndef LCAKNAP_TOOLS_ARGS_H
#define LCAKNAP_TOOLS_ARGS_H

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

/// \file args.h
/// The `--flag value` parser the command-line tools share.  Header-only, so
/// including it adds nothing to a tool's link line.
///
/// Each command declares the flags it accepts; any other flag is a usage
/// error before any work starts, so a misspelled flag never runs silently
/// on a default.  The same holds for a flag that acts only together with
/// another, and for two flags that do not combine: each command declares
/// those pairs beside its flags.  Values are given as `--flag value` or `--flag=value`;
/// switches take no value.  An integer is decimal or `0x` hex, a double is
/// anything `std::from_chars` reads, and in both cases the whole token must
/// parse (no sign on integers, no trailing junk).  Every error throws
/// std::invalid_argument naming the flag; the tools exit 1 on it.

namespace lcaknap::tools {

/// Parses `text`, the value of `--flag`, as a decimal or `0x` hex integer.
[[nodiscard]] inline std::uint64_t parse_u64(const std::string& flag,
                                             const std::string& text) {
  const bool hex =
      text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X');
  const char* first = text.data() + (hex ? 2 : 0);
  const char* last = text.data() + text.size();
  std::uint64_t value = 0;
  const auto [end, error] = std::from_chars(first, last, value, hex ? 16 : 10);
  if (first == last || error != std::errc{} || end != last) {
    throw std::invalid_argument("--" + flag +
                                " needs an unsigned integer (decimal or 0x hex), "
                                "got: " + text);
  }
  return value;
}

/// Parses `text`, the value of `--flag`, as a double.
[[nodiscard]] inline double parse_double(const std::string& flag,
                                         const std::string& text) {
  const char* first = text.data();
  const char* last = text.data() + text.size();
  double value = 0.0;
  const auto [end, error] = std::from_chars(first, last, value);
  if (first == last || error != std::errc{} || end != last) {
    throw std::invalid_argument("--" + flag + " needs a number, got: " + text);
  }
  return value;
}

/// Parses a TCP port named by `--flag`.
[[nodiscard]] inline std::uint16_t parse_port(const std::string& flag,
                                              const std::string& text) {
  const auto port = parse_u64(flag, text);
  if (port > 65'535) {
    throw std::invalid_argument("--" + flag + " port out of range: " + text);
  }
  return static_cast<std::uint16_t>(port);
}

/// The flags one command accepts.
struct FlagSpec {
  using Pair = std::pair<std::string, std::string>;
  std::vector<std::string> values;    ///< flags that take one value
  std::vector<std::string> switches;  ///< flags that take none
  std::vector<Pair> needs = {};      ///< {a, b}: --a acts only with --b
  std::vector<Pair> conflicts = {};  ///< {a, b}: --a and --b do not combine
};

class Args {
 public:
  /// Parses argv[first, argc) against `spec`.
  Args(int argc, char** argv, int first, const FlagSpec& spec) {
    const auto declared = [](const std::vector<std::string>& names,
                             const std::string& key) {
      return std::find(names.begin(), names.end(), key) != names.end();
    };
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("expected --flag, got: " + key);
      }
      key = key.substr(2);
      std::optional<std::string> value;
      if (const auto eq = key.find('='); eq != std::string::npos) {
        value = key.substr(eq + 1);
        key.resize(eq);
      }
      if (declared(spec.switches, key)) {
        if (value) throw std::invalid_argument("--" + key + " takes no value");
        values_[key] = "";
      } else if (declared(spec.values, key)) {
        if (!value) {
          if (i + 1 >= argc) throw std::invalid_argument("--" + key + " needs a value");
          value = argv[++i];
        }
        values_[key] = *value;
      } else {
        throw std::invalid_argument("unknown flag --" + key);
      }
    }
    for (const auto& [flag, other] : spec.needs) {
      if (has(flag) && !has(other)) {
        throw std::invalid_argument("--" + flag + " requires --" + other);
      }
    }
    for (const auto& [flag, other] : spec.conflicts) {
      if (has(flag) && has(other)) {
        throw std::invalid_argument("--" + flag + " does not combine with --" +
                                    other);
      }
    }
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) > 0;
  }
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::nullopt : std::make_optional(it->second);
  }
  [[nodiscard]] std::string require(const std::string& key) const {
    const auto v = get(key);
    if (!v) throw std::invalid_argument("missing required --" + key);
    return *v;
  }
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const {
    const auto v = get(key);
    return v ? parse_u64(key, *v) : fallback;
  }
  [[nodiscard]] double get_double(const std::string& key, double fallback) const {
    const auto v = get(key);
    return v ? parse_double(key, *v) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace lcaknap::tools

#endif  // LCAKNAP_TOOLS_ARGS_H

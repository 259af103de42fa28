// Minimal command-line flag parsing for the tools/ binaries.
//
// Supports `--name value`, `--name=value`, boolean `--name`, and positional
// arguments; unknown flags are an error so typos fail loudly.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "corun/common/expected.hpp"

namespace corun {

class Flags {
 public:
  /// Parses argv. `known` lists accepted flag names (without dashes);
  /// names in `boolean` take no value.
  static Expected<Flags> parse(int argc, const char* const* argv,
                               const std::set<std::string>& known,
                               const std::set<std::string>& boolean = {});

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Parses a power cap in watts: the whole text must be a finite number
/// above zero (NaN, infinities, zero, negatives and trailing garbage are
/// parse errors).
[[nodiscard]] Expected<double> parse_power_cap(const std::string& text);

}  // namespace corun

#include "corun/common/flags.hpp"

#include <cmath>
#include <cstdlib>

namespace corun {

Expected<Flags> Flags::parse(int argc, const char* const* argv,
                             const std::set<std::string>& known,
                             const std::set<std::string>& boolean) {
  Flags flags;
  if (argc > 0) flags.program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    if (!known.count(name) && !boolean.count(name)) {
      return fail("unknown flag --" + name, ErrorCategory::kInvalidArgument);
    }
    if (boolean.count(name)) {
      if (has_value) return fail("flag --" + name + " takes no value", ErrorCategory::kInvalidArgument);
      flags.values_[name] = "1";
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) return fail("flag --" + name + " needs a value", ErrorCategory::kInvalidArgument);
      value = argv[++i];
    }
    flags.values_[name] = value;
  }
  return flags;
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  const auto it = values_.find(name);
  return it == values_.end()
             ? fallback
             : std::strtoll(it->second.c_str(), nullptr, 10);
}

Expected<double> parse_power_cap(const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0' || !std::isfinite(v) ||
      !(v > 0.0)) {
    return fail("bad cap '" + text + "' (expected a finite number of watts > 0)",
                ErrorCategory::kParse);
  }
  return v;
}

}  // namespace corun

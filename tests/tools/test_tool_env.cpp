// Environment-variable fallbacks of the shared tool plumbing: an exported
// but empty (or whitespace-only) CORUN_BACKEND / CORUN_TRACE /
// CORUN_PLAN_CACHE must mean "unset", not "the empty spec" — a stray
// `export CORUN_BACKEND=` in a CI script used to turn every tool run into
// a usage error. One regression test per variable. Also the shared cap
// flag parser: `--cap`/`--global-cap` accept only finite watts > 0.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "corun/common/flags.hpp"
#include "corun/common/trace/trace.hpp"
#include "corun/sim/backend.hpp"
#include "tool_io.hpp"

namespace corun::tools {
namespace {

/// Flags with no backend/trace/plan-cache switches, so the env fallback is
/// what decides.
Flags bare_flags() {
  const char* argv[] = {"test"};
  return Flags::parse(1, const_cast<char**>(argv),
                      {"backend", "trace", "plan-cache"}, {})
      .value();
}

/// Scoped setenv/unsetenv so a failing assertion cannot leak state into
/// the next test.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~EnvGuard() { ::unsetenv(name_); }

 private:
  const char* name_;
};

Flags cap_flags(const char* value) {
  const char* argv[] = {"test", "--cap", value};
  return Flags::parse(3, const_cast<char**>(argv), {"cap"}, {}).value();
}

TEST(ToolCap, NonFiniteNonPositiveAndGarbageCapsAreErrors) {
  for (const char* bad : {"nan", "-nan", "inf", "-inf", "1e999", "-5", "0",
                          "-0", "abc", "15W", ""}) {
    const auto cap = configure_cap(cap_flags(bad), "cap");
    ASSERT_FALSE(cap.has_value()) << "'" << bad << "'";
    EXPECT_NE(cap.error().message.find("--cap"), std::string::npos);
  }
}

TEST(ToolCap, FinitePositiveCapParsesAndAbsentMeansUncapped) {
  const auto cap = configure_cap(cap_flags("16.5"), "cap");
  ASSERT_TRUE(cap.has_value());
  EXPECT_EQ(cap.value(), std::optional<double>{16.5});
  const auto absent = configure_cap(bare_flags(), "cap");
  ASSERT_TRUE(absent.has_value());
  EXPECT_FALSE(absent.value().has_value());
}

TEST(ToolEnv, EmptyOrBlankCorunBackendMeansUnset) {
  const sim::BackendSpec original = sim::default_backend_spec();
  for (const char* value : {"", " ", " \t\n"}) {
    EnvGuard guard("CORUN_BACKEND", value);
    const auto spec = configure_backend(bare_flags());
    ASSERT_TRUE(spec.has_value()) << "blank CORUN_BACKEND='" << value
                                  << "' must fall back to the default";
    EXPECT_EQ(spec.value().kind, original.kind);
  }
  // A real value still takes effect — and survives whitespace padding.
  {
    EnvGuard guard("CORUN_BACKEND", "  analytic  ");
    const auto spec = configure_backend(bare_flags());
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec.value().kind, sim::BackendKind::kAnalytic);
  }
  sim::set_default_backend(original);
}

TEST(ToolEnv, EmptyOrBlankCorunTraceMeansUnset) {
  for (const char* value : {"", "   ", "\t"}) {
    EnvGuard guard("CORUN_TRACE", value);
    EXPECT_EQ(configure_trace(bare_flags()), "")
        << "blank CORUN_TRACE='" << value << "' must not arm tracing";
  }
  {
    EnvGuard guard("CORUN_TRACE", " padded.json ");
    EXPECT_EQ(configure_trace(bare_flags()), "padded.json");
    trace::set_enabled(false);
    trace::reset();
  }
}

TEST(ToolEnv, EmptyOrBlankCorunPlanCacheMeansUnset) {
  for (const char* value : {"", " ", "\n"}) {
    EnvGuard guard("CORUN_PLAN_CACHE", value);
    const auto cache = configure_plan_cache(bare_flags());
    ASSERT_TRUE(cache.has_value())
        << "blank CORUN_PLAN_CACHE='" << value << "' must not be parsed";
    EXPECT_EQ(cache.value(), nullptr);  // caching stays off

    // ...and a caller-supplied default still applies when blank.
    const auto defaulted = configure_plan_cache(bare_flags(), "mem:4");
    ASSERT_TRUE(defaulted.has_value());
    ASSERT_NE(defaulted.value(), nullptr);
    EXPECT_EQ(defaulted.value()->config().capacity, 4u);
  }
  {
    EnvGuard guard("CORUN_PLAN_CACHE", " mem:7 ");
    const auto cache = configure_plan_cache(bare_flags());
    ASSERT_TRUE(cache.has_value());
    ASSERT_NE(cache.value(), nullptr);
    EXPECT_EQ(cache.value()->config().capacity, 7u);
    // An explicit env spec beats the caller default.
    const auto still = configure_plan_cache(bare_flags(), "mem:4");
    ASSERT_TRUE(still.has_value());
    EXPECT_EQ(still.value()->config().capacity, 7u);
  }
}

}  // namespace
}  // namespace corun::tools

// Property-based tests for the fault-injection layer. Lowercase "fault" in
// the suite name keeps `ctest -R fault` selecting it (as
// "property.fault_properties.*") alongside the unit suites.
//
// The invariant, replay determinism: an injector is a pure function of
// (spec, seed, visit sequence).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "testing/property.h"
#include "util/rng.h"

namespace testing_ = dance::testing;

namespace {

using namespace dance;

struct FaultScenario {
  double error_rate = 0.0;
  std::uint64_t seed = 0;
  int queries = 0;
};

testing_::Generator<FaultScenario> scenario_generator() {
  testing_::Generator<FaultScenario> gen;
  gen.sample = [](util::Rng& rng) {
    FaultScenario s;
    s.error_rate = static_cast<double>(rng.uniform(0.0F, 0.9F));
    s.seed = static_cast<std::uint64_t>(rng.randint(0, 1 << 20));
    s.queries = rng.randint(1, 40);
    return s;
  };
  gen.show = [](const FaultScenario& s) {
    std::ostringstream os;
    os << "{error_rate=" << s.error_rate << ", seed=" << s.seed
       << ", queries=" << s.queries << "}";
    return os.str();
  };
  return gen;
}

TEST(fault_properties, InjectorIsAPureFunctionOfSpecSeedAndVisits) {
  const auto result = testing_::check<FaultScenario>(
      "fault replay determinism", scenario_generator(),
      [](const FaultScenario& s, util::Rng&) -> std::string {
        std::ostringstream spec_text;
        spec_text << fault::kNetReadSite << ":error=" << s.error_rate << ";"
                  << fault::kNetWriteSite << ":error=" << s.error_rate / 2.0;
        const auto spec = fault::FaultSpec::parse(spec_text.str());
        fault::FaultInjector a(spec, s.seed);
        fault::FaultInjector b(spec, s.seed);
        const int visits = 50 + s.queries;
        std::vector<bool> pa;
        std::vector<bool> pb;
        for (int i = 0; i < visits; ++i) {
          const std::string site =
              (i % 3 == 0) ? fault::kNetWriteSite : fault::kNetReadSite;
          for (auto* pattern : {&pa, &pb}) {
            fault::FaultInjector& inj = (pattern == &pa) ? a : b;
            bool threw = false;
            try {
              inj.at(site);
            } catch (const fault::InjectedFault&) {
              threw = true;
            }
            pattern->push_back(threw);
          }
        }
        if (pa != pb) return "identical seeds produced different faults";
        if (a.stats().errors != b.stats().errors) {
          return "identical seeds produced different error counts";
        }
        return "";
      });
  EXPECT_TRUE(result.ok) << result.report;
}

}  // namespace

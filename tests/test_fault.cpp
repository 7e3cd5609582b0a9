// Unit tests for the dance::fault injection layer: spec parsing (the site
// prefix is required and must name a net.* site) and seeded injector
// determinism. Suite names carry a lowercase "fault" prefix on purpose:
// `ctest -R fault` selects these plus the fault property suite, which CI
// runs under TSan.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.h"

namespace {

using namespace dance;

// --- FaultSpec parsing ------------------------------------------------------

TEST(fault_spec, SiteIsRequiredAndMustBeANetSite) {
  // A clause that names no site, or a site nothing visits, would inject
  // nothing and let a chaos run pass without testing anything.
  for (const char* bad : {"error=0.25", "backend:error=0.1", "pool:latency=1",
                          "net.raed:error=0.1", "net.read:error=0.1;error=1"}) {
    EXPECT_THROW((void)fault::FaultSpec::parse(bad), std::invalid_argument)
        << bad;
  }
  for (const char* site :
       {fault::kNetAcceptSite, fault::kNetReadSite, fault::kNetWriteSite}) {
    const auto spec = fault::FaultSpec::parse(std::string(site) + ":error=0.25");
    ASSERT_EQ(spec.sites.size(), 1U);
    EXPECT_DOUBLE_EQ(spec.sites.at(site).error_rate, 0.25);
    EXPECT_TRUE(spec.active_at(site));
  }
}

TEST(fault_spec, ParsesMultiSiteMultiKindClauses) {
  const auto spec = fault::FaultSpec::parse(
      " net.read: error=0.1 , latency=0.5:2000 ; net.write: latency=1:500 ");
  ASSERT_EQ(spec.sites.size(), 2U);
  const auto& read = spec.sites.at(fault::kNetReadSite);
  EXPECT_DOUBLE_EQ(read.error_rate, 0.1);
  EXPECT_DOUBLE_EQ(read.latency_rate, 0.5);
  EXPECT_EQ(read.latency_us, 2000);
  const auto& write = spec.sites.at(fault::kNetWriteSite);
  EXPECT_DOUBLE_EQ(write.latency_rate, 1.0);
  EXPECT_EQ(write.latency_us, 500);
  EXPECT_TRUE(spec.active_at(fault::kNetWriteSite));
  EXPECT_FALSE(spec.active_at(fault::kNetAcceptSite));
}

TEST(fault_spec, TimedKindsDefaultTheirDurations) {
  const auto spec = fault::FaultSpec::parse("net.read:latency=0.5");
  const auto& s = spec.sites.at(fault::kNetReadSite);
  EXPECT_EQ(s.latency_us, 1000);  // documented default
  EXPECT_DOUBLE_EQ(s.latency_rate, 0.5);
}

TEST(fault_spec, MalformedSpecsThrowInsteadOfDegrading) {
  EXPECT_THROW((void)fault::FaultSpec::parse("net.read:error=1.5"),
               std::invalid_argument);  // rate out of [0, 1]
  EXPECT_THROW((void)fault::FaultSpec::parse("net.read:error=abc"),
               std::invalid_argument);
  EXPECT_THROW((void)fault::FaultSpec::parse("net.read:explode=0.5"),
               std::invalid_argument);  // unknown kind
  // No hang kind: a hang is a long latency spike, `latency=rate:micros`.
  EXPECT_THROW((void)fault::FaultSpec::parse("net.write:hang=1:500"),
               std::invalid_argument);
  EXPECT_THROW((void)fault::FaultSpec::parse("net.read:latency=0.5,hang=0.25"),
               std::invalid_argument);
  EXPECT_THROW((void)fault::FaultSpec::parse("net.read:error"),
               std::invalid_argument);  // missing '='
  EXPECT_THROW((void)fault::FaultSpec::parse("net.read:latency=0.5:-3"),
               std::invalid_argument);  // non-positive duration
  EXPECT_THROW((void)fault::FaultSpec::parse(":error=0.1"),
               std::invalid_argument);  // empty site name
}

TEST(fault_spec, EmptyAndWhitespaceSpecsParseEmpty) {
  EXPECT_TRUE(fault::FaultSpec::parse("").empty());
  EXPECT_TRUE(fault::FaultSpec::parse(" ; ; ").empty());
}

// --- FaultInjector ----------------------------------------------------------

/// Visits `site` n times and records which visits threw.
std::vector<bool> fault_pattern(fault::FaultInjector& injector,
                                const std::string& site, int n) {
  std::vector<bool> pattern;
  pattern.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    bool threw = false;
    try {
      injector.at(site);
    } catch (const fault::InjectedFault&) {
      threw = true;
    }
    pattern.push_back(threw);
  }
  return pattern;
}

TEST(fault_injector, SameSeedReplaysTheSameFaultSequence) {
  const auto spec = fault::FaultSpec::parse("net.read:error=0.5");
  fault::FaultInjector a(spec, 0xFA17);
  fault::FaultInjector b(spec, 0xFA17);
  const auto pa = fault_pattern(a, fault::kNetReadSite, 200);
  const auto pb = fault_pattern(b, fault::kNetReadSite, 200);
  EXPECT_EQ(pa, pb);
  EXPECT_GT(a.stats().errors, 0U);
  EXPECT_EQ(a.stats().errors, b.stats().errors);
  EXPECT_EQ(a.stats().visits, 200U);
}

TEST(fault_injector, DifferentSeedsProduceDifferentSequences) {
  const auto spec = fault::FaultSpec::parse("net.read:error=0.5");
  fault::FaultInjector a(spec, 1);
  fault::FaultInjector b(spec, 2);
  EXPECT_NE(fault_pattern(a, fault::kNetReadSite, 200),
            fault_pattern(b, fault::kNetReadSite, 200));
}

TEST(fault_injector, ErrorRateIsRoughlyRespected) {
  fault::FaultInjector injector(fault::FaultSpec::parse("net.read:error=0.5"), 7);
  const auto pattern = fault_pattern(injector, fault::kNetReadSite, 1000);
  const auto errors = injector.stats().errors;
  EXPECT_GT(errors, 350U);
  EXPECT_LT(errors, 650U);
  (void)pattern;
}

TEST(fault_injector, UnconfiguredSiteIsANoOp) {
  fault::FaultInjector injector(fault::FaultSpec::parse("net.read:error=1"),
                                7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_NO_THROW(injector.at(fault::kNetWriteSite));
  }
  EXPECT_EQ(injector.stats().visits, 0U);
  EXPECT_EQ(injector.stats().errors, 0U);
}

TEST(fault_injector, LatencyInjectionSleepsForTheConfiguredSpike) {
  fault::FaultInjector injector(
      fault::FaultSpec::parse("net.read:latency=1:20000"), 7);
  const auto start = std::chrono::steady_clock::now();
  injector.at(fault::kNetReadSite);
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_GE(elapsed, 15000);  // rate 1.0: the spike always fires
  EXPECT_EQ(injector.stats().latency_spikes, 1U);
  EXPECT_EQ(injector.stats().errors, 0U);
}

}  // namespace

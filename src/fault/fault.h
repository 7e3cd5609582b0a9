#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "obs/registry.h"
#include "util/rng.h"

namespace dance::fault {

/// The error an injector raises at a faulted site. Deliberately a plain
/// std::runtime_error subtype: net::Server turns it into the same
/// connection failure an organic one causes, and tests can still catch it
/// by exact type to prove a failure was injected rather than organic.
class InjectedFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The injection sites, all in the net::Server connection layer. An
/// injected error at accept drops the new connection; at read/write it
/// fails the connection, dropping its queued lines: the failure the
/// retrying net::Client is built to absorb. These are the only site names a
/// spec may use.
inline constexpr const char* kNetAcceptSite = "net.accept";
inline constexpr const char* kNetReadSite = "net.read";
inline constexpr const char* kNetWriteSite = "net.write";

/// Fault probabilities for one injection site. Rates are per *visit*
/// (per accepted connection / per read or write), independent draws.
struct SiteSpec {
  double error_rate = 0.0;    ///< P(throw InjectedFault)
  double latency_rate = 0.0;  ///< P(sleep latency_us)
  long latency_us = 1000;     ///< latency-spike (or hang) magnitude

  [[nodiscard]] bool any() const {
    return error_rate > 0.0 || latency_rate > 0.0;
  }
};

/// Parsed form of a DANCE_FAULT chaos spec.
///
/// Grammar (whitespace around tokens ignored):
///   spec    := clause (';' clause)*
///   clause  := site ':' pair (',' pair)*
///   site    := 'net.accept' | 'net.read' | 'net.write'
///   pair    := 'error'   '=' rate
///            | 'latency' '=' rate [':' micros]
/// Examples:
///   net.read:error=0.1
///   net.read:error=0.1,latency=0.05:2000;net.write:latency=0.01:50000
/// Rates must parse and lie in [0, 1]; durations must be positive integers.
/// Unlike the env knobs (fallback on garbage), a malformed chaos spec, a
/// clause without a site, an unknown site and an unknown kind all throw
/// std::invalid_argument: silently not injecting the faults an operator
/// asked for would make a chaos run vacuously green.
struct FaultSpec {
  std::map<std::string, SiteSpec> sites;

  [[nodiscard]] static FaultSpec parse(const std::string& text);
  /// Parses DANCE_FAULT; empty spec when unset/empty.
  [[nodiscard]] static FaultSpec from_env();

  [[nodiscard]] bool empty() const { return sites.empty(); }
  /// True when `site` is configured with at least one nonzero rate.
  [[nodiscard]] bool active_at(const std::string& site) const;
};

/// Seeded fault source for the sites of one server (or of several that
/// share it).
///
/// Each site owns an independent util::Rng stream derived from
/// testing::mix_seed(seed, fnv1a(site)), and every visit draws the same
/// two uniforms (latency, then error) regardless of which fault kinds are
/// configured. Two runs with the same seed, spec and per-site visit
/// sequence therefore fault the exact same visits, even if one run's spec
/// zeroes a rate the other sets — the replay convention the testing layer's
/// PBT seeds established. Visits to sites the spec does not name are
/// no-ops. Thread-safe; draws happen under a per-site mutex, the sleep and
/// the throw happen outside it.
class FaultInjector {
 public:
  FaultInjector(FaultSpec spec, std::uint64_t seed);

  /// Builds the injector DANCE_FAULT asks for (seeded by DANCE_FAULT_SEED,
  /// default 0xFA17); null when DANCE_FAULT is unset or empty. Throws
  /// std::invalid_argument on a malformed spec.
  [[nodiscard]] static std::shared_ptr<FaultInjector> from_env();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Visit `site`: possibly sleep `latency_us`, then possibly throw
  /// InjectedFault. Mirrors every trigger into the process-global obs
  /// counters fault.injected.{latency,errors}.
  void at(const std::string& site);

  struct Stats {
    std::uint64_t visits = 0;
    std::uint64_t errors = 0;
    std::uint64_t latency_spikes = 0;
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const FaultSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  struct Site {
    std::mutex mu;
    util::Rng rng;
    SiteSpec spec;
    explicit Site(std::uint64_t s) : rng(s) {}
  };

  FaultSpec spec_;
  std::uint64_t seed_;
  std::map<std::string, std::unique_ptr<Site>> sites_;

  std::atomic<std::uint64_t> visits_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> latency_{0};
  obs::Counter& obs_errors_;
  obs::Counter& obs_latency_;
};

}  // namespace dance::fault

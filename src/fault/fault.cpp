#include "fault/fault.h"

#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

#include "testing/property.h"
#include "util/env.h"

namespace dance::fault {

namespace {

std::string trim(const std::string& s) {
  std::size_t lo = s.find_first_not_of(" \t");
  if (lo == std::string::npos) return "";
  std::size_t hi = s.find_last_not_of(" \t");
  return s.substr(lo, hi - lo + 1);
}

[[noreturn]] void bad_spec(const std::string& what, const std::string& token) {
  throw std::invalid_argument("FaultSpec: " + what + " '" + token + "'");
}

double parse_rate(const std::string& token) {
  const std::string t = trim(token);
  char* end = nullptr;
  const double v = std::strtod(t.c_str(), &end);
  if (t.empty() || end != t.c_str() + t.size() || !(v >= 0.0) || !(v <= 1.0)) {
    bad_spec("rate must be a number in [0, 1], got", token);
  }
  return v;
}

long parse_micros(const std::string& token) {
  const std::string t = trim(token);
  char* end = nullptr;
  const long v = std::strtol(t.c_str(), &end, 10);
  if (t.empty() || end != t.c_str() + t.size() || v <= 0) {
    bad_spec("duration must be a positive integer (microseconds), got", token);
  }
  return v;
}

/// FNV-1a over the site name; folded into the base seed so each site gets
/// an independent, name-stable draw stream.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

FaultSpec FaultSpec::parse(const std::string& text) {
  FaultSpec out;
  std::size_t clause_begin = 0;
  while (clause_begin <= text.size()) {
    std::size_t clause_end = text.find(';', clause_begin);
    if (clause_end == std::string::npos) clause_end = text.size();
    const std::string clause =
        trim(text.substr(clause_begin, clause_end - clause_begin));
    clause_begin = clause_end + 1;
    if (clause.empty()) continue;

    // The site prefix ends at the first ':' before the first '=' (the ':'
    // inside latency=P:US comes after the '=').
    const std::size_t colon = clause.find(':');
    const std::size_t eq = clause.find('=');
    if (colon == std::string::npos || (eq != std::string::npos && eq < colon)) {
      bad_spec("clause needs a site prefix", clause);
    }
    const std::string site = trim(clause.substr(0, colon));
    const std::string body = clause.substr(colon + 1);
    if (site != kNetAcceptSite && site != kNetReadSite &&
        site != kNetWriteSite) {
      bad_spec("unknown site (net.accept, net.read or net.write)", site);
    }

    SiteSpec& s = out.sites[site];
    std::size_t pair_begin = 0;
    while (pair_begin <= body.size()) {
      std::size_t pair_end = body.find(',', pair_begin);
      if (pair_end == std::string::npos) pair_end = body.size();
      const std::string pair =
          trim(body.substr(pair_begin, pair_end - pair_begin));
      pair_begin = pair_end + 1;
      if (pair.empty()) continue;

      const std::size_t pair_eq = pair.find('=');
      if (pair_eq == std::string::npos) {
        bad_spec("expected kind=value, got", pair);
      }
      const std::string kind = trim(pair.substr(0, pair_eq));
      const std::string value = pair.substr(pair_eq + 1);
      if (kind == "error") {
        s.error_rate = parse_rate(value);
      } else if (kind == "latency") {
        // rate [':' micros]
        const std::size_t colon = value.find(':');
        s.latency_rate = parse_rate(value.substr(0, colon));
        if (colon != std::string::npos) {
          s.latency_us = parse_micros(value.substr(colon + 1));
        }
      } else {
        bad_spec("unknown fault kind", kind);
      }
    }
  }
  return out;
}

FaultSpec FaultSpec::from_env() {
  const std::string text = util::env_string("DANCE_FAULT", "");
  if (text.empty()) return {};
  return parse(text);
}

bool FaultSpec::active_at(const std::string& site) const {
  const auto it = sites.find(site);
  return it != sites.end() && it->second.any();
}

FaultInjector::FaultInjector(FaultSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)),
      seed_(seed),
      obs_errors_(obs::Registry::global().counter("fault.injected.errors")),
      obs_latency_(obs::Registry::global().counter("fault.injected.latency")) {
  for (const auto& [name, site_spec] : spec_.sites) {
    auto site = std::make_unique<Site>(testing::mix_seed(seed_, fnv1a(name)));
    site->spec = site_spec;
    sites_.emplace(name, std::move(site));
  }
}

void FaultInjector::at(const std::string& site) {
  const auto it = sites_.find(site);
  if (it == sites_.end()) return;
  Site& s = *it->second;

  bool do_latency = false;
  bool do_error = false;
  long latency_us = 0;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    // Always draw both, in a fixed order, so the stream position after a
    // visit is independent of which kinds the spec enables.
    const double u_latency = static_cast<double>(s.rng.uniform());
    const double u_error = static_cast<double>(s.rng.uniform());
    do_latency = u_latency < s.spec.latency_rate;
    do_error = u_error < s.spec.error_rate;
    latency_us = s.spec.latency_us;
  }
  visits_.fetch_add(1, std::memory_order_relaxed);

  if (do_latency) {
    latency_.fetch_add(1, std::memory_order_relaxed);
    obs_latency_.inc();
    std::this_thread::sleep_for(std::chrono::microseconds(latency_us));
  }
  if (do_error) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs_errors_.inc();
    throw InjectedFault("injected fault at site '" + site + "'");
  }
}

std::shared_ptr<FaultInjector> FaultInjector::from_env() {
  FaultSpec spec = FaultSpec::from_env();
  if (spec.empty()) return nullptr;
  return std::make_shared<FaultInjector>(
      std::move(spec), util::env_u64("DANCE_FAULT_SEED", 0xFA17));
}

FaultInjector::Stats FaultInjector::stats() const {
  Stats out;
  out.visits = visits_.load(std::memory_order_relaxed);
  out.errors = errors_.load(std::memory_order_relaxed);
  out.latency_spikes = latency_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace dance::fault

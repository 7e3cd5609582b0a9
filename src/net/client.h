#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/frame.h"
#include "net/socket.h"
#include "obs/registry.h"

namespace dance::net {

/// Blocking request/response client for the line protocol, carrying the
/// system's only retry policy (the chaos tests lean on it): any
/// connection-level failure (dial refused, reset, EOF mid-exchange,
/// truncated frame) tears the connection down and retries the whole
/// exchange on a fresh one, up to `retries` times with linear backoff.
/// Safe because cost queries are pure and idempotent — a resend can only
/// re-answer, never double-apply.
///
/// Not thread-safe: callers own one Client per thread or pool them (the
/// Router keeps a small per-shard pool).
class Client {
 public:
  struct Options {
    int retries = 3;            ///< re-dial + resend attempts after the first
    long backoff_us = 2000;     ///< sleep between attempts (linear)
    long dial_timeout_ms = 5000;  ///< per-attempt budget for connect retries

    /// DANCE_CLUSTER_RETRIES / DANCE_CLUSTER_BACKOFF_US /
    /// DANCE_CLUSTER_DIAL_TIMEOUT_MS override the defaults.
    [[nodiscard]] static Options from_env();
  };

  explicit Client(Endpoint ep, Options opts = Options::from_env());

  /// Sends `payload` as one frame and blocks for the one response line.
  /// Lazily connects (and reconnects after failures). Throws NetError once
  /// every attempt is exhausted.
  [[nodiscard]] std::string roundtrip(const std::string& payload);

  /// Drops the connection (next roundtrip redials).
  void close();

  [[nodiscard]] bool connected() const { return fd_.valid(); }
  [[nodiscard]] const Endpoint& endpoint() const { return ep_; }

  struct Stats {
    std::uint64_t roundtrips = 0;
    std::uint64_t retries = 0;   ///< extra attempts actually taken
    std::uint64_t failures = 0;  ///< roundtrips that exhausted all attempts
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void ensure_connected();

  Endpoint ep_;
  Options opts_;
  Fd fd_;
  std::unique_ptr<LineReader> reader_;

  Stats stats_;
  obs::Counter& obs_retries_;
  obs::Counter& obs_failures_;
};

}  // namespace dance::net

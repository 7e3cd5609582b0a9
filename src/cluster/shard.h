#pragma once

#include <string>

#include "arch/space.h"
#include "net/server.h"
#include "serve/service.h"

namespace dance::cluster {

/// One cluster shard: a net::Server whose handler is the shared wire
/// pipeline (serve::wire::answer_line) over this shard's serve::Service.
/// Because every shard speaks the exact same parse/serialize code as the
/// stdin front-end, a shard's response line is byte-identical to
/// serve_jsonl's for the same request — the property the cluster bit-identity
/// tests and the CI byte-diff smoke rely on.
///
/// Warm starts: when `Options::snapshot_path` is set, start() best-effort
/// loads the cache snapshot (a missing or corrupt file logs to stderr and
/// serves cold — a stale snapshot must never block serving), and
/// drain_and_stop() saves the cache back after the last in-flight request
/// finishes. Knob: DANCE_CLUSTER_SNAPSHOT (path; empty = disabled).
class ShardServer {
 public:
  struct Options {
    net::Server::Options net;
    std::string snapshot_path;  ///< empty = snapshots disabled

    [[nodiscard]] static Options from_env();
  };

  /// `service` and `space` must outlive the ShardServer.
  ShardServer(serve::Service& service, const arch::ArchSpace& space,
              Options opts);
  ShardServer(serve::Service& service, const arch::ArchSpace& space)
      : ShardServer(service, space, Options::from_env()) {}

  /// Loads the snapshot (if configured and present), then binds and serves.
  /// Returns the bound endpoint. Returns the number of warm entries via
  /// `warm_entries()`.
  net::Endpoint start(const net::Endpoint& listen_at);

  /// Graceful shutdown: drain in-flight requests, save the snapshot (if
  /// configured), stop. Returns false when the drain timed out (the
  /// snapshot is still saved with whatever the cache holds).
  bool drain_and_stop(long drain_timeout_ms = -1);

  [[nodiscard]] net::Server::Stats net_stats() const { return server_.stats(); }
  [[nodiscard]] const net::Endpoint& endpoint() const {
    return server_.endpoint();
  }
  [[nodiscard]] serve::Service& service() { return service_; }
  /// Entries restored by the last start() snapshot load (0 when cold).
  [[nodiscard]] std::size_t warm_entries() const { return warm_entries_; }

 private:
  serve::Service& service_;
  const arch::ArchSpace& space_;
  Options opts_;
  net::Server server_;
  std::size_t warm_entries_ = 0;
};

}  // namespace dance::cluster

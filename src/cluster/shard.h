#pragma once

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
/// A shard starts with an empty cache: every answer is cheap to recompute,
/// so the cache refills from traffic (docs/cluster.md, "Shards start cold").
class ShardServer {
 public:
  /// `service` and `space` must outlive the ShardServer.
  ShardServer(serve::Service& service, const arch::ArchSpace& space,
              net::Server::Options opts);
  ShardServer(serve::Service& service, const arch::ArchSpace& space)
      : ShardServer(service, space, net::Server::Options::from_env()) {}

  /// Binds and serves. Returns the bound endpoint.
  net::Endpoint start(const net::Endpoint& listen_at);

  /// Graceful shutdown: drain in-flight requests, then stop. Returns false
  /// when the drain timed out.
  bool drain_and_stop(long drain_timeout_ms = -1);

  [[nodiscard]] net::Server::Stats net_stats() const { return server_.stats(); }
  [[nodiscard]] const net::Endpoint& endpoint() const {
    return server_.endpoint();
  }
  [[nodiscard]] serve::Service& service() { return service_; }

 private:
  serve::Service& service_;
  const arch::ArchSpace& space_;
  net::Server server_;
};

}  // namespace dance::cluster

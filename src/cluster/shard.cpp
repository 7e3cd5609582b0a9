#include "cluster/shard.h"

#include <cstdio>
#include <sys/stat.h>

#include "cluster/snapshot.h"
#include "serve/wire.h"
#include "util/env.h"

namespace dance::cluster {

ShardServer::Options ShardServer::Options::from_env() {
  Options o;
  o.net = net::Server::Options::from_env();
  o.snapshot_path = util::env_string("DANCE_CLUSTER_SNAPSHOT", "");
  return o;
}

ShardServer::ShardServer(serve::Service& service, const arch::ArchSpace& space,
                         Options opts)
    : service_(service),
      space_(space),
      opts_(std::move(opts)),
      server_(
          [this](const std::string& line) {
            return serve::wire::answer_line(line, space_, service_);
          },
          opts_.net) {}

net::Endpoint ShardServer::start(const net::Endpoint& listen_at) {
  warm_entries_ = 0;
  if (!opts_.snapshot_path.empty()) {
    struct stat st{};
    if (::stat(opts_.snapshot_path.c_str(), &st) == 0) {
      try {
        warm_entries_ = load_snapshot(
            opts_.snapshot_path, space_.encoding_width(), *service_.cache());
      } catch (const SnapshotError& e) {
        // Warm starts are best-effort: a stale or corrupt snapshot must
        // never block serving — log, serve cold.
        std::fprintf(stderr, "[shard] snapshot load skipped: %s\n", e.what());
      }
    }
  }
  return server_.start(listen_at);
}

bool ShardServer::drain_and_stop(long drain_timeout_ms) {
  const bool drained = server_.drain(drain_timeout_ms);
  if (!opts_.snapshot_path.empty()) {
    try {
      save_snapshot(*service_.cache(), space_.encoding_width(),
                    opts_.snapshot_path);
    } catch (const SnapshotError& e) {
      std::fprintf(stderr, "[shard] snapshot save failed: %s\n", e.what());
    }
  }
  server_.stop();
  return drained;
}

}  // namespace dance::cluster

#include "cluster/shard.h"

#include <string>
#include <utility>

#include "serve/wire.h"

namespace dance::cluster {

ShardServer::ShardServer(serve::Service& service, const arch::ArchSpace& space,
                         net::Server::Options opts)
    : service_(service),
      space_(space),
      server_(
          [this](const std::string& line) {
            return serve::wire::answer_line(line, space_, service_);
          },
          std::move(opts)) {}

net::Endpoint ShardServer::start(const net::Endpoint& listen_at) {
  return server_.start(listen_at);
}

bool ShardServer::drain_and_stop(long drain_timeout_ms) {
  const bool drained = server_.drain(drain_timeout_ms);
  server_.stop();
  return drained;
}

}  // namespace dance::cluster

// Unit tests for the dance::cluster layer: consistent-hash ring shape,
// router shard selection and local error answering, and the ShardServer
// lifecycle — end-to-end over a unix socket and graceful drain. Suite names
// carry a lowercase "cluster_" prefix so `ctest -R cluster` selects the
// whole stack.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "arch/backbone.h"
#include "arch/cost_table.h"
#include "cluster/ring.h"
#include "cluster/router.h"
#include "cluster/shard.h"
#include "fault/fault.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/backend.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "util/rng.h"

#include <random>

namespace {

using namespace dance;

std::string test_path(const char* tag) {
  static int counter = 0;
  return "/tmp/dance_cluster_test_" + std::to_string(getpid()) + "_" + tag +
         "_" + std::to_string(counter++);
}

// --- hash ring --------------------------------------------------------------

TEST(cluster_ring, LookupIsDeterministicAcrossInstances) {
  const cluster::HashRing a({0, 1, 2}, 64);
  const cluster::HashRing b({2, 0, 1}, 64);  // order must not matter
  std::mt19937_64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t h = rng();
    EXPECT_EQ(a.lookup(h), b.lookup(h));
  }
}

TEST(cluster_ring, SpreadsKeysAcrossShards) {
  const int n = 4;
  const cluster::HashRing ring({0, 1, 2, 3}, 64);
  std::unordered_map<int, int> load;
  std::mt19937_64 rng(11);
  const int keys = 20000;
  for (int i = 0; i < keys; ++i) ++load[ring.lookup(rng())];
  EXPECT_EQ(static_cast<int>(load.size()), n);  // nobody starves
  for (const auto& [shard, count] : load) {
    // 64 vnodes keeps shard load within a loose band of fair share.
    EXPECT_GT(count, keys / n / 3) << "shard " << shard << " underloaded";
    EXPECT_LT(count, keys * 3 / n) << "shard " << shard << " overloaded";
  }
}

TEST(cluster_ring, VnodeCountAndIdsShapeTheRing) {
  const cluster::HashRing ring({5, 9}, 16);
  EXPECT_EQ(ring.size(), 32U);
  EXPECT_EQ(ring.num_shards(), 2);
  const cluster::HashRing dedup({3, 3, 3}, 8);
  EXPECT_EQ(dedup.num_shards(), 1);
  EXPECT_EQ(dedup.size(), 8U);
  std::mt19937_64 rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(dedup.lookup(rng()), 3);
}

// --- shard server + router over sockets -------------------------------------

/// Tiny exact-backend fixture shared by the socket tests (the LUT is
/// immutable once built; each test makes its own Service around it).
struct ExactFixture {
  arch::ArchSpace arch_space{arch::cifar10_backbone()};
  hwgen::HwSearchSpace hw_space{
      {.pe_min = 8, .pe_max = 10, .rf_min = 8, .rf_max = 16, .rf_step = 8}};
  accel::CostModel model;
  arch::CostTable table{arch_space, hw_space, model};
};

ExactFixture& fixture() {
  static ExactFixture f;
  return f;
}

std::string arch_line(int id, const arch::Architecture& a) {
  std::string line = "{\"id\": " + std::to_string(id) + ", \"arch\": [";
  for (std::size_t s = 0; s < a.size(); ++s) {
    if (s > 0) line += ", ";
    line += std::to_string(static_cast<int>(a[s]));
  }
  return line + "]}";
}

TEST(cluster_shard, AnswersMatchTheWirePipelineExactly) {
  ExactFixture& f = fixture();
  serve::ExactBackend backend(f.table);
  serve::Service socket_service(backend);
  serve::Service local_service(backend);

  cluster::ShardServer shard(socket_service, f.arch_space,
                             net::Server::Options{});
  const auto ep =
      shard.start(net::Endpoint::unix_path(test_path("shard") + ".sock"));

  net::Client client(ep);
  util::Rng rng(23);
  for (int i = 0; i < 20; ++i) {
    const std::string line = arch_line(i, f.arch_space.random(rng));
    EXPECT_EQ(client.roundtrip(line),
              serve::wire::answer_line(line, f.arch_space, local_service));
  }
  // Malformed lines come back as the same error bytes too.
  EXPECT_EQ(client.roundtrip("{\"id\": 7}"),
            serve::wire::answer_line("{\"id\": 7}", f.arch_space, local_service));
  EXPECT_TRUE(shard.drain_and_stop(10000));
}

TEST(cluster_router, RoutesByRingAndAnswersParseErrorsLocally) {
  ExactFixture& f = fixture();
  // Two live shards behind the router.
  serve::ExactBackend backend(f.table);
  serve::Service s0(backend);
  serve::Service s1(backend);
  cluster::ShardServer shard0(s0, f.arch_space, net::Server::Options{});
  cluster::ShardServer shard1(s1, f.arch_space, net::Server::Options{});
  const auto ep0 =
      shard0.start(net::Endpoint::unix_path(test_path("r0") + ".sock"));
  const auto ep1 =
      shard1.start(net::Endpoint::unix_path(test_path("r1") + ".sock"));

  cluster::Router router(f.arch_space, {{0, ep0}, {1, ep1}});
  serve::Service local(backend);

  // Routing agrees with the ring, and every answer matches the wire
  // pipeline byte-for-byte regardless of which shard served it.
  util::Rng rng(31);
  bool saw[2] = {false, false};
  for (int i = 0; i < 40; ++i) {
    const auto a = f.arch_space.random(rng);
    const std::string line = arch_line(i, a);
    const int shard = router.shard_for_key(
        serve::canonical_key(f.arch_space.encode(a)));
    ASSERT_TRUE(shard == 0 || shard == 1);
    saw[shard] = true;
    EXPECT_EQ(router.handle_line(line),
              serve::wire::answer_line(line, f.arch_space, local));
  }
  EXPECT_TRUE(saw[0] && saw[1]) << "40 random keys never hit one shard";

  // Parse errors are answered by the router itself (no shard involved).
  EXPECT_EQ(router.handle_line("not json"),
            serve::wire::answer_line("not json", f.arch_space, local));
  EXPECT_EQ(router.handle_line(""), "");
  // The router shares the one-pass parser, so its grammar rules answer
  // the same bytes: a nested id, a trailing comma, an unknown key.
  for (const std::string line :
       {R"({"x":{"id":99},"id":1,"arch":[0,1,2,3,4,5,6,0,1]})",
        R"({"id":1,"arch":[0,1,2,3,4,5,6,0,1],})",
        R"({"id":1,"arch":[0,1,2,3,4,5,6,0,1],"zzz":tru})"}) {
    const std::string answer = router.handle_line(line);
    EXPECT_EQ(answer, serve::wire::answer_line(line, f.arch_space, local))
        << line;
    EXPECT_NE(answer.find("\"id\": -1, \"error\""), std::string::npos)
        << answer;
  }

  // The shard counters show the forwards landed on the shard the ring
  // picked (the router never re-routes).
  (void)shard0.drain_and_stop(10000);
  (void)shard1.drain_and_stop(10000);
  EXPECT_GT(shard0.net_stats().requests + shard1.net_stats().requests, 0U);
}

TEST(cluster_router, UnreachableShardYieldsErrorLineNotCrash) {
  ExactFixture& f = fixture();
  net::Client::Options copts;
  copts.retries = 1;
  copts.backoff_us = 100;
  copts.dial_timeout_ms = 50;
  cluster::Router::Options opts;
  opts.client = copts;
  cluster::Router router(
      f.arch_space,
      {{0, net::Endpoint::unix_path(test_path("ghost") + ".sock")}}, opts);
  const std::string response = router.handle_line(
      "{\"id\": 3, \"arch\": [0, 0, 0, 0, 0, 0, 0, 0, 0]}");
  EXPECT_NE(response.find("\"error\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"id\": 3"), std::string::npos) << response;
}

// --- DANCE_FAULT ------------------------------------------------------------

TEST(net_server, EnvFaultSpecArmsTheNetSites) {
  // serve_cluster builds every router and shard from net::Server's env
  // options, so this is the path that carries DANCE_FAULT into a running
  // cluster.
  const char* saved = std::getenv("DANCE_FAULT");
  const std::string saved_value = saved != nullptr ? saved : "";
  setenv("DANCE_FAULT", "net.read:error=1", 1);
  const auto opts = net::Server::Options::from_env();
  if (saved != nullptr) {
    setenv("DANCE_FAULT", saved_value.c_str(), 1);
  } else {
    unsetenv("DANCE_FAULT");
  }
  ASSERT_NE(opts.injector, nullptr);
  EXPECT_TRUE(opts.injector->spec().active_at(fault::kNetReadSite));
  EXPECT_FALSE(opts.injector->spec().active_at(fault::kNetWriteSite));
}

}  // namespace

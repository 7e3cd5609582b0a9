// Unit tests for the dance::cluster layer: consistent-hash ring shape,
// router shard selection and local error answering, cache snapshot
// round-trips (including corruption rejection), and the ShardServer
// lifecycle — end-to-end over a unix socket, warm start from a snapshot,
// and graceful drain. Suite names carry a lowercase "cluster_" prefix so
// `ctest -R cluster` selects the whole stack.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "accel/cost_function.h"
#include "arch/backbone.h"
#include "arch/cost_table.h"
#include "cluster/ring.h"
#include "cluster/router.h"
#include "cluster/shard.h"
#include "cluster/snapshot.h"
#include "net/client.h"
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

// --- snapshot ---------------------------------------------------------------

serve::Response snapshot_response(float seed) {
  serve::Response r;
  r.metrics.latency_ms = 1.5 * seed;
  r.metrics.energy_mj = 2.5 * seed;
  r.metrics.area_mm2 = 3.5 * seed;
  r.config.pe_x = 8 + static_cast<int>(seed);
  r.config.pe_y = 12;
  r.config.rf_size = 16;
  r.config.dataflow = accel::Dataflow::kOutputStationary;
  return r;
}

TEST(cluster_snapshot, RoundTripsEntriesAndRecency) {
  // A full cache whose oldest key (0) was touched, so key 1 is now the
  // least recently used.
  constexpr int kCapacity = 10;
  serve::LruCache cache(kCapacity);
  for (int k = 0; k < kCapacity; ++k) {
    cache.put({static_cast<float>(k), 2.0F},
              snapshot_response(static_cast<float>(k)));
  }
  ASSERT_TRUE(cache.get({0.0F, 2.0F}).has_value());
  const std::string path = test_path("snap");
  EXPECT_EQ(cluster::save_snapshot(cache, 2, path), 10U);

  serve::LruCache restored(kCapacity);
  EXPECT_EQ(cluster::load_snapshot(path, 2, restored), 10U);
  const auto want_order = cache.entries();
  const auto got_order = restored.entries();
  ASSERT_EQ(got_order.size(), want_order.size());
  for (std::size_t i = 0; i < want_order.size(); ++i) {
    EXPECT_EQ(got_order[i].first, want_order[i].first) << "position " << i;
  }

  // One new key evicts exactly the original's LRU key; the touched one stays.
  restored.put({99.0F, 2.0F}, snapshot_response(99.0F));
  EXPECT_EQ(restored.stats().evictions, 1U);
  EXPECT_FALSE(restored.get({1.0F, 2.0F}).has_value());
  for (int k = 0; k < kCapacity; ++k) {
    if (k == 1) continue;
    const auto got = restored.get({static_cast<float>(k), 2.0F});
    ASSERT_TRUE(got.has_value()) << "key " << k;
    const auto want = snapshot_response(static_cast<float>(k));
    EXPECT_DOUBLE_EQ(got->metrics.latency_ms, want.metrics.latency_ms);
    EXPECT_DOUBLE_EQ(got->metrics.energy_mj, want.metrics.energy_mj);
    EXPECT_DOUBLE_EQ(got->metrics.area_mm2, want.metrics.area_mm2);
    EXPECT_EQ(got->config, want.config);
  }
  std::remove(path.c_str());
}

TEST(cluster_snapshot, RejectsWrongWidthAndMissingFile) {
  serve::LruCache cache(8);
  cache.put({1.0F, 2.0F}, snapshot_response(1.0F));
  const std::string path = test_path("snapw");
  (void)cluster::save_snapshot(cache, 2, path);

  serve::LruCache target(8);
  EXPECT_THROW((void)cluster::load_snapshot(path, 3, target),
               cluster::SnapshotError);
  EXPECT_THROW((void)cluster::load_snapshot(test_path("absent"), 2, target),
               cluster::SnapshotError);
  EXPECT_EQ(target.stats().entries, 0U);  // failed loads leave it untouched
  std::remove(path.c_str());
}

TEST(cluster_snapshot, RejectsCorruptionEverywhere) {
  serve::LruCache cache(16);
  for (int k = 0; k < 5; ++k) {
    cache.put({static_cast<float>(k)}, snapshot_response(2.0F));
  }
  const std::string path = test_path("snapc");
  (void)cluster::save_snapshot(cache, 1, path);

  // Read the good image once.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string image;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) image.append(buf, n);
  std::fclose(f);

  // Flipping any single byte must be rejected (checksum), as must
  // truncation at any boundary. A handful of positions keeps this fast.
  for (std::size_t at : {std::size_t{0}, image.size() / 3, image.size() / 2,
                         image.size() - 1}) {
    std::string bad = image;
    bad[at] = static_cast<char>(bad[at] ^ 0x5A);
    std::FILE* w = std::fopen(path.c_str(), "wb");
    ASSERT_NE(w, nullptr);
    std::fwrite(bad.data(), 1, bad.size(), w);
    std::fclose(w);
    serve::LruCache target(16);
    EXPECT_THROW((void)cluster::load_snapshot(path, 1, target),
                 cluster::SnapshotError)
        << "flip at " << at;
    EXPECT_EQ(target.stats().entries, 0U);
  }
  for (std::size_t keep : {std::size_t{3}, image.size() / 2, image.size() - 2}) {
    std::FILE* w = std::fopen(path.c_str(), "wb");
    ASSERT_NE(w, nullptr);
    std::fwrite(image.data(), 1, keep, w);
    std::fclose(w);
    serve::LruCache target(16);
    EXPECT_THROW((void)cluster::load_snapshot(path, 1, target),
                 cluster::SnapshotError)
        << "truncated to " << keep;
    EXPECT_EQ(target.stats().entries, 0U);
  }
  std::remove(path.c_str());
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
  serve::ExactBackend backend(f.table, accel::edap_cost());
  serve::Service socket_service(backend);
  serve::Service local_service(backend);

  cluster::ShardServer shard(socket_service, f.arch_space,
                             cluster::ShardServer::Options{});
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

TEST(cluster_shard, WarmStartRestoresCacheFromSnapshot) {
  ExactFixture& f = fixture();
  const std::string snap = test_path("warm") + ".snap";
  util::Rng rng(29);
  std::vector<std::string> lines;
  for (int i = 0; i < 8; ++i) {
    lines.push_back(arch_line(i, f.arch_space.random(rng)));
  }

  // First life: serve some queries, drain (which saves the snapshot).
  {
    serve::ExactBackend backend(f.table, accel::edap_cost());
    serve::Service service(backend);
    cluster::ShardServer::Options opts;
    opts.snapshot_path = snap;
    cluster::ShardServer shard(service, f.arch_space, opts);
    const auto ep =
        shard.start(net::Endpoint::unix_path(test_path("w1") + ".sock"));
    EXPECT_EQ(shard.warm_entries(), 0U);  // no snapshot yet: cold
    net::Client client(ep);
    for (const auto& line : lines) (void)client.roundtrip(line);
    EXPECT_TRUE(shard.drain_and_stop(10000));
  }

  // Second life: the snapshot pre-populates the cache, so the very first
  // query of a previously-seen key reports "cached": true.
  {
    serve::ExactBackend backend(f.table, accel::edap_cost());
    serve::Service service(backend);
    cluster::ShardServer::Options opts;
    opts.snapshot_path = snap;
    cluster::ShardServer shard(service, f.arch_space, opts);
    const auto ep =
        shard.start(net::Endpoint::unix_path(test_path("w2") + ".sock"));
    EXPECT_GT(shard.warm_entries(), 0U);
    net::Client client(ep);
    const std::string response = client.roundtrip(lines[0]);
    EXPECT_NE(response.find("\"cached\": true"), std::string::npos)
        << response;
    EXPECT_TRUE(shard.drain_and_stop(10000));
  }
  std::remove(snap.c_str());
}

TEST(cluster_router, RoutesByRingAndAnswersParseErrorsLocally) {
  ExactFixture& f = fixture();
  // Two live shards behind the router.
  serve::ExactBackend backend(f.table, accel::edap_cost());
  serve::Service s0(backend);
  serve::Service s1(backend);
  cluster::ShardServer shard0(s0, f.arch_space, cluster::ShardServer::Options{});
  cluster::ShardServer shard1(s1, f.arch_space, cluster::ShardServer::Options{});
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

}  // namespace

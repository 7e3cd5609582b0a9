// Property-based tests for the serve cluster. Lowercase "cluster" in the
// suite names keeps `ctest -R cluster` selecting these (as
// "property.cluster_*") alongside the unit suites.
//
// The invariants:
//   * ring stability: adding a shard remaps only keys stolen BY the new
//     shard, and only about 1/(N+1) of them; removing a shard leaves every
//     key that was not on the removed shard exactly where it was.
//   * fuzz safety: a byte stream of valid requests, binary garbage and a
//     possibly-truncated tail, delivered in arbitrary chunk sizes, never
//     crashes or desyncs the server — every complete line is answered with
//     exactly the bytes the shared wire pipeline produces, in order, on
//     one surviving connection.
//   * bit-identity: a 2-shard cluster behind a consistent-hash router
//     answers randomized replays (repeats included, so the caches engage)
//     byte-for-byte like a single-process serve::Service.
//   * chaos absorption: with 10% injected faults on every net.* site, a
//     retrying client sees zero errors and correct metrics.
//
// The socket properties are stateful across trials (shared caches, like a
// long-lived server), so they deliberately register no shrinker: shrinking
// would re-run the property against mutated state and lie about the
// counterexample.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "accel/cost_function.h"
#include "arch/backbone.h"
#include "arch/cost_table.h"
#include "cluster/ring.h"
#include "cluster/router.h"
#include "cluster/shard.h"
#include "fault/fault.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "serve/backend.h"
#include "serve/service.h"
#include "serve/types.h"
#include "serve/wire.h"
#include "testing/property.h"
#include "util/rng.h"

namespace testing_ = dance::testing;

namespace {

using namespace dance;

std::string pbt_socket_path(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/dance_pbt_" + std::to_string(getpid()) + "_" + tag + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Exact-backend fixture shared by the socket properties (the LUT is
/// immutable once built; services wrap it per test).
struct ExactFixture {
  arch::ArchSpace arch_space{arch::cifar10_backbone()};
  hwgen::HwSearchSpace hw_space{
      {.pe_min = 8, .pe_max = 10, .rf_min = 8, .rf_max = 16, .rf_step = 8}};
  accel::CostModel model;  ///< CostTable keeps a reference; must outlive it
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

// --- ring stability ---------------------------------------------------------

struct RingCase {
  int shards = 2;
  int vnodes = 64;
  std::uint64_t key_seed = 0;
};

TEST(cluster_ring, AddOrRemoveOneShardRemapsBoundedFraction) {
  testing_::Generator<RingCase> gen;
  gen.sample = [](util::Rng& rng) {
    RingCase c;
    c.shards = rng.randint(2, 8);
    c.vnodes = 1 << rng.randint(4, 7);  // 16..128
    c.key_seed = static_cast<std::uint64_t>(rng.randint(1, 1 << 30));
    return c;
  };
  gen.show = [](const RingCase& c) {
    std::ostringstream os;
    os << "shards=" << c.shards << " vnodes=" << c.vnodes
       << " key_seed=" << c.key_seed;
    return os.str();
  };

  const auto property = [](const RingCase& c, util::Rng& rng) -> std::string {
    std::vector<int> ids(static_cast<std::size_t>(c.shards));
    for (int i = 0; i < c.shards; ++i) ids[static_cast<std::size_t>(i)] = i;
    const cluster::HashRing before(ids, c.vnodes);

    // Deterministic key sample from the case, not the aux rng, so the
    // failure report pins the exact key set.
    std::vector<std::uint64_t> keys(2000);
    std::uint64_t x = c.key_seed;
    for (auto& k : keys) {
      // splitmix64 stream
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      k = z ^ (z >> 31);
    }

    // Add one shard: the only legal change is "stolen by the newcomer",
    // and the stolen fraction stays near 1/(N+1).
    std::vector<int> grown = ids;
    grown.push_back(c.shards);
    const cluster::HashRing after_add(grown, c.vnodes);
    int moved = 0;
    for (const std::uint64_t k : keys) {
      const int was = before.lookup(k);
      const int now = after_add.lookup(k);
      if (was == now) continue;
      if (now != c.shards) {
        std::ostringstream os;
        os << "adding shard " << c.shards << " moved key " << k
           << " from shard " << was << " to OLD shard " << now;
        return os.str();
      }
      ++moved;
    }
    const double fraction =
        static_cast<double>(moved) / static_cast<double>(keys.size());
    const double fair = 1.0 / static_cast<double>(c.shards + 1);
    if (fraction > 3.0 * fair) {
      std::ostringstream os;
      os << "adding one shard remapped " << fraction << " of keys; fair share "
         << fair << " (bound 3x)";
      return os.str();
    }

    // Remove one shard: every key that was NOT on it keeps its mapping
    // exactly (the defining consistent-hashing property).
    const int removed = rng.randint(0, c.shards - 1);
    std::vector<int> shrunk;
    for (const int id : ids) {
      if (id != removed) shrunk.push_back(id);
    }
    const cluster::HashRing after_remove(shrunk, c.vnodes);
    for (const std::uint64_t k : keys) {
      const int was = before.lookup(k);
      if (was == removed) continue;
      const int now = after_remove.lookup(k);
      if (now != was) {
        std::ostringstream os;
        os << "removing shard " << removed << " moved unrelated key " << k
           << " from shard " << was << " to shard " << now;
        return os.str();
      }
    }
    return "";
  };

  const auto result =
      testing_::check<RingCase>("cluster-ring-stability", gen, property);
  EXPECT_TRUE(result.ok) << result.report;
}

// --- socket fuzz ------------------------------------------------------------

/// One fuzz scenario: a sequence of logical frames plus a chunking plan.
struct FuzzCase {
  std::vector<std::string> lines;  ///< decoded payloads, '\n'-free
  bool truncate_tail = false;      ///< drop the final '\n' (partial frame)
  std::uint64_t chunk_seed = 0;    ///< drives the write-split sizes
};

std::string garbage_token(util::Rng& rng) {
  static const char kAlphabet[] =
      "{}[]\":,. abcdefghijklmnopqrstuvwxyz0123456789-+eE\x01\x7f";
  const int len = rng.randint(0, 40);
  std::string s;
  s.reserve(static_cast<std::size_t>(len));
  for (int i = 0; i < len; ++i) {
    s += kAlphabet[rng.randint(0, static_cast<int>(sizeof(kAlphabet)) - 2)];
  }
  return s;
}

TEST(cluster_fuzz, ServerSurvivesSplitsGarbageAndTruncation) {
  ExactFixture& f = fixture();
  // One long-lived server and one reference service: both see the same
  // line sequence in the same order across every trial, so their caches —
  // and therefore the "cached" response flags — evolve identically.
  static serve::ExactBackend backend(f.table, accel::edap_cost());
  static serve::Service socket_service(backend);
  static serve::Service reference(backend);
  net::Server::Options sopts;
  sopts.workers = 2;
  static net::Server server(
      [&](const std::string& line) {
        return serve::wire::answer_line(line, fixture().arch_space,
                                        socket_service);
      },
      sopts);
  static const net::Endpoint ep =
      server.start(net::Endpoint::unix_path(pbt_socket_path("fuzz")));

  static std::atomic<int> next_id{0};

  testing_::Generator<FuzzCase> gen;
  gen.sample = [](util::Rng& rng) {
    FuzzCase c;
    const int n = rng.randint(1, 12);
    for (int i = 0; i < n; ++i) {
      switch (rng.randint(0, 3)) {
        case 0:
        case 1:  // valid request (weighted: the happy path must stay hot)
          c.lines.push_back(arch_line(
              next_id.fetch_add(1), fixture().arch_space.random(rng)));
          break;
        case 2:  // garbage bytes
          c.lines.push_back(garbage_token(rng));
          break;
        default:  // blank
          c.lines.emplace_back();
          break;
      }
    }
    c.truncate_tail = rng.randint(0, 3) == 0;
    c.chunk_seed = static_cast<std::uint64_t>(rng.randint(1, 1 << 30));
    return c;
  };
  gen.show = [](const FuzzCase& c) {
    std::ostringstream os;
    os << c.lines.size() << " frames (truncate_tail=" << c.truncate_tail
       << " chunk_seed=" << c.chunk_seed << "):";
    for (const auto& l : c.lines) os << "\n  [" << l << "]";
    return os.str();
  };
  // No shrinker: trials share server/cache state (see file comment).

  const auto property = [](const FuzzCase& c, util::Rng&) -> std::string {
    // Expected transcript: the wire pipeline over the reference service,
    // in frame order. A truncated tail frame is never completed, so the
    // server owes nothing for it (and the reference must skip it too).
    std::vector<std::string> expected;
    const std::size_t complete =
        c.lines.size() - (c.truncate_tail ? 1U : 0U);
    std::string stream;
    for (std::size_t i = 0; i < c.lines.size(); ++i) {
      stream += c.lines[i];
      if (i < complete) stream += '\n';
      if (i < complete) {
        const std::string r = serve::wire::answer_line(
            c.lines[i], fixture().arch_space, reference);
        if (!r.empty()) expected.push_back(r);
      }
    }

    // Deliver the stream in adversarial chunk sizes, then half-close so
    // the server sees EOF but can still answer.
    net::Fd fd = net::dial(ep);
    util::Rng chunk_rng(c.chunk_seed);
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t n = std::min<std::size_t>(
          static_cast<std::size_t>(chunk_rng.randint(1, 7)),
          stream.size() - off);
      net::write_all(fd.get(), stream.data() + off, n);
      off += n;
    }
    ::shutdown(fd.get(), SHUT_WR);

    net::LineReader reader(1 << 20);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const auto got = net::read_line(fd.get(), reader);
      if (!got.has_value()) {
        std::ostringstream os;
        os << "connection died after " << i << " of " << expected.size()
           << " responses";
        return os.str();
      }
      if (*got != expected[i]) {
        std::ostringstream os;
        os << "response " << i << " desynced:\n  got  [" << *got
           << "]\n  want [" << expected[i] << "]";
        return os.str();
      }
    }
    // No extra bytes owed: EOF must follow the last response.
    const auto extra = net::read_line(fd.get(), reader);
    if (extra.has_value()) {
      return "server produced an unexpected extra response: [" + *extra + "]";
    }
    return "";
  };

  const auto result =
      testing_::check<FuzzCase>("cluster-socket-fuzz", gen, property);
  EXPECT_TRUE(result.ok) << result.report;
  server.stop();
}

// --- end-to-end bit-identity ------------------------------------------------

/// A replay: indices into a growing shared pool of request lines, so
/// repeats (and therefore cache hits) occur within and across trials.
struct ReplayCase {
  std::vector<std::string> lines;
};

TEST(cluster_identity, TwoShardClusterMatchesSingleProcessByteForByte) {
  ExactFixture& f = fixture();
  static serve::ExactBackend backend(f.table, accel::edap_cost());
  static serve::Service s0(backend);
  static serve::Service s1(backend);
  static serve::Service single(backend);  // the single-process oracle
  static cluster::ShardServer shard0(s0, f.arch_space,
                                     net::Server::Options{});
  static cluster::ShardServer shard1(s1, f.arch_space,
                                     net::Server::Options{});
  static const net::Endpoint ep0 =
      shard0.start(net::Endpoint::unix_path(pbt_socket_path("id0")));
  static const net::Endpoint ep1 =
      shard1.start(net::Endpoint::unix_path(pbt_socket_path("id1")));
  static cluster::Router router(f.arch_space, {{0, ep0}, {1, ep1}});

  // The shared pool: repeats draw from here so both sides see cache hits.
  static std::vector<std::string> pool;
  static std::atomic<int> next_id{0};

  testing_::Generator<ReplayCase> gen;
  gen.sample = [](util::Rng& rng) {
    ReplayCase c;
    const int n = rng.randint(4, 16);
    for (int i = 0; i < n; ++i) {
      const int kind = rng.randint(0, 9);
      if (kind < 5 || pool.empty()) {  // fresh architecture
        pool.push_back(arch_line(next_id.fetch_add(1),
                                 fixture().arch_space.random(rng)));
        c.lines.push_back(pool.back());
      } else if (kind < 9) {  // repeat: must come back "cached" everywhere
        c.lines.push_back(
            pool[static_cast<std::size_t>(rng.randint(
                0, static_cast<int>(pool.size()) - 1))]);
      } else {  // malformed: the router answers these itself
        c.lines.push_back("{\"id\": " + std::to_string(next_id.fetch_add(1)) +
                          ", \"arch\": [1, 2]}");
      }
    }
    return c;
  };
  gen.show = [](const ReplayCase& c) {
    std::ostringstream os;
    os << c.lines.size() << " lines:";
    for (const auto& l : c.lines) os << "\n  " << l;
    return os.str();
  };
  // No shrinker: trials share cluster/cache state (see file comment).

  const auto property = [](const ReplayCase& c, util::Rng&) -> std::string {
    for (std::size_t i = 0; i < c.lines.size(); ++i) {
      const std::string via_cluster = router.handle_line(c.lines[i]);
      const std::string via_single =
          serve::wire::answer_line(c.lines[i], fixture().arch_space, single);
      if (via_cluster != via_single) {
        std::ostringstream os;
        os << "line " << i << " diverged:\n  request [" << c.lines[i]
           << "]\n  cluster [" << via_cluster << "]\n  single  ["
           << via_single << "]";
        return os.str();
      }
    }
    return "";
  };

  const auto result = testing_::check<ReplayCase>(
      "cluster-single-process-bit-identity", gen, property);
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_TRUE(shard0.drain_and_stop(10000));
  EXPECT_TRUE(shard1.drain_and_stop(10000));
}

// --- chaos over sockets -----------------------------------------------------

/// Replays under injected connection faults. A resend can legitimately turn
/// a cache miss into a hit (the first answer was computed, then lost on the
/// wire), so the "cached" flag is masked before comparing; everything else
/// must match the fault-free oracle byte-for-byte.
std::string mask_cached(std::string line) {
  for (const char* flag : {"\"cached\": true", "\"cached\": false"}) {
    const auto at = line.find(flag);
    if (at != std::string::npos) {
      line.replace(at, std::string(flag).size(), "\"cached\": ?");
    }
  }
  return line;
}

struct ChaosCase {
  std::vector<std::string> lines;
  std::uint64_t fault_seed = 0;
};

TEST(cluster_chaos, RetryingClientAbsorbsTenPercentNetFaults) {
  ExactFixture& f = fixture();
  static serve::ExactBackend backend(f.table, accel::edap_cost());
  static std::atomic<std::uint64_t> faults_taken{0};
  static std::atomic<int> next_id{0};

  testing_::Generator<ChaosCase> gen;
  gen.sample = [](util::Rng& rng) {
    ChaosCase c;
    const int n = rng.randint(8, 24);
    std::vector<std::string> pool;
    for (int i = 0; i < n; ++i) {
      if (pool.empty() || rng.randint(0, 2) != 0) {
        pool.push_back(arch_line(next_id.fetch_add(1),
                                 fixture().arch_space.random(rng)));
        c.lines.push_back(pool.back());
      } else {
        c.lines.push_back(
            pool[static_cast<std::size_t>(rng.randint(
                0, static_cast<int>(pool.size()) - 1))]);
      }
    }
    c.fault_seed = static_cast<std::uint64_t>(rng.randint(1, 1 << 30));
    return c;
  };
  gen.show = [](const ChaosCase& c) {
    std::ostringstream os;
    os << c.lines.size() << " lines, fault_seed=" << c.fault_seed;
    return os.str();
  };
  // No shrinker: server construction per trial is heavy and the property
  // depends on the injector's visit sequence, not the replay shape.

  const auto property = [](const ChaosCase& c, util::Rng&) -> std::string {
    ExactFixture& fx = fixture();
    // Fault-free oracle for this trial's replay.
    serve::Service oracle(backend);
    // The shard under chaos: 10% error on every connection-layer site.
    serve::Service service(backend);
    net::Server::Options sopts;
    sopts.workers = 2;
    sopts.injector = std::make_shared<fault::FaultInjector>(
        fault::FaultSpec::parse(
            "net.accept:error=0.1;net.read:error=0.1;net.write:error=0.1"),
        c.fault_seed);
    cluster::ShardServer shard(service, fx.arch_space, sopts);
    const auto ep =
        shard.start(net::Endpoint::unix_path(pbt_socket_path("chaos")));

    net::Client::Options copts;
    copts.retries = 12;  // generous: the point is zero caller-visible errors
    copts.backoff_us = 200;
    net::Client client(ep, copts);

    std::string failure;
    for (std::size_t i = 0; i < c.lines.size() && failure.empty(); ++i) {
      std::string got;
      try {
        got = client.roundtrip(c.lines[i]);
      } catch (const net::NetError& e) {
        std::ostringstream os;
        os << "caller-visible error on line " << i << ": " << e.what();
        failure = os.str();
        break;
      }
      const std::string want =
          serve::wire::answer_line(c.lines[i], fx.arch_space, oracle);
      if (mask_cached(got) != mask_cached(want)) {
        std::ostringstream os;
        os << "line " << i << " wrong under faults:\n  got  [" << got
           << "]\n  want [" << want << "]";
        failure = os.str();
      }
    }
    faults_taken.fetch_add(shard.net_stats().faults);
    (void)shard.drain_and_stop(10000);
    return failure;
  };

  // Per-trial servers are expensive; a reduced trial count still lands
  // hundreds of injected faults (asserted below, so the test can never go
  // vacuously green).
  auto cfg = testing_::PbtConfig::from_env();
  cfg.trials = std::min(cfg.trials, 20);
  const auto result =
      testing_::check<ChaosCase>("cluster-chaos-absorption", gen, property, cfg);
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GT(faults_taken.load(), 0U) << "chaos run injected no faults";
}

}  // namespace

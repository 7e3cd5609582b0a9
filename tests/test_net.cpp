// Unit tests for the dance::net socket layer: newline framing and partial
// read reassembly (LineReader), endpoint parsing, short-write handling, the
// epoll/worker-pool Server over both transports, per-connection response
// ordering, graceful drain, and the retrying Client. Suite names carry a
// lowercase "cluster_" prefix on purpose: `ctest -R cluster` selects the
// whole cluster stack (net + routing + property suites), which CI runs
// under all three sanitizers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"

namespace {

using namespace dance;

std::string test_socket_path(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/dance_test_" + std::to_string(getpid()) + "_" + tag + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// --- framing ----------------------------------------------------------------

TEST(cluster_frame, EncodeAppendsNewlineAndRejectsEmbedded) {
  EXPECT_EQ(net::encode_line("abc"), "abc\n");
  EXPECT_EQ(net::encode_line(""), "\n");
  EXPECT_THROW((void)net::encode_line("a\nb"), net::NetError);
}

TEST(cluster_frame, LineReaderReassemblesArbitrarySplits) {
  const std::string stream = "first\nsecond line\r\n\nlast\n";
  const std::vector<std::string> expect = {"first", "second line", "", "last"};
  // Every split position of the stream must yield the same lines.
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    net::LineReader reader(1 << 10);
    std::vector<std::string> got;
    reader.feed(stream.data(), split);
    while (auto line = reader.next_line()) got.push_back(*line);
    reader.feed(stream.data() + split, stream.size() - split);
    while (auto line = reader.next_line()) got.push_back(*line);
    EXPECT_EQ(got, expect) << "split at " << split;
  }
}

TEST(cluster_frame, LineReaderKeepsPartialTail) {
  net::LineReader reader(1 << 10);
  reader.feed("unfinished", 10);
  EXPECT_FALSE(reader.next_line().has_value());
  EXPECT_EQ(reader.buffered(), 10U);
  reader.feed("\n", 1);
  const auto line = reader.next_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "unfinished");
  EXPECT_EQ(reader.buffered(), 0U);
}

TEST(cluster_frame, LineReaderRejectsOversizeLine) {
  net::LineReader reader(8);
  const std::string big(16, 'x');
  EXPECT_THROW(reader.feed(big.data(), big.size()), net::NetError);
}

// --- endpoints --------------------------------------------------------------

TEST(cluster_endpoint, ParsesTcpAndUnixForms) {
  const auto tcp = net::Endpoint::parse("tcp:127.0.0.1:9000");
  EXPECT_EQ(tcp.kind, net::Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 9000);
  EXPECT_EQ(tcp.to_string(), "tcp:127.0.0.1:9000");

  const auto uds = net::Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(uds.kind, net::Endpoint::Kind::kUnix);
  EXPECT_EQ(uds.path, "/tmp/x.sock");
  EXPECT_EQ(uds.to_string(), "unix:/tmp/x.sock");

  EXPECT_THROW((void)net::Endpoint::parse("http:foo"), std::invalid_argument);
  EXPECT_THROW((void)net::Endpoint::parse("tcp:nohost"), std::invalid_argument);
  EXPECT_THROW((void)net::Endpoint::parse("unix:"), std::invalid_argument);
}

// --- write_all --------------------------------------------------------------

TEST(cluster_socket, WriteAllSurvivesShortWritesAndBackpressure) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::Fd a(fds[0]);
  net::Fd b(fds[1]);
  // A payload far larger than the socket buffers forces short writes; the
  // reader drains concurrently so write_all has to ride backpressure.
  const std::string payload(4 << 20, 'q');
  std::string received;
  received.reserve(payload.size());
  std::thread reader([&]() {
    char buf[65536];
    std::size_t n;
    while ((n = net::read_some(b.get(), buf, sizeof(buf))) > 0) {
      received.append(buf, n);
    }
  });
  net::write_all(a.get(), payload.data(), payload.size());
  a.reset();  // EOF for the reader
  reader.join();
  EXPECT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
}

// --- server -----------------------------------------------------------------

net::Server::Options fast_options() {
  net::Server::Options o;
  o.workers = 2;
  return o;
}

TEST(cluster_net, EchoOverUnixSocket) {
  net::Server server([](const std::string& line) { return "echo:" + line; },
                     fast_options());
  const auto ep = server.start(net::Endpoint::unix_path(test_socket_path("echo")));

  net::Client client(ep);
  EXPECT_EQ(client.roundtrip("hello"), "echo:hello");
  EXPECT_EQ(client.roundtrip("world"), "echo:world");
  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, 2U);
  EXPECT_EQ(stats.accepted, 1U);
}

TEST(cluster_net, EchoOverTcpEphemeralPort) {
  net::Server server([](const std::string& line) { return line + "!"; },
                     fast_options());
  const auto ep = server.start(net::Endpoint::tcp("127.0.0.1", 0));
  EXPECT_GT(ep.port, 0);  // port 0 resolved to a concrete one

  net::Client client(ep);
  EXPECT_EQ(client.roundtrip("tcp"), "tcp!");
  server.stop();
}

TEST(cluster_net, PerConnectionResponseOrderIsPreserved) {
  // A handler with randomized latency: if the server answered a
  // connection's lines out of order, the pipelined reads below would
  // mismatch. Many connections run concurrently to make reordering likely
  // if the per-connection ownership discipline were broken.
  net::Server::Options opts;
  opts.workers = 4;
  net::Server server(
      [](const std::string& line) {
        if (line.size() % 3 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return line;
      },
      opts);
  const auto ep = server.start(net::Endpoint::unix_path(test_socket_path("ord")));

  constexpr int kConns = 4;
  constexpr int kLines = 50;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c]() {
      net::Fd fd = net::dial(ep);
      // Pipeline: write every line up front, then read all responses.
      std::string out;
      for (int i = 0; i < kLines; ++i) {
        out += "conn" + std::to_string(c) + ":" + std::to_string(i) + "\n";
      }
      net::write_all(fd.get(), out.data(), out.size());
      net::LineReader reader(1 << 16);
      for (int i = 0; i < kLines; ++i) {
        const auto line = net::read_line(fd.get(), reader);
        if (!line.has_value() ||
            *line != "conn" + std::to_string(c) + ":" + std::to_string(i)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  server.stop();
}

TEST(cluster_net, BlankHandlerReturnMeansNoResponse) {
  net::Server server(
      [](const std::string& line) {
        return line.empty() ? std::string() : "got:" + line;
      },
      fast_options());
  const auto ep = server.start(net::Endpoint::unix_path(test_socket_path("blank")));
  net::Fd fd = net::dial(ep);
  const std::string out = "\n\nreal\n";  // two no-response lines, one real
  net::write_all(fd.get(), out.data(), out.size());
  net::LineReader reader(1 << 10);
  const auto line = net::read_line(fd.get(), reader);
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "got:real");
  server.stop();
}

TEST(cluster_net, DrainAnswersEverythingInFlight) {
  std::atomic<int> handled{0};
  net::Server server(
      [&](const std::string& line) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        handled.fetch_add(1);
        return line;
      },
      fast_options());
  const auto ep = server.start(net::Endpoint::unix_path(test_socket_path("drain")));

  constexpr int kLines = 32;
  net::Fd fd = net::dial(ep);
  std::string out;
  for (int i = 0; i < kLines; ++i) out += std::to_string(i) + "\n";
  net::write_all(fd.get(), out.data(), out.size());

  // Reader thread keeps the socket drained so responses never block the
  // server; drain() must not return before all 32 lines are answered.
  std::atomic<int> responses{0};
  std::thread reader([&]() {
    net::LineReader r(1 << 10);
    for (int i = 0; i < kLines; ++i) {
      if (net::read_line(fd.get(), r).has_value()) responses.fetch_add(1);
    }
  });
  // Drain answers lines already read off the socket; wait for the first
  // response so the single write above is known to be buffered server-side
  // (one read picks up all 32 lines) before asking for a graceful drain.
  while (handled.load() == 0) std::this_thread::yield();
  EXPECT_TRUE(server.drain(/*timeout_ms=*/10000));
  EXPECT_EQ(handled.load(), kLines);  // zero in-flight after drain
  reader.join();
  EXPECT_EQ(responses.load(), kLines);
  server.stop();
  EXPECT_EQ(server.stats().requests, static_cast<std::uint64_t>(kLines));
}

TEST(cluster_net, ClientReconnectsAcrossServerRestart) {
  const std::string path = test_socket_path("restart");
  auto server = std::make_unique<net::Server>(
      [](const std::string& line) { return "v1:" + line; }, fast_options());
  (void)server->start(net::Endpoint::unix_path(path));

  net::Client::Options copts;
  copts.retries = 5;
  copts.backoff_us = 1000;
  net::Client client(net::Endpoint::unix_path(path), copts);
  EXPECT_EQ(client.roundtrip("a"), "v1:a");

  // Restart: the established connection dies; the next roundtrip must
  // redial and resend transparently.
  server->stop();
  server = std::make_unique<net::Server>(
      [](const std::string& line) { return "v2:" + line; }, fast_options());
  (void)server->start(net::Endpoint::unix_path(path));
  EXPECT_EQ(client.roundtrip("b"), "v2:b");
  EXPECT_GE(client.stats().retries, 1U);
  server->stop();
}

TEST(cluster_net, OversizeLineCountsProtocolErrorAndDropsConn) {
  net::Server::Options opts;
  opts.workers = 1;
  opts.max_line_bytes = 64;
  net::Server server([](const std::string& line) { return line; }, opts);
  const auto ep = server.start(net::Endpoint::unix_path(test_socket_path("big")));

  net::Fd fd = net::dial(ep);
  const std::string big(256, 'x');
  net::write_all(fd.get(), big.data(), big.size());
  // The server detaches the connection; reads eventually see EOF/reset.
  net::LineReader reader(1 << 10);
  EXPECT_FALSE([&]() {
    try {
      return net::read_line(fd.get(), reader).has_value();
    } catch (const net::NetError&) {
      return false;
    }
  }());
  server.stop();
  EXPECT_EQ(server.stats().protocol_errors, 1U);
}

}  // namespace

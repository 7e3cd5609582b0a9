// Sharded serve cluster: a router process consistent-hashing cost queries
// across N shard processes, each running its own serve::Service behind a
// socket server speaking the serve_jsonl line protocol.
//
// Default role spawns the whole cluster: fork+exec N shard processes
// (--role=shard, one unix socket each), wait for them to come up, then run
// the router on --listen. SIGTERM/SIGINT triggers the graceful path: the
// router drains in-flight forwards, each shard drains its queue, and the
// parent reaps the children — no request received before the signal is
// dropped. Shards start with an empty cache every time.
//
// Roles:
//   (default)            router + N forked shards
//   --role=shard         one shard (internal; spawned by the router role)
//   --client             stdin/stdout front-end: forward each line to
//                        --connect and print the response — serve_jsonl
//                        with the service behind a socket (the CI smoke
//                        byte-diffs the two)
//
// Flags:
//   --shards=N           shard count                      (default 2)
//   --listen=EP          router endpoint: tcp:HOST:PORT or unix:PATH
//                        (default unix:/tmp/dance_cluster_<pid>.sock)
//   --connect=EP         client mode: where the router listens
//   --backend=exact|surrogate   per-shard backend          (default exact)
//   --small              tiny hardware space (fast startup; CI smoke)
//   --shard-id=K         internal (shard role)
//
// DANCE_FAULT (net.accept/net.read/net.write sites) injects connection
// faults into the router and every shard; the retrying net::Clients absorb
// them. Each shard reports its count as `faults=` on its `drained:` line.
//
// Example (one shell command per line):
//   ./build/examples/serve_cluster --shards=2 --small
//       --listen=unix:/tmp/dance.sock &
//   ./build/examples/serve_cluster --client --connect=unix:/tmp/dance.sock
//       < queries.jsonl
//   kill -TERM %1
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "cluster/router.h"
#include "cluster/shard.h"
#include "fault/fault.h"
#include "net/client.h"
#include "net/socket.h"
#include "serve/service.h"
#include "serve/stack.h"
#include "serve/wire.h"
#include "util/cli.h"

namespace {

using namespace dance;

struct Args {
  std::string role = "router";
  int shards = 2;
  int shard_id = -1;
  std::string listen;
  std::string connect;
  serve::BackendSpec backend;  ///< --backend
  bool small = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--shards=N] [--listen=EP] [--backend=exact|"
               "surrogate] [--small]\n"
               "       %s --client --connect=EP\n"
               "  EP is tcp:HOST:PORT or unix:PATH\n",
               argv0, argv0);
  return 2;
}

/// Parses all of `v` as a base-10 int into `out`; false on junk, an empty
/// value, trailing characters or overflow.
bool parse_int(const char* v, int& out) {
  const char* end = v + std::strlen(v);
  const auto [ptr, ec] = std::from_chars(v, end, out);
  return ec == std::errc() && ptr == end && ptr != v;
}

// --- signals -> self-pipe ---------------------------------------------------
// The handler only writes one byte; all shutdown logic runs on the main
// thread, blocked in read(2) on the pipe until SIGTERM or SIGINT arrives.

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 1;
  // Best effort; a full pipe already means a pending wakeup.
  (void)!write(g_signal_pipe[1], &byte, 1);
}

void arm_signal_pipe() {
  if (pipe(g_signal_pipe) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  signal(SIGHUP, SIG_IGN);  // a hangup neither stops nor restarts a cluster
  signal(SIGPIPE, SIG_IGN);
}

void wait_for_signal() {
  char byte = 0;
  while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
}

std::string shard_socket_path(const net::Endpoint& listen, int shard_id) {
  const std::string base = listen.kind == net::Endpoint::Kind::kUnix
                               ? listen.path
                               : "/tmp/dance_cluster_" +
                                     std::to_string(getpid());
  return base + ".shard" + std::to_string(shard_id);
}

// --- roles ------------------------------------------------------------------

// One shard: a ShardServer over a Service on serve::make_backend (the
// builder serve_jsonl uses, so answers match the single process).
int run_shard(const Args& args) {
  arm_signal_pipe();
  const arch::ArchSpace arch_space(arch::cifar10_backbone());
  const hwgen::HwSearchSpace hw_space =
      args.small ? hwgen::HwSearchSpace::small() : hwgen::HwSearchSpace();
  std::unique_ptr<serve::CostQueryBackend> backend;
  try {
    backend = serve::make_backend(args.backend, arch_space, hw_space);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "[shard %d] cannot build backend: %s\n",
                 args.shard_id, e.what());
    return 1;
  }
  serve::Service service(*backend);

  cluster::ShardServer shard(service, arch_space);
  const net::Endpoint bound = shard.start(net::Endpoint::parse(args.listen));
  std::fprintf(stderr, "[shard %d] serving on %s (backend=%s)\n",
               args.shard_id, bound.to_string().c_str(),
               args.backend.kind.c_str());

  wait_for_signal();
  shard.drain_and_stop();
  const auto stats = shard.net_stats();
  std::fprintf(stderr,
               "[shard %d] drained: requests=%llu accepted=%llu "
               "protocol_errors=%llu faults=%llu\n",
               args.shard_id, static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.protocol_errors),
               static_cast<unsigned long long>(stats.faults));
  std::fputs(service.stats_report().c_str(), stderr);
  return 0;
}

int run_router(const Args& args, const char* argv0) {
  arm_signal_pipe();
  const net::Endpoint listen = net::Endpoint::parse(args.listen);

  // Spawn the shards: fork+exec ourselves with --role=shard. Each shard gets
  // its own unix socket derived from the router's endpoint.
  std::vector<pid_t> children;
  std::vector<cluster::Router::ShardAddress> addresses;
  for (int id = 0; id < args.shards; ++id) {
    const std::string sock = shard_socket_path(listen, id);
    std::vector<std::string> child_args = {
        argv0,
        "--role=shard",
        "--shard-id=" + std::to_string(id),
        "--listen=unix:" + sock,
        "--backend=" + args.backend.kind,
    };
    if (args.small) child_args.push_back("--small");
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      std::vector<char*> argv;
      argv.reserve(child_args.size() + 1);
      for (auto& a : child_args) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(argv0, argv.data());
      std::perror("execv");
      _exit(127);
    }
    children.push_back(pid);
    addresses.push_back({id, net::Endpoint::parse("unix:" + sock)});
  }

  // Readiness: a successful dial to every shard (dial_retry spins while the
  // child is still building its cost table).
  for (const auto& a : addresses) {
    try {
      net::Fd probe = net::dial_retry(a.endpoint, /*timeout_ms=*/60000);
    } catch (const net::NetError& e) {
      std::fprintf(stderr, "[serve_cluster] shard %d never came up: %s\n",
                   a.id, e.what());
      for (pid_t pid : children) kill(pid, SIGKILL);
      return 1;
    }
  }

  // The router never queries a backend; it only needs the space for
  // parsing/validation. Every process uses the same fixed backbone.
  arch::ArchSpace space(arch::cifar10_backbone());
  cluster::Router router(space, std::move(addresses));
  const net::Endpoint bound = router.start(listen);
  std::fprintf(stderr, "[serve_cluster] router on %s, %d shards ready\n",
               bound.to_string().c_str(), args.shards);

  wait_for_signal();
  std::fprintf(stderr, "[serve_cluster] draining...\n");
  router.drain_and_stop();
  for (pid_t pid : children) kill(pid, SIGTERM);
  for (pid_t pid : children) {
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  const auto stats = router.net_stats();
  std::fprintf(stderr,
               "[serve_cluster] drained: requests=%llu accepted=%llu\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.accepted));
  return 0;
}

int run_client(const Args& args) {
  signal(SIGPIPE, SIG_IGN);
  net::Client client(net::Endpoint::parse(args.connect));
  std::string line;
  while (std::getline(std::cin, line)) {
    if (serve::wire::is_blank(line)) continue;  // serve_jsonl skips these too
    const std::string response = client.roundtrip(line);
    std::fwrite(response.data(), 1, response.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  }
  const auto& stats = client.stats();
  std::fprintf(stderr, "[client] roundtrips=%llu retries=%llu failures=%llu\n",
               static_cast<unsigned long long>(stats.roundtrips),
               static_cast<unsigned long long>(stats.retries),
               static_cast<unsigned long long>(stats.failures));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool client_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = util::flag_value(argv[i], "--role=")) {
      args.role = v;
    } else if (const char* v = util::flag_value(argv[i], "--shards=")) {
      if (!parse_int(v, args.shards)) {
        std::fprintf(stderr, "--shards needs an integer, got: %s\n", v);
        return usage(argv[0]);
      }
    } else if (const char* v = util::flag_value(argv[i], "--shard-id=")) {
      if (!parse_int(v, args.shard_id)) {
        std::fprintf(stderr, "--shard-id needs an integer, got: %s\n", v);
        return usage(argv[0]);
      }
    } else if (const char* v = util::flag_value(argv[i], "--listen=")) {
      args.listen = v;
    } else if (const char* v = util::flag_value(argv[i], "--connect=")) {
      args.connect = v;
    } else if (const char* v = util::flag_value(argv[i], "--backend=")) {
      args.backend.kind = v;
    } else if (std::strcmp(argv[i], "--small") == 0) {
      args.small = true;
    } else if (std::strcmp(argv[i], "--client") == 0) {
      client_mode = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return usage(argv[0]);
    }
  }
  if (args.backend.kind != "exact" && args.backend.kind != "surrogate") {
    std::fprintf(stderr, "--backend must be exact or surrogate\n");
    return 2;
  }
  // Every server reads DANCE_FAULT; reject a bad spec before forking shards.
  try {
    (void)fault::FaultSpec::from_env();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bad DANCE_FAULT: %s\n", e.what());
    return 2;
  }
  if (client_mode) {
    if (args.connect.empty()) {
      std::fprintf(stderr, "--client needs --connect=EP\n");
      return 2;
    }
    return run_client(args);
  }
  if (args.listen.empty()) {
    args.listen = "unix:/tmp/dance_cluster_" + std::to_string(getpid()) +
                  ".sock";
  }
  if (args.role == "shard") {
    if (args.shard_id < 0) {
      std::fprintf(stderr, "--role=shard needs --shard-id=K\n");
      return 2;
    }
    return run_shard(args);
  }
  if (args.role != "router") {
    std::fprintf(stderr, "--role must be router or shard\n");
    return 2;
  }
  if (args.shards < 1) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return 2;
  }
  return run_router(args, argv[0]);
}

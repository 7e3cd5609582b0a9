#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fault/fault.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/registry.h"

namespace dance::net {

/// Epoll + worker-pool line-protocol server (TCP or unix-domain).
///
/// One IO thread owns the epoll set: it accepts connections, reads whatever
/// bytes are available, reassembles complete lines (LineReader) and queues
/// them per connection. `workers` threads pull connections off a ready
/// queue and run the handler one line at a time; a connection is owned by
/// at most one worker at a time, so responses go back in request order even
/// though different connections progress in parallel. The handler returns
/// the response line (no terminator); an empty return means "no response"
/// (blank input lines). Handlers run concurrently across connections and
/// must be thread-safe — serve::Service is.
///
/// Shutdown: `drain()` stops accepting and reading, answers every line
/// already received, flushes the writes, and returns once zero requests are
/// in flight (the SIGTERM path). `stop()` then tears the threads down;
/// calling `stop()` without a prior drain abandons queued lines.
class Server {
 public:
  using Handler = std::function<std::string(const std::string& line)>;

  struct Options {
    int workers = 4;                      ///< handler threads
    int backlog = 64;                     ///< listen(2) backlog
    std::size_t max_line_bytes = 1 << 20; ///< oversize-frame cutoff
    /// Chaos source for the fault::kNet*Site sites (null = no faults).
    std::shared_ptr<fault::FaultInjector> injector;

    /// DANCE_CLUSTER_WORKERS / DANCE_CLUSTER_BACKLOG /
    /// DANCE_CLUSTER_MAX_LINE override the defaults (positive integers;
    /// garbage ignored); the injector is fault::FaultInjector::from_env(),
    /// so DANCE_FAULT reaches every server built from env options.
    [[nodiscard]] static Options from_env();
  };

  /// Lifetime counters for THIS server instance. The same events feed the
  /// process-global obs counters cluster.net.{accepted,closed,requests,
  /// bytes_in,bytes_out,protocol_errors,faults} used by the exporters.
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
    std::uint64_t requests = 0;  ///< handler invocations
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t protocol_errors = 0;  ///< oversize frames
    std::uint64_t faults = 0;           ///< injected net.* faults taken
  };

  Server(Handler handler, Options opts);
  explicit Server(Handler handler) : Server(std::move(handler), Options::from_env()) {}
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the IO + worker threads. Returns the bound
  /// endpoint (tcp port 0 resolved). One start per Server.
  Endpoint start(const Endpoint& listen_at);

  /// Graceful drain; returns true once no requests are in flight, false on
  /// timeout (timeout_ms < 0 waits forever). Idempotent.
  bool drain(long timeout_ms = -1);

  /// Stops threads and closes every fd. Implicit in the destructor.
  void stop();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const Endpoint& endpoint() const { return bound_; }
  [[nodiscard]] const Options& options() const { return opts_; }

 private:
  struct Conn {
    explicit Conn(int f, std::size_t max_line) : fd(f), reader(max_line) {}
    const int fd;
    LineReader reader;               ///< IO thread only
    std::mutex write_mu;             ///< serializes response writes vs close
    // --- guarded by Server::mu_ ---
    std::deque<std::string> inbox;   ///< complete lines awaiting a worker
    bool scheduled = false;          ///< a worker currently owns this conn
    bool eof = false;                ///< peer half-closed; close when drained
    bool detached = false;           ///< out of the epoll set; close pending
  };
  using ConnPtr = std::shared_ptr<Conn>;

  void io_loop();
  void worker_loop();
  void handle_readable(const ConnPtr& conn);
  /// IO thread: remove from epoll; optionally drop queued lines; close the
  /// fd now if no worker holds the conn.
  void detach(const ConnPtr& conn, bool drop_inbox);
  /// IO thread: close + forget a detached conn that no worker holds.
  void finalize(const ConnPtr& conn);
  void wake_io();

  Handler handler_;
  Options opts_;
  Endpoint bound_;

  Fd listen_fd_;
  Fd epoll_fd_;
  Fd wake_fd_;  ///< eventfd: workers/drain/stop nudge the IO thread

  mutable std::mutex mu_;
  std::condition_variable worker_cv_;  ///< ready queue / stop
  std::condition_variable drain_cv_;   ///< pending_ == 0 while draining
  std::deque<ConnPtr> ready_;
  std::vector<int> finalize_fds_;      ///< worker -> IO thread close requests
  std::unordered_map<int, ConnPtr> conns_;  ///< IO thread writes, stats reads
  std::uint64_t pending_ = 0;  ///< received lines not yet fully answered
  bool draining_ = false;
  bool stop_ = false;
  bool started_ = false;

  Stats stats_;  ///< guarded by mu_

  obs::Counter& obs_accepted_;
  obs::Counter& obs_closed_;
  obs::Counter& obs_requests_;
  obs::Counter& obs_bytes_in_;
  obs::Counter& obs_bytes_out_;
  obs::Counter& obs_protocol_errors_;
  obs::Counter& obs_faults_;

  std::vector<std::thread> workers_;
  std::thread io_;  ///< joined in stop()
};

}  // namespace dance::net

#include "net/server.h"

#include <cerrno>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/env.h"

namespace dance::net {

namespace {

/// Last-resort sanitizer for handler-exception text that must travel inside
/// a JSON string (the wire layer catches its own errors; this only fires on
/// a handler bug).
std::string json_safe(std::string text) {
  for (char& c : text) {
    if (c == '"' || c == '\\' || c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

}  // namespace

Server::Options Server::Options::from_env() {
  Options opts;
  opts.workers = util::env_int("DANCE_CLUSTER_WORKERS", opts.workers, 1, 256);
  opts.backlog = util::env_int("DANCE_CLUSTER_BACKLOG", opts.backlog, 1);
  opts.max_line_bytes = static_cast<std::size_t>(util::env_long(
      "DANCE_CLUSTER_MAX_LINE", static_cast<long>(opts.max_line_bytes), 64));
  opts.injector = fault::FaultInjector::from_env();
  return opts;
}

Server::Server(Handler handler, Options opts)
    : handler_(std::move(handler)),
      opts_(std::move(opts)),
      obs_accepted_(obs::Registry::global().counter("cluster.net.accepted")),
      obs_closed_(obs::Registry::global().counter("cluster.net.closed")),
      obs_requests_(obs::Registry::global().counter("cluster.net.requests")),
      obs_bytes_in_(obs::Registry::global().counter("cluster.net.bytes_in")),
      obs_bytes_out_(obs::Registry::global().counter("cluster.net.bytes_out")),
      obs_protocol_errors_(
          obs::Registry::global().counter("cluster.net.protocol_errors")),
      obs_faults_(obs::Registry::global().counter("cluster.net.faults")) {}

Server::~Server() { stop(); }

Endpoint Server::start(const Endpoint& listen_at) {
  if (started_) throw NetError("Server::start called twice");

  listen_fd_ = listen_on(listen_at, opts_.backlog);
  set_nonblocking(listen_fd_.get(), true);
  bound_ = local_endpoint(listen_fd_.get(), listen_at);

  epoll_fd_ = Fd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) throw NetError("epoll_create1 failed");
  wake_fd_ = Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_fd_.valid()) throw NetError("eventfd failed");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_.get();
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, listen_fd_.get(), &ev);
  ev.data.fd = wake_fd_.get();
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev);

  started_ = true;
  io_ = std::thread([this] { io_loop(); });
  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  return bound_;
}

void Server::wake_io() {
  if (!wake_fd_.valid()) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t rc =
      ::write(wake_fd_.get(), &one, sizeof(one));
}

bool Server::drain(long timeout_ms) {
  std::unique_lock<std::mutex> lk(mu_);
  if (!started_) return true;
  draining_ = true;
  lk.unlock();
  wake_io();
  lk.lock();
  const auto done = [this] { return pending_ == 0; };
  if (timeout_ms < 0) {
    drain_cv_.wait(lk, done);
    return true;
  }
  return drain_cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms), done);
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!started_ || stop_) return;
    stop_ = true;
  }
  worker_cv_.notify_all();
  wake_io();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  if (io_.joinable()) io_.join();

  std::unordered_map<int, ConnPtr> leftover;
  {
    std::lock_guard<std::mutex> lk(mu_);
    leftover.swap(conns_);
    stats_.closed += leftover.size();
  }
  for (auto& [fd, conn] : leftover) {
    ::close(fd);
    obs_closed_.inc();
  }
  epoll_fd_.reset();
  wake_fd_.reset();
  listen_fd_.reset();
  if (bound_.kind == Endpoint::Kind::kUnix && !bound_.path.empty()) {
    ::unlink(bound_.path.c_str());
  }
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void Server::detach(const ConnPtr& conn, bool drop_inbox) {
  bool do_finalize = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!conn->detached) {
      ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, conn->fd, nullptr);
      conn->detached = true;
    }
    if (drop_inbox && !conn->inbox.empty()) {
      pending_ -= conn->inbox.size();
      conn->inbox.clear();
      if (draining_ && pending_ == 0) drain_cv_.notify_all();
    }
    do_finalize = !conn->scheduled && conn->inbox.empty();
  }
  if (do_finalize) finalize(conn);
}

void Server::finalize(const ConnPtr& conn) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (conns_.erase(conn->fd) == 0) return;  // already finalized
    ++stats_.closed;
  }
  // Serialize against a straggling response write (workers release
  // write_mu before requesting a close, so this is uncontended in
  // practice; the lock makes the ordering airtight).
  std::lock_guard<std::mutex> wl(conn->write_mu);
  ::close(conn->fd);
  obs_closed_.inc();
}

void Server::handle_readable(const ConnPtr& conn) {
  if (opts_.injector) {
    try {
      opts_.injector->at(fault::kNetReadSite);
    } catch (const fault::InjectedFault&) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.faults;
      }
      obs_faults_.inc();
      detach(conn, /*drop_inbox=*/true);
      return;
    }
  }

  char buf[16384];
  bool got_eof = false;
  std::vector<std::string> lines;
  std::size_t nbytes = 0;
  while (true) {
    const ssize_t rc = ::read(conn->fd, buf, sizeof(buf));
    if (rc > 0) {
      nbytes += static_cast<std::size_t>(rc);
      try {
        conn->reader.feed(buf, static_cast<std::size_t>(rc));
      } catch (const NetError&) {
        {
          std::lock_guard<std::mutex> lk(mu_);
          ++stats_.protocol_errors;
          stats_.bytes_in += nbytes;
        }
        obs_protocol_errors_.inc();
        obs_bytes_in_.inc(nbytes);
        detach(conn, /*drop_inbox=*/true);
        return;
      }
      while (auto line = conn->reader.next_line()) {
        lines.push_back(std::move(*line));
      }
      if (rc < static_cast<ssize_t>(sizeof(buf))) break;  // likely drained
      continue;
    }
    if (rc == 0) {
      got_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    {
      std::lock_guard<std::mutex> lk(mu_);
      stats_.bytes_in += nbytes;
    }
    obs_bytes_in_.inc(nbytes);
    detach(conn, /*drop_inbox=*/true);  // connection error (e.g. ECONNRESET)
    return;
  }

  if (nbytes > 0) obs_bytes_in_.inc(nbytes);
  bool notify = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.bytes_in += nbytes;
    for (std::string& line : lines) {
      conn->inbox.push_back(std::move(line));
      ++pending_;
    }
    if (!conn->scheduled && !conn->inbox.empty()) {
      conn->scheduled = true;
      ready_.push_back(conn);
      notify = true;
    }
    if (got_eof) conn->eof = true;
  }
  if (notify) worker_cv_.notify_one();
  // A half-closed peer sends nothing further: stop polling it, answer what
  // it already sent (responses still flow on the write side), then close.
  if (got_eof) detach(conn, /*drop_inbox=*/false);
}

void Server::io_loop() {
  std::vector<epoll_event> events(64);
  bool drain_begun = false;
  while (true) {
    const int n = ::epoll_wait(epoll_fd_.get(), events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone: shutting down
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (wake_fd_.valid() && fd == wake_fd_.get()) {
        std::uint64_t drainv = 0;
        while (::read(wake_fd_.get(), &drainv, sizeof(drainv)) > 0) {
        }
        continue;
      }
      if (listen_fd_.valid() && fd == listen_fd_.get()) {
        while (true) {
          const int cfd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                                    SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (cfd < 0) {
            if (errno == EINTR) continue;
            break;  // EAGAIN or transient accept error
          }
          if (opts_.injector) {
            bool faulted = false;
            try {
              opts_.injector->at(fault::kNetAcceptSite);
            } catch (const fault::InjectedFault&) {
              faulted = true;
            }
            if (faulted) {
              {
                std::lock_guard<std::mutex> lk(mu_);
                ++stats_.faults;
              }
              obs_faults_.inc();
              ::close(cfd);
              continue;
            }
          }
          if (bound_.kind == Endpoint::Kind::kTcp) {
            const int one = 1;
            ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          }
          auto conn = std::make_shared<Conn>(cfd, opts_.max_line_bytes);
          {
            std::lock_guard<std::mutex> lk(mu_);
            conns_.emplace(cfd, conn);
            ++stats_.accepted;
          }
          obs_accepted_.inc();
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.fd = cfd;
          ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, cfd, &ev);
        }
        continue;
      }
      ConnPtr conn;
      {
        std::lock_guard<std::mutex> lk(mu_);
        const auto it = conns_.find(fd);
        if (it != conns_.end()) conn = it->second;
      }
      if (!conn) continue;
      if ((events[i].events & EPOLLERR) != 0) {
        detach(conn, /*drop_inbox=*/true);
        continue;
      }
      handle_readable(conn);
    }

    // Post-event bookkeeping requested via the eventfd: worker close
    // requests, drain begin, stop.
    std::vector<int> to_finalize;
    bool begin_drain = false;
    bool stopping = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      to_finalize.swap(finalize_fds_);
      if (draining_ && !drain_begun) begin_drain = true;
      stopping = stop_;
    }
    if (begin_drain) {
      drain_begun = true;
      listen_fd_.reset();  // closing removes it from the epoll set
      if (bound_.kind == Endpoint::Kind::kUnix && !bound_.path.empty()) {
        ::unlink(bound_.path.c_str());  // new dials fail fast
      }
      std::vector<ConnPtr> snapshot;
      {
        std::lock_guard<std::mutex> lk(mu_);
        snapshot.reserve(conns_.size());
        for (const auto& [cfd, c] : conns_) snapshot.push_back(c);
      }
      for (const ConnPtr& c : snapshot) detach(c, /*drop_inbox=*/false);
    }
    for (const int fd : to_finalize) {
      ConnPtr conn;
      {
        std::lock_guard<std::mutex> lk(mu_);
        const auto it = conns_.find(fd);
        if (it != conns_.end()) conn = it->second;
      }
      if (conn) detach(conn, /*drop_inbox=*/false);
    }
    if (stopping) break;
  }
}

void Server::worker_loop() {
  while (true) {
    ConnPtr conn;
    std::string line;
    {
      std::unique_lock<std::mutex> lk(mu_);
      worker_cv_.wait(lk, [this] { return stop_ || !ready_.empty(); });
      if (stop_) return;
      conn = ready_.front();
      ready_.pop_front();
      if (conn->inbox.empty()) {
        // Lines were dropped by a connection-level failure while this conn
        // sat in the ready queue.
        conn->scheduled = false;
        if (conn->eof || conn->detached) {
          finalize_fds_.push_back(conn->fd);
          lk.unlock();
          wake_io();
        }
        continue;
      }
      line = std::move(conn->inbox.front());
      conn->inbox.pop_front();
    }

    std::string response;
    try {
      response = handler_(line);
    } catch (const std::exception& e) {
      response =
          "{\"id\": -1, \"error\": \"handler: " + json_safe(e.what()) + "\"}";
    }
    for (char& c : response) {
      if (c == '\n') c = ' ';  // a stray terminator would desync the stream
    }

    bool write_failed = false;
    bool write_faulted = false;
    if (!response.empty()) {
      response.push_back('\n');
      std::lock_guard<std::mutex> wl(conn->write_mu);
      try {
        if (opts_.injector) opts_.injector->at(fault::kNetWriteSite);
        write_all(conn->fd, response.data(), response.size());
      } catch (const fault::InjectedFault&) {
        write_failed = true;
        write_faulted = true;
      } catch (const NetError&) {
        write_failed = true;
      }
    }

    bool want_wake = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.requests;
      if (!write_failed && !response.empty()) {
        stats_.bytes_out += response.size();
      }
      if (write_faulted) ++stats_.faults;
      --pending_;
      if (write_failed) {
        pending_ -= conn->inbox.size();
        conn->inbox.clear();
        conn->scheduled = false;
        finalize_fds_.push_back(conn->fd);
        want_wake = true;
      } else if (!conn->inbox.empty()) {
        ready_.push_back(conn);  // stays scheduled; fair round-robin
        worker_cv_.notify_one();
      } else {
        conn->scheduled = false;
        if (conn->eof || conn->detached) {
          finalize_fds_.push_back(conn->fd);
          want_wake = true;
        }
      }
      if (draining_ && pending_ == 0) drain_cv_.notify_all();
    }
    obs_requests_.inc();
    if (!write_failed && !response.empty()) obs_bytes_out_.inc(response.size());
    if (write_faulted) obs_faults_.inc();
    if (want_wake) wake_io();
  }
}

}  // namespace dance::net

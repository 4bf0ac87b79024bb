#include "support/fault_injection.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"

namespace diffpattern::dist {

using common::Status;
using common::steady_now_ms;

namespace {

/// Uniform draw in [0, 1) from the shared fate stream.
double draw_unit(std::uint64_t& state) {
  return static_cast<double>(common::splitmix64_next(state) >> 11) *
         0x1.0p-53;
}

/// Blocking best-effort write of `count` bytes starting at `data`.
bool send_exact(int fd, const std::uint8_t* data, std::size_t count) {
  std::size_t sent = 0;
  while (sent < count) {
    const ssize_t n = ::send(fd, data + sent, count - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

enum class Fate { kNone, kRefuse, kReset, kCorrupt, kTruncate, kStall };

Fate draw_fate(const FaultConfig& config, std::uint64_t& rng) {
  double u = draw_unit(rng);
  const double fates[] = {
      config.refuse_probability, config.reset_probability,
      config.corrupt_probability, config.truncate_probability,
      config.stall_probability};
  const Fate names[] = {Fate::kRefuse, Fate::kReset, Fate::kCorrupt,
                        Fate::kTruncate, Fate::kStall};
  for (int i = 0; i < 5; ++i) {
    if (u < fates[i]) {
      return names[i];
    }
    u -= fates[i];
  }
  return Fate::kNone;
}

}  // namespace

struct FaultInjector::Impl {
  std::atomic<bool> stopping{false};
  std::atomic<bool> partitioned{false};
  int listen_fd = -1;
  std::string unix_path;
  std::string upstream;

  std::mutex mutex;  // Guards config, rng, live_fds, threads.
  FaultConfig config;
  std::uint64_t rng = 0;
  std::vector<int> live_fds;
  std::vector<std::thread> threads;

  FaultCounters tallies;  // Guarded by mutex.

  void track(int fd) {
    std::lock_guard<std::mutex> lock(mutex);
    live_fds.push_back(fd);
  }

  void untrack(int fd) {
    std::lock_guard<std::mutex> lock(mutex);
    live_fds.erase(std::remove(live_fds.begin(), live_fds.end(), fd),
                   live_fds.end());
  }

  void count(std::int64_t FaultCounters::* field) {
    std::lock_guard<std::mutex> lock(mutex);
    tallies.*field += 1;
  }

  /// Interruptible sleep: wakes early on shutdown or partition.
  void sleep_ms(std::int64_t total_ms) {
    const std::int64_t deadline = steady_now_ms() + total_ms;
    while (steady_now_ms() < deadline &&
           !stopping.load(std::memory_order_relaxed) &&
           !partitioned.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min<std::int64_t>(20, deadline - steady_now_ms())));
    }
  }

  /// Reads one full request frame from the client. Returns false when the
  /// peer closed, stalled past the io deadline, fed garbage, or the proxy
  /// is shutting down / partitioned.
  bool read_request(int fd, FrameAssembler& assembler, Bytes* out) {
    std::uint8_t chunk[16384];
    bool mid_frame = false;
    std::int64_t frame_deadline = 0;
    while (!assembler.complete()) {
      if (stopping.load(std::memory_order_relaxed) ||
          partitioned.load(std::memory_order_relaxed)) {
        return false;
      }
      struct pollfd pfd {};
      pfd.fd = fd;
      pfd.events = POLLIN;
      const int rc = ::poll(&pfd, 1, 100);
      if (rc < 0 && errno != EINTR) {
        return false;
      }
      if (rc <= 0) {
        if (mid_frame && steady_now_ms() > frame_deadline) {
          return false;
        }
        continue;
      }
      const std::size_t cap = std::min(sizeof(chunk), assembler.want());
      const ssize_t n = ::recv(fd, chunk, cap, 0);
      if (n == 0) {
        return false;
      }
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        return false;
      }
      if (!mid_frame) {
        mid_frame = true;
        frame_deadline = steady_now_ms() + 10000;
      }
      if (!assembler.feed(chunk, static_cast<std::size_t>(n)).ok()) {
        return false;
      }
    }
    *out = assembler.take();
    return true;
  }

  void serve_connection(int fd) {
    Fate fate = Fate::kNone;
    FaultConfig snapshot;
    {
      std::lock_guard<std::mutex> lock(mutex);
      tallies.connections += 1;
      snapshot = config;
      fate = draw_fate(snapshot, rng);
    }
    if (partitioned.load(std::memory_order_relaxed)) {
      count(&FaultCounters::partitioned);
      ::close(fd);
      return;
    }
    if (fate == Fate::kRefuse) {
      // Accept-then-slam: the client observes a reset/closed connection
      // before it can write, the moral equivalent of ECONNREFUSED.
      count(&FaultCounters::refused);
      ::close(fd);
      return;
    }

    track(fd);
    // Upstream leg reuses the real transport — dial failures and torn
    // upstream reads surface as failed relays (client sees a dropped
    // connection, a typed UNAVAILABLE on its side).
    SocketTransportConfig upstream_config;
    upstream_config.call_timeout_ms = snapshot.upstream_timeout_ms;
    upstream_config.connect_timeout_ms = snapshot.upstream_timeout_ms;
    SocketTransport upstream_transport(upstream_config);
    auto channel = upstream_transport.connect(upstream);

    FrameAssembler assembler;
    for (;;) {
      Bytes request;
      if (!read_request(fd, assembler, &request)) {
        break;
      }
      if (partitioned.load(std::memory_order_relaxed)) {
        count(&FaultCounters::partitioned);
        break;
      }
      if (fate == Fate::kReset) {
        // Request consumed, connection torn before any response byte.
        count(&FaultCounters::resets);
        break;
      }
      if (fate == Fate::kStall) {
        // Withhold the response until the client's read deadline trips
        // (bounded so a deadline-less client cannot pin the thread).
        count(&FaultCounters::stalled);
        sleep_ms(snapshot.stall_max_ms);
        break;
      }
      if (snapshot.latency_ms > 0) {
        sleep_ms(snapshot.latency_ms);
        if (stopping.load(std::memory_order_relaxed) ||
            partitioned.load(std::memory_order_relaxed)) {
          break;
        }
      }
      auto response = channel->call(request);
      if (!response.ok()) {
        break;  // Upstream gone: drop the client too.
      }
      Bytes framed = frame_payload(response.value());
      if (fate == Fate::kCorrupt && framed.size() > kSocketFrameHeaderBytes) {
        // Flip one payload byte AFTER the checksum was computed — exactly
        // the in-flight corruption the outer frame exists to catch.
        const std::size_t victim =
            kSocketFrameHeaderBytes +
            (framed.size() - kSocketFrameHeaderBytes) / 2;
        framed[victim] ^= 0x20;
        count(&FaultCounters::corrupted);
        send_exact(fd, framed.data(), framed.size());
        break;
      }
      if (fate == Fate::kTruncate) {
        // Torn write: half the frame, then the connection vanishes.
        count(&FaultCounters::truncated);
        send_exact(fd, framed.data(), framed.size() / 2);
        break;
      }
      if (!send_exact(fd, framed.data(), framed.size())) {
        break;
      }
      count(&FaultCounters::relayed);
    }
    untrack(fd);
    ::close(fd);
  }
};

FaultInjector::FaultInjector(FaultConfig config)
    : impl_(std::make_shared<Impl>()) {
  impl_->config = config;
  impl_->rng = config.seed;
}

FaultInjector::~FaultInjector() { shutdown(); }

common::Status FaultInjector::start(const std::string& listen_address,
                                    const std::string& upstream_address) {
  if (impl_->listen_fd >= 0) {
    return Status::FailedPrecondition("injector already started");
  }
  if (auto upstream = parse_socket_address(upstream_address);
      !upstream.ok()) {
    return upstream.status();
  }
  auto parsed = parse_socket_address(listen_address);
  if (!parsed.ok()) {
    return parsed.status();
  }
  // Shares the transport's getaddrinfo-backed listener, so the proxy
  // speaks the same resolver grammar (hostnames, bracketed IPv6) as the
  // endpoints it sits between.
  auto listener = bind_and_listen(parsed.value());
  if (!listener.ok()) {
    return listener.status();
  }
  address_ = listener.value().bound_address;
  impl_->unix_path = listener.value().unix_path;
  impl_->upstream = upstream_address;
  impl_->listen_fd = listener.value().fd;
  accept_thread_ = std::thread([this] { accept_loop(); });
  return Status::Ok();
}

void FaultInjector::accept_loop() {
  auto impl = impl_;
  while (!impl->stopping.load(std::memory_order_relaxed)) {
    struct pollfd pfd {};
    pfd.fd = impl->listen_fd;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0 && errno != EINTR) {
      break;
    }
    if (rc <= 0) {
      continue;
    }
    const int conn = ::accept(impl->listen_fd, nullptr, nullptr);
    if (conn < 0) {
      continue;
    }
    std::lock_guard<std::mutex> lock(impl->mutex);
    impl->threads.emplace_back(
        [impl, conn] { impl->serve_connection(conn); });
  }
}

void FaultInjector::set_partitioned(bool partitioned) {
  impl_->partitioned.store(partitioned, std::memory_order_relaxed);
  if (partitioned) {
    // Kill live connections so in-flight exchanges tear immediately
    // rather than completing through a "partitioned" link.
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (const int fd : impl_->live_fds) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
}

void FaultInjector::set_config(const FaultConfig& config) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->config = config;
}

FaultCounters FaultInjector::counters() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->tallies;
}

void FaultInjector::shutdown() {
  if (!impl_ || impl_->listen_fd < 0) {
    return;
  }
  impl_->stopping.store(true, std::memory_order_relaxed);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  ::close(impl_->listen_fd);
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    threads.swap(impl_->threads);
    for (const int fd : impl_->live_fds) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  for (auto& thread : threads) {
    thread.join();
  }
  if (!impl_->unix_path.empty()) {
    ::unlink(impl_->unix_path.c_str());
  }
}

}  // namespace diffpattern::dist

// Fault-injection proxy for the socket transport.
//
// A FaultInjector sits between a client channel and a real worker socket:
// it listens on its own address, relays framed request/response exchanges
// to an upstream server, and — under a seeded RNG so every chaos run is
// reproducible — injects the network's failure modes one layer below
// where the transport can see them:
//
//   latency     every request is delayed before relaying upstream;
//   refuse      the connection is closed the moment it is accepted
//               (client sees UNAVAILABLE and enters backoff);
//   reset       the request is read, then the connection is torn down
//               before any response byte (UNAVAILABLE);
//   corrupt     one byte of the response payload is flipped in flight —
//               the outer-frame checksum must catch it (DATA_LOSS);
//   truncate    only a prefix of the response frame is relayed before the
//               connection closes (torn read, DATA_LOSS);
//   stall       the response is withheld until the client's read deadline
//               trips (DEADLINE_EXCEEDED);
//   partition   set_partitioned(true) kills every live connection and
//               makes new ones die instantly until lifted.
//
// Each accepted connection draws its fate ONCE from the RNG stream. The
// transport reconnects per failure, so a probability of 1.0 for a fault
// class makes every retry hit it, and mixed probabilities give a
// deterministic storm for a fixed seed and connection order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "common/status.h"
#include "dist/socket_transport.h"

namespace diffpattern::dist {

struct FaultConfig {
  std::uint64_t seed = 1;
  /// Added latency per relayed request, before it reaches the upstream.
  std::int64_t latency_ms = 0;
  /// Per-connection fate probabilities (evaluated in this order; the
  /// remainder of the unit interval is a faithful relay).
  double refuse_probability = 0.0;
  double reset_probability = 0.0;
  double corrupt_probability = 0.0;
  double truncate_probability = 0.0;
  double stall_probability = 0.0;
  /// Upper bound on how long a stalled connection is held open (the
  /// client's read deadline should trip long before this).
  std::int64_t stall_max_ms = 60000;
  /// Deadline for the proxy's own upstream calls.
  std::int64_t upstream_timeout_ms = 10000;
};

struct FaultCounters {
  std::int64_t connections = 0;  ///< Accepted (including faulted) conns.
  std::int64_t relayed = 0;      ///< Requests relayed faithfully.
  std::int64_t refused = 0;
  std::int64_t resets = 0;
  std::int64_t corrupted = 0;
  std::int64_t truncated = 0;
  std::int64_t stalled = 0;
  std::int64_t partitioned = 0;  ///< Connections killed by a partition.

  template <class F, class... S>
  static void fields(F&& f, S&... s) {
    f("connections", s.connections...);
    f("relayed", s.relayed...);
    f("refused", s.refused...);
    f("resets", s.resets...);
    f("corrupted", s.corrupted...);
    f("truncated", s.truncated...);
    f("stalled", s.stalled...);
    f("partitioned", s.partitioned...);
  }
  std::string to_json() const { return common::counters_json(*this); }
};

/// TCP/Unix-socket proxy injecting the faults above. start() binds the
/// listen address (TCP port 0 resolves to a real port, readable via
/// address()) and relays to `upstream_address`. Thread-per-connection;
/// shutdown() (implied by the destructor) stops accepting, unblocks any
/// stalled connection, and joins every thread.
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config = {});
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  common::Status start(const std::string& listen_address,
                       const std::string& upstream_address);

  /// Resolved listen address clients should dial. Empty before start().
  const std::string& address() const { return address_; }

  /// Partition control: while partitioned, live connections are killed
  /// and new ones close immediately after accept. Lifting the partition
  /// restores faithful relaying (subject to the configured fates).
  void set_partitioned(bool partitioned);

  /// Replaces the fault configuration; applies to connections accepted
  /// after the call (the RNG stream continues, it is not reseeded).
  void set_config(const FaultConfig& config);

  FaultCounters counters() const;

  void shutdown();

 private:
  struct Impl;
  void accept_loop();

  std::string address_;
  std::shared_ptr<Impl> impl_;
  std::thread accept_thread_;
};

}  // namespace diffpattern::dist

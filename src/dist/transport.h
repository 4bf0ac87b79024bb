// Transport abstraction between routers/clients and worker nodes.
//
// A Channel is one client's connection to one worker endpoint: call() sends
// a request buffer and blocks for the response buffer. Two implementations
// ship: the in-process LoopbackTransport here — a name -> handler registry
// that lets tests and benches run a multi-worker topology inside one
// binary — and SocketTransport (socket_transport.h, TCP and Unix sockets).
// Both carry the same endian-fixed, versioned wire bytes.
//
// Failure semantics mirror a real network: calling a channel whose endpoint
// was unregistered (worker shut down) or marked unreachable (partition
// injection for failover tests) returns UNAVAILABLE, not UB. A handler that
// throws is caught at the boundary and surfaces as INTERNAL.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "dist/wire.h"

namespace diffpattern::dist {

/// Serves one request buffer; the returned buffer may hold one frame or a
/// concatenation of frames (streaming responses).
using WireHandler = std::function<Bytes(const Bytes& request)>;

/// Connection-level statistics a channel exposes to its owner (the router
/// folds these into RouterCounters so transport behavior is visible in one
/// snapshot). In-process channels have nothing to reconnect and report
/// zeros.
struct ChannelStats {
  std::int64_t connects = 0;    ///< Successful connection establishments.
  std::int64_t reconnects = 0;  ///< Connects beyond pool growth (recoveries).
  std::int64_t pool_peak = 0;   ///< High-water of concurrently open
                                ///< connections (pooled transports; 0 or 1
                                ///< for single-connection channels).
};

/// One client connection to one endpoint. Thread-safe: call() may be issued
/// from any thread.
class Channel {
 public:
  virtual ~Channel() = default;
  virtual common::Result<Bytes> call(const Bytes& request) = 0;
  /// Endpoint name this channel targets (stable; used in router logs).
  virtual const std::string& endpoint() const = 0;
  /// Connection statistics; default is all-zero (in-process transports).
  virtual ChannelStats stats() const { return {}; }
};

/// In-process transport: a registry of named endpoints. Channels obtained
/// via connect() stay valid after the transport mutates — a call through a
/// channel whose endpoint has vanished fails with UNAVAILABLE (the moral
/// equivalent of a connection refused).
class LoopbackTransport {
 public:
  LoopbackTransport();
  ~LoopbackTransport();

  LoopbackTransport(const LoopbackTransport&) = delete;
  LoopbackTransport& operator=(const LoopbackTransport&) = delete;

  /// Registers (or replaces) an endpoint. The handler is invoked on the
  /// caller's thread.
  void register_endpoint(const std::string& name, WireHandler handler);
  /// Removes an endpoint; existing channels to it start failing.
  void unregister_endpoint(const std::string& name);
  /// Partition injection: an unreachable endpoint stays registered but all
  /// calls to it fail with UNAVAILABLE until re-enabled.
  void set_endpoint_reachable(const std::string& name, bool reachable);
  /// Latency injection: every call to `name` sleeps this long before the
  /// handler runs (0 disables). Gives loopback tests the socket
  /// transport's added-latency fault class without sockets.
  void set_endpoint_latency(const std::string& name, std::int64_t delay_ms);
  /// One-shot call failure: the next call to `name` returns `status`
  /// instead of reaching the handler (injections queue in FIFO order).
  /// Mirrors a socket-level timeout/reset so loopback suites can reuse the
  /// chaos assertions.
  void inject_call_failure(const std::string& name, common::Status status);

  /// Returns a channel to `name`. Connecting to a not-yet-registered
  /// endpoint is allowed (calls fail until it registers), matching how a
  /// router can be configured before its workers come up.
  std::shared_ptr<Channel> connect(const std::string& name);

  /// Opaque shared endpoint table (public so the channel implementation in
  /// transport.cpp can hold it; the definition never leaves that file).
  struct Registry;

 private:
  std::shared_ptr<Registry> registry_;
};

}  // namespace diffpattern::dist

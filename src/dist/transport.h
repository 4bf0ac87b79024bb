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
// is not registered (worker not up yet, or shut down) returns UNAVAILABLE,
// not UB. A handler that throws is caught at the boundary and surfaces as
// INTERNAL. The loopback transport injects no faults of its own: tests cut
// a worker off by unregistering its endpoint, and the network fault classes
// (latency, stalls, resets) are exercised over sockets.
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
  /// Removes an endpoint; existing channels to it start failing until the
  /// name is registered again.
  void unregister_endpoint(const std::string& name);

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

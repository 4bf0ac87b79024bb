// WorkerNode: one serving replica behind the wire protocol.
//
// A WorkerNode owns a PatternService and registers itself as a transport
// endpoint. Incoming frames are decoded, dispatched to the service, and the
// answer is re-encoded — generate requests answer with a GenerateResult (or
// a bare Status on rejection, retry hints intact), streaming requests with
// a concatenation of StreamedPattern frames terminated by a StreamEnd frame
// carrying the final status + stats, and health probes with a WorkerHealth
// snapshot derived from the service counters. Decode failures are answered
// with the typed decode Status — a corrupt frame can never crash a worker.
#pragma once

#include <cstdint>
#include <string>

#include "dist/transport.h"
#include "dist/wire.h"
#include "service/pattern_service.h"

namespace diffpattern::dist {

/// Wire-level counters for one worker (distinct from the service's own
/// ServiceCounters: these count frames, not requests inside the service).
template <class Cells = common::PlainCells>
struct WorkerWireCountersT {
  using Counter = typename Cells::Counter;
  Counter calls{};           ///< Frames dispatched (any type).
  Counter generate_calls{};  ///< Blocking generate frames served.
  Counter stream_calls{};    ///< Streaming generate frames served.
  Counter health_probes{};   ///< Health snapshots answered.
  Counter decode_errors{};   ///< Frames rejected at decode.

  template <class F, class... S>
  static void fields(F&& f, S&... s) {
    f("calls", s.calls...);
    f("generate_calls", s.generate_calls...);
    f("stream_calls", s.stream_calls...);
    f("health_probes", s.health_probes...);
    f("decode_errors", s.decode_errors...);
  }
  std::string to_json() const { return common::counters_json(*this); }
};
using WorkerWireCounters = WorkerWireCountersT<>;

class WorkerNode {
 public:
  /// Registers endpoint `name` on `transport`. The transport must outlive
  /// the node (the node unregisters itself on destruction). Models are
  /// registered by the caller through service().models().
  WorkerNode(std::string name, LoopbackTransport& transport,
             service::ServiceConfig config = service::ServiceConfig{});
  /// Transport-free node: nothing is registered anywhere — the owner wires
  /// handle() up itself (a SocketServer in the CLI's `serve` mode).
  explicit WorkerNode(std::string name,
                      service::ServiceConfig config = service::ServiceConfig{});
  ~WorkerNode();
  WorkerNode(const WorkerNode&) = delete;
  WorkerNode& operator=(const WorkerNode&) = delete;

  const std::string& name() const { return name_; }
  service::PatternService& service() { return service_; }

  /// Current health snapshot (also what a kHealthProbe frame answers).
  WorkerHealth health_snapshot();

  WorkerWireCounters wire_counters() const { return common::snapshot(wire_); }

  /// Serves one request buffer; exposed publicly so wire-level tests can
  /// bypass the transport. Never throws.
  Bytes handle(const Bytes& request);

 private:
  Bytes handle_generate(const Bytes& frame);
  Bytes handle_stream(const Bytes& frame);

  std::string name_;
  LoopbackTransport* transport_;  ///< Null for transport-free nodes.
  service::PatternService service_;
  WorkerWireCountersT<common::LiveCells> wire_;
};

}  // namespace diffpattern::dist

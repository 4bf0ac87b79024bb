// ReplicaRouter: load-aware placement over worker replicas.
//
// The router keeps a replica table per model and forwards generate /
// generate_stream requests over the wire to one replica, chosen by
// power-of-two-choices over the workers' reported health (admission depth +
// fused fill ratio) plus the router's own in-flight count. It honors
// workers' retry_after hints: a shedding replica is put on a capped,
// escalating cooldown and traffic redirects to its peers. Transport or
// decode failures (and failed health probes — a replica that stops
// reporting) mark a replica down until a later probe revives it.
//
// The router never alters payload bytes — it forwards the encoded request
// verbatim and returns the decoded response — so the service's byte
// determinism contract extends across replicas: the same (model, seed)
// request yields identical bytes no matter which replica serves it or how
// many failovers happened on the way.
//
// Runtime discovery: sync_directory() reconciles the replica set against a
// WorkerDirectory snapshot (file, registry, or static list — see
// dist/discovery.h) so replicas join and leave a live router without a
// restart. Replica objects are never freed — a replica that leaves the
// directory is *retired* (kept allocated, excluded from routing and
// probing) and revived in place if the directory lists it again — so the
// raw replica pointers refresh_health() holds across its unlocked probes
// stay valid forever.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "service/request.h"

namespace diffpattern::dist {

class WorkerDirectory;  // dist/discovery.h

struct RouterConfig {
  enum class Policy {
    kLoadAware,   ///< Power-of-two-choices over reported load.
    kRoundRobin,  ///< Load-blind baseline (the bench's control arm).
  };
  Policy policy = Policy::kLoadAware;
  /// Seed of the router's replica-sampling RNG (placement only — output
  /// bytes never depend on it).
  std::uint64_t seed = 0;
  /// Probe every replica's health once per this many routed requests
  /// (also the revival path for down replicas). <= 0 disables periodic
  /// probing; refresh_health() probes on demand.
  std::int64_t health_refresh_every = 16;
  /// Hard cap on any single cooldown, hinted or escalated.
  std::int64_t max_backoff_ms = 250;
};

struct RouterCounters {
  std::int64_t requests = 0;        ///< route() calls (generate + stream).
  std::int64_t redirects = 0;       ///< Sheds answered by trying a peer.
  std::int64_t failovers = 0;       ///< Replicas marked down mid-request.
  std::int64_t sheds_returned = 0;  ///< Requests shed by every replica.
  std::int64_t health_probes = 0;
  std::int64_t health_failures = 0;
  // Per-fault-class breakdown of failovers (failovers == transport_timeouts
  // + transport_errors + decode_failures — the chaos suite asserts it):
  std::int64_t transport_timeouts = 0;  ///< Calls lost to DEADLINE_EXCEEDED.
  std::int64_t transport_errors = 0;    ///< UNAVAILABLE & other call faults.
  std::int64_t decode_failures = 0;     ///< DATA_LOSS or unintelligible reply.
  /// Reconnects summed from every replica channel's ChannelStats at
  /// snapshot time (socket channels report recoveries; loopback is 0).
  std::int64_t reconnects = 0;
  // Runtime discovery (sync_directory):
  std::int64_t directory_adds = 0;      ///< Replicas added or revived.
  std::int64_t directory_removes = 0;   ///< Replicas retired.
  std::int64_t directory_sync_failures = 0;  ///< Unreadable snapshots.

  template <class F, class... S>
  static void fields(F&& f, S&... s) {
    f("requests", s.requests...);
    f("redirects", s.redirects...);
    f("failovers", s.failovers...);
    f("sheds_returned", s.sheds_returned...);
    f("health_probes", s.health_probes...);
    f("health_failures", s.health_failures...);
    f("transport_timeouts", s.transport_timeouts...);
    f("transport_errors", s.transport_errors...);
    f("decode_failures", s.decode_failures...);
    f("reconnects", s.reconnects...);
    f("directory_adds", s.directory_adds...);
    f("directory_removes", s.directory_removes...);
    f("directory_sync_failures", s.directory_sync_failures...);
  }
  std::string to_json() const { return common::counters_json(*this); }
};

class ReplicaRouter {
 public:
  explicit ReplicaRouter(RouterConfig config = RouterConfig{});
  ~ReplicaRouter();  // Out-of-line: ModelTable is incomplete here.
  ReplicaRouter(const ReplicaRouter&) = delete;
  ReplicaRouter& operator=(const ReplicaRouter&) = delete;

  /// Adds a replica channel for `model`. Thread-safe; replicas may be
  /// added while traffic flows.
  void add_replica(const std::string& model,
                   std::shared_ptr<Channel> channel);

  /// Number of replicas currently routable (not down, not cooling) for
  /// `model`.
  std::int64_t healthy_replicas(const std::string& model) const;

  /// Blocking generate through the best replica, with shed-redirect and
  /// down-failover. NOT_FOUND when no replica is registered for the model;
  /// when every replica sheds, the last shed status (retry hint intact) is
  /// returned so the client can back off.
  common::Result<service::GenerateResult> generate(
      const service::GenerateRequest& request);

  /// Streaming generate: deliveries of the winning replica are replayed to
  /// `callback` in arrival order. A replica that sheds the stream before
  /// delivering anything is redirected like a blocking shed.
  common::Result<service::GenerateStats> generate_stream(
      const service::GenerateRequest& request,
      const service::StreamCallback& callback);

  /// Probes every replica of every model now: a successful probe updates
  /// health and revives a down replica, a failed one marks it down.
  void refresh_health();

  /// Dials the channel for a directory-discovered endpoint address
  /// (typically [&t](const std::string& a) { return t.connect(a); }).
  using ChannelFactory =
      std::function<std::shared_ptr<Channel>(const std::string& address)>;

  struct DirectorySyncStats {
    std::int64_t added = 0;    ///< Replicas added or revived this sync.
    std::int64_t retired = 0;  ///< Replicas retired this sync.
  };

  /// Reconciles the replica set against `directory.snapshot()`: endpoints
  /// new to a model are dialed through `connect` and added, replicas whose
  /// (model, endpoint) pair vanished from the snapshot are retired, and
  /// retired replicas that reappear are revived in place. A snapshot error
  /// is returned (and counted) with the current set untouched — a flaky
  /// directory source never drains a healthy router. Thread-safe; may run
  /// while traffic flows.
  common::Result<DirectorySyncStats> sync_directory(
      WorkerDirectory& directory, const ChannelFactory& connect);

  RouterCounters counters() const;

 private:
  struct Replica;
  struct ModelTable;

  /// Routed send with shed/failover policy; returns the winning replica's
  /// raw response buffer.
  common::Result<Bytes> route(const std::string& model, const Bytes& frame,
                              bool allow_retry);
  Replica* pick_replica(ModelTable& table, std::int64_t now_ms,
                        const std::vector<Replica*>& tried);
  std::uint64_t next_random();

  RouterConfig config_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<ModelTable>> tables_;
  std::uint64_t rng_state_;
  std::int64_t routed_since_probe_ = 0;
  RouterCounters counters_;
};

}  // namespace diffpattern::dist

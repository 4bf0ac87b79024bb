// Runtime worker discovery: the WorkerDirectory seam the ReplicaRouter
// consults to learn which replicas exist NOW, so a fleet can grow and
// shrink under a live router without restart.
//
// A directory is just "snapshot() -> desired (model, address) pairs";
// where those pairs come from is the implementation's business:
//   StaticWorkerDirectory  a fixed in-memory list (the --connect flags of
//                          a CLI invocation), swappable for tests;
//   FileWorkerDirectory    a "model address" text file re-read on every
//                          snapshot — edit the file, re-sync the router,
//                          no process restart (periodic re-read);
//   WorkerRegistry         fed by kWorkerAnnounce wire frames — a worker
//                          dials the registry on startup and announces
//                          itself (self-announce on connect). handler()
//                          plugs straight into a SocketServer.
// The router's sync_directory() diffs a snapshot against its replica set:
// new pairs are added through a caller-supplied channel factory, vanished
// pairs are retired (kept allocated — the router never frees a Replica —
// but excluded from routing until the directory lists them again).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "dist/transport.h"
#include "dist/wire.h"

namespace diffpattern::dist {

/// One desired replica: `model` served at dialable `address`.
struct WorkerEndpoint {
  std::string model;
  std::string address;

  friend bool operator==(const WorkerEndpoint& a, const WorkerEndpoint& b) {
    return a.model == b.model && a.address == b.address;
  }
};

/// The discovery seam: who should be serving right now. Implementations
/// must be safe to snapshot from any thread.
class WorkerDirectory {
 public:
  virtual ~WorkerDirectory() = default;
  /// Current desired replica set. A typed error (NOT_FOUND, DATA_LOSS,
  /// INVALID_ARGUMENT...) means "source unreadable" — the router keeps
  /// its current set rather than draining on a flaky source.
  virtual common::Result<std::vector<WorkerEndpoint>> snapshot() = 0;
};

/// Fixed list, swappable under a lock — the degenerate directory that
/// makes static configuration and runtime discovery the same code path.
class StaticWorkerDirectory : public WorkerDirectory {
 public:
  StaticWorkerDirectory() = default;
  explicit StaticWorkerDirectory(std::vector<WorkerEndpoint> endpoints);

  common::Result<std::vector<WorkerEndpoint>> snapshot() override;

  /// Replaces the whole desired set (takes effect at the next snapshot).
  void set_endpoints(std::vector<WorkerEndpoint> endpoints);
  /// Appends one endpoint (a replica joining).
  void add_endpoint(WorkerEndpoint endpoint);
  /// Drops every endpoint with this address (a replica leaving).
  void remove_address(const std::string& address);

 private:
  std::mutex mutex_;
  std::vector<WorkerEndpoint> endpoints_;
};

/// Parses the worker-directory text format: one "MODEL ADDRESS" pair per
/// line, '#' starts a comment, blank lines ignored. INVALID_ARGUMENT
/// (with the 1-based line number) on anything else.
common::Result<std::vector<WorkerEndpoint>> parse_worker_directory(
    const std::string& text);

/// Re-reads `path` on every snapshot — the periodic-re-read flavor of
/// refresh. NOT_FOUND when the file is unreadable, INVALID_ARGUMENT on a
/// malformed line (both leave a syncing router's current set untouched).
class FileWorkerDirectory : public WorkerDirectory {
 public:
  explicit FileWorkerDirectory(std::string path);

  common::Result<std::vector<WorkerEndpoint>> snapshot() override;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct WorkerRegistryCounters {
  std::int64_t announces = 0;        ///< Accepted announce frames.
  std::int64_t announce_rejects = 0; ///< Malformed/invalid announces.
  std::int64_t removes = 0;          ///< Workers removed.

  template <class F, class... S>
  static void fields(F&& f, S&... s) {
    f("announces", s.announces...);
    f("announce_rejects", s.announce_rejects...);
    f("removes", s.removes...);
  }
  std::string to_json() const { return common::counters_json(*this); }
};

/// Registry fed by worker self-announce frames (MessageType::kWorkerAnnounce)
/// — the push flavor of refresh. A re-announce from the same address
/// replaces that worker's model list; remove_address() handles departures
/// (e.g. an operator draining a host).
class WorkerRegistry : public WorkerDirectory {
 public:
  common::Result<std::vector<WorkerEndpoint>> snapshot() override;

  /// Applies one decoded announce. INVALID_ARGUMENT when the announce
  /// carries no address or no models.
  common::Status apply_announce(const WorkerAnnounce& announce);

  /// Drops every model registered by `address`.
  void remove_address(const std::string& address);

  /// WireHandler for a SocketServer: decodes kWorkerAnnounce frames,
  /// applies them, answers a kStatus frame (OK or the typed rejection).
  WireHandler handler();

  WorkerRegistryCounters counters() const;

 private:
  mutable std::mutex mutex_;
  // address -> (worker name, models); map keeps snapshots deterministic.
  std::map<std::string, WorkerAnnounce> workers_;
  WorkerRegistryCounters counters_;
};

}  // namespace diffpattern::dist

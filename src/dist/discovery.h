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
//                          no process restart (periodic re-read).
// The router's sync_directory() diffs a snapshot against its replica set:
// new pairs are added through a caller-supplied channel factory, vanished
// pairs are retired (kept allocated — the router never frees a Replica —
// but excluded from routing until the directory lists them again).
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

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

}  // namespace diffpattern::dist

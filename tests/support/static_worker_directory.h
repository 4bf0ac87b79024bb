// An in-memory WorkerDirectory for tests: a fixed endpoint list the test
// edits between router syncs to make replicas join and leave.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "dist/discovery.h"

namespace diffpattern::dist {

/// Fixed list, swappable under a lock.
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

}  // namespace diffpattern::dist

#include "support/static_worker_directory.h"

#include <utility>

namespace diffpattern::dist {

using common::Result;

StaticWorkerDirectory::StaticWorkerDirectory(
    std::vector<WorkerEndpoint> endpoints)
    : endpoints_(std::move(endpoints)) {}

Result<std::vector<WorkerEndpoint>> StaticWorkerDirectory::snapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  return endpoints_;
}

void StaticWorkerDirectory::set_endpoints(
    std::vector<WorkerEndpoint> endpoints) {
  std::lock_guard<std::mutex> lock(mutex_);
  endpoints_ = std::move(endpoints);
}

void StaticWorkerDirectory::add_endpoint(WorkerEndpoint endpoint) {
  std::lock_guard<std::mutex> lock(mutex_);
  endpoints_.push_back(std::move(endpoint));
}

void StaticWorkerDirectory::remove_address(const std::string& address) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<WorkerEndpoint> kept;
  kept.reserve(endpoints_.size());
  for (WorkerEndpoint& endpoint : endpoints_) {
    if (endpoint.address != address) {
      kept.push_back(std::move(endpoint));
    }
  }
  endpoints_ = std::move(kept);
}

}  // namespace diffpattern::dist

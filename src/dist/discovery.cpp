#include "dist/discovery.h"

#include <fstream>
#include <sstream>
#include <utility>

namespace diffpattern::dist {

using common::Result;
using common::Status;

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

Result<std::vector<WorkerEndpoint>> parse_worker_directory(
    const std::string& text) {
  std::vector<WorkerEndpoint> out;
  std::istringstream lines(text);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    const auto hash = line.find('#');
    if (hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream fields(line);
    std::string model;
    std::string address;
    std::string extra;
    if (!(fields >> model)) {
      continue;  // Blank or comment-only line.
    }
    if (!(fields >> address) || (fields >> extra)) {
      return Status::InvalidArgument(
          "worker directory line " + std::to_string(line_number) +
          ": expected 'MODEL ADDRESS', got '" + line + "'");
    }
    out.push_back(WorkerEndpoint{std::move(model), std::move(address)});
  }
  return out;
}

FileWorkerDirectory::FileWorkerDirectory(std::string path)
    : path_(std::move(path)) {}

Result<std::vector<WorkerEndpoint>> FileWorkerDirectory::snapshot() {
  std::ifstream file(path_, std::ios::binary);
  if (!file) {
    return Status::NotFound("worker directory file '" + path_ +
                            "' is unreadable");
  }
  std::ostringstream text;
  text << file.rdbuf();
  auto parsed = parse_worker_directory(text.str());
  if (!parsed.ok()) {
    return Status::InvalidArgument("worker directory file '" + path_ +
                                   "': " + parsed.status().message());
  }
  return parsed;
}

}  // namespace diffpattern::dist

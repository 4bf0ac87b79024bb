#include "dist/transport.h"

#include <chrono>
#include <deque>
#include <exception>
#include <thread>
#include <utility>

namespace diffpattern::dist {

/// Shared endpoint table. Channels hold a shared_ptr to it so they outlive
/// the transport safely (calls after transport destruction fail cleanly).
struct LoopbackTransport::Registry {
  struct Endpoint {
    WireHandler handler;
    bool reachable = true;
    std::int64_t latency_ms = 0;
    std::deque<common::Status> pending_failures;
  };

  std::mutex mutex;
  std::map<std::string, Endpoint> endpoints;
};

namespace {

class LoopbackChannel : public Channel {
 public:
  LoopbackChannel(std::shared_ptr<LoopbackTransport::Registry> registry,
                  std::string endpoint)
      : registry_(std::move(registry)), endpoint_(std::move(endpoint)) {}

  common::Result<Bytes> call(const Bytes& request) override {
    WireHandler handler;
    std::int64_t latency_ms = 0;
    {
      std::lock_guard<std::mutex> lock(registry_->mutex);
      auto it = registry_->endpoints.find(endpoint_);
      if (it == registry_->endpoints.end()) {
        return common::Status::Unavailable("endpoint '" + endpoint_ +
                                           "' is not registered");
      }
      if (!it->second.reachable) {
        return common::Status::Unavailable("endpoint '" + endpoint_ +
                                           "' is unreachable");
      }
      if (!it->second.pending_failures.empty()) {
        common::Status injected =
            std::move(it->second.pending_failures.front());
        it->second.pending_failures.pop_front();
        return injected;
      }
      latency_ms = it->second.latency_ms;
      handler = it->second.handler;  // Copy: invoked outside the lock.
    }
    if (latency_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(latency_ms));
    }
    try {
      return handler(request);
    } catch (const std::exception& e) {
      return common::Status::Internal(std::string("handler for '") +
                                      endpoint_ + "' threw: " + e.what());
    } catch (...) {
      return common::Status::Internal("handler for '" + endpoint_ +
                                      "' threw a non-exception");
    }
  }

  const std::string& endpoint() const override { return endpoint_; }

 private:
  std::shared_ptr<LoopbackTransport::Registry> registry_;
  std::string endpoint_;
};

}  // namespace

LoopbackTransport::LoopbackTransport()
    : registry_(std::make_shared<Registry>()) {}

LoopbackTransport::~LoopbackTransport() = default;

void LoopbackTransport::register_endpoint(const std::string& name,
                                          WireHandler handler) {
  std::lock_guard<std::mutex> lock(registry_->mutex);
  registry_->endpoints[name] =
      Registry::Endpoint{std::move(handler), true, 0, {}};
}

void LoopbackTransport::unregister_endpoint(const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_->mutex);
  registry_->endpoints.erase(name);
}

void LoopbackTransport::set_endpoint_reachable(const std::string& name,
                                               bool reachable) {
  std::lock_guard<std::mutex> lock(registry_->mutex);
  auto it = registry_->endpoints.find(name);
  if (it != registry_->endpoints.end()) {
    it->second.reachable = reachable;
  }
}

void LoopbackTransport::set_endpoint_latency(const std::string& name,
                                             std::int64_t delay_ms) {
  std::lock_guard<std::mutex> lock(registry_->mutex);
  auto it = registry_->endpoints.find(name);
  if (it != registry_->endpoints.end()) {
    it->second.latency_ms = delay_ms > 0 ? delay_ms : 0;
  }
}

void LoopbackTransport::inject_call_failure(const std::string& name,
                                            common::Status status) {
  std::lock_guard<std::mutex> lock(registry_->mutex);
  auto it = registry_->endpoints.find(name);
  if (it != registry_->endpoints.end()) {
    it->second.pending_failures.push_back(std::move(status));
  }
}

std::shared_ptr<Channel> LoopbackTransport::connect(const std::string& name) {
  return std::make_shared<LoopbackChannel>(registry_, name);
}

}  // namespace diffpattern::dist

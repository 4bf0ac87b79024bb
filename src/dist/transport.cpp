#include "dist/transport.h"

#include <exception>
#include <utility>

namespace diffpattern::dist {

/// Shared endpoint table. Channels hold a shared_ptr to it so they outlive
/// the transport safely (calls after transport destruction fail cleanly).
struct LoopbackTransport::Registry {
  std::mutex mutex;
  std::map<std::string, WireHandler> endpoints;
};

namespace {

class LoopbackChannel : public Channel {
 public:
  LoopbackChannel(std::shared_ptr<LoopbackTransport::Registry> registry,
                  std::string endpoint)
      : registry_(std::move(registry)), endpoint_(std::move(endpoint)) {}

  common::Result<Bytes> call(const Bytes& request) override {
    WireHandler handler;
    {
      std::lock_guard<std::mutex> lock(registry_->mutex);
      auto it = registry_->endpoints.find(endpoint_);
      if (it == registry_->endpoints.end()) {
        return common::Status::Unavailable("endpoint '" + endpoint_ +
                                           "' is not registered");
      }
      handler = it->second;  // Copy: invoked outside the lock.
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
  registry_->endpoints[name] = std::move(handler);
}

void LoopbackTransport::unregister_endpoint(const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_->mutex);
  registry_->endpoints.erase(name);
}

std::shared_ptr<Channel> LoopbackTransport::connect(const std::string& name) {
  return std::make_shared<LoopbackChannel>(registry_, name);
}

}  // namespace diffpattern::dist

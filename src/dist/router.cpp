#include "dist/router.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"
#include "common/timer.h"
#include "dist/discovery.h"

namespace diffpattern::dist {

using common::Result;
using common::Status;
using common::steady_now_ms;

namespace {

/// Cooldown applied to a shedding replica when its status carries no
/// retry_after hint.
constexpr std::int64_t kBaseBackoffMs = 5;

bool is_shed(const Status& status) {
  return status.code() == common::StatusCode::kUnavailable ||
         status.code() == common::StatusCode::kResourceExhausted;
}

}  // namespace

struct ReplicaRouter::Replica {
  std::shared_ptr<Channel> channel;
  WorkerHealth health;
  bool has_health = false;
  bool down = false;
  /// Left the directory: excluded from routing and probing, but never
  /// freed — refresh_health() holds raw Replica pointers across unlocked
  /// probes. A directory re-listing revives the object in place.
  bool retired = false;
  std::int64_t cooldown_until_ms = 0;
  std::int64_t consecutive_sheds = 0;
  std::int64_t inflight = 0;

  /// Lower is better: reported admission depth + the router's own
  /// in-flight count toward this replica + the fused fill ratio as a
  /// fractional tiebreaker. A replica with no health report yet scores by
  /// in-flight only (optimistic — the first probe corrects it).
  double score() const {
    double s = static_cast<double>(inflight);
    if (has_health) {
      s += static_cast<double>(health.admission_pending) +
           health.fused_fill_ratio;
    }
    return s;
  }
};

struct ReplicaRouter::ModelTable {
  std::vector<std::unique_ptr<Replica>> replicas;
  std::size_t rr_next = 0;
};

ReplicaRouter::~ReplicaRouter() = default;

ReplicaRouter::ReplicaRouter(RouterConfig config)
    : config_(config), rng_state_(config.seed ^ 0xD1B54A32D192ED03ULL) {}

std::uint64_t ReplicaRouter::next_random() {
  return common::splitmix64_next(rng_state_);
}

void ReplicaRouter::add_replica(const std::string& model,
                                std::shared_ptr<Channel> channel) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& table = tables_[model];
  if (!table) {
    table = std::make_unique<ModelTable>();
  }
  auto replica = std::make_unique<Replica>();
  replica->channel = std::move(channel);
  table->replicas.push_back(std::move(replica));
}

std::int64_t ReplicaRouter::healthy_replicas(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tables_.find(model);
  if (it == tables_.end()) {
    return 0;
  }
  const std::int64_t now = steady_now_ms();
  std::int64_t healthy = 0;
  for (const auto& replica : it->second->replicas) {
    if (!replica->retired && !replica->down &&
        replica->cooldown_until_ms <= now) {
      ++healthy;
    }
  }
  return healthy;
}

void ReplicaRouter::refresh_health() {
  // Snapshot the replica set under the lock, probe outside it (a probe is
  // a transport call and must not serialize routing), then apply results.
  // Replica objects are never removed, so the raw pointers stay valid.
  std::vector<std::pair<Replica*, std::shared_ptr<Channel>>> targets;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [model, table] : tables_) {
      for (auto& replica : table->replicas) {
        if (replica->retired) {
          continue;  // Left the directory; don't probe it back to life.
        }
        targets.emplace_back(replica.get(), replica->channel);
      }
    }
  }
  const Bytes probe = encode_health_probe();
  for (auto& [replica, channel] : targets) {
    auto response = channel->call(probe);
    Result<WorkerHealth> health =
        response.ok() ? decode_worker_health(response.value())
                      : Result<WorkerHealth>(response.status());
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.health_probes++;
    if (health.ok()) {
      replica->health = health.value();
      replica->has_health = true;
      replica->down = false;  // A reachable, decoding replica is revived.
    } else {
      replica->down = true;  // Stopped reporting health -> out of rotation.
      counters_.health_failures++;
    }
  }
}

ReplicaRouter::Replica* ReplicaRouter::pick_replica(
    ModelTable& table, std::int64_t now, const std::vector<Replica*>& tried) {
  std::vector<std::size_t> eligible;
  eligible.reserve(table.replicas.size());
  for (std::size_t i = 0; i < table.replicas.size(); ++i) {
    Replica* r = table.replicas[i].get();
    if (r->retired || r->down || r->cooldown_until_ms > now) {
      continue;
    }
    if (std::find(tried.begin(), tried.end(), r) != tried.end()) {
      continue;
    }
    eligible.push_back(i);
  }
  if (eligible.empty()) {
    return nullptr;
  }
  if (config_.policy == RouterConfig::Policy::kRoundRobin) {
    // First eligible replica at or after the rotating cursor.
    for (std::size_t step = 0; step < table.replicas.size(); ++step) {
      const std::size_t idx = (table.rr_next + step) % table.replicas.size();
      if (std::find(eligible.begin(), eligible.end(), idx) !=
          eligible.end()) {
        table.rr_next = idx + 1;
        return table.replicas[idx].get();
      }
    }
    return table.replicas[eligible.front()].get();
  }
  // Power-of-two-choices: sample two distinct candidates, keep the one
  // with the lower load score (ties break toward the first sample).
  if (eligible.size() == 1) {
    return table.replicas[eligible.front()].get();
  }
  const std::size_t a = eligible[next_random() % eligible.size()];
  std::size_t b = a;
  while (b == a) {
    b = eligible[next_random() % eligible.size()];
  }
  Replica* ra = table.replicas[a].get();
  Replica* rb = table.replicas[b].get();
  return rb->score() < ra->score() ? rb : ra;
}

common::Result<Bytes> ReplicaRouter::route(const std::string& model,
                                           const Bytes& frame,
                                           bool allow_retry) {
  bool probe_now = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tables_.find(model);
    if (it == tables_.end() || it->second->replicas.empty()) {
      return Status::NotFound("no replicas registered for model '" + model +
                              "'");
    }
    counters_.requests++;
    if (config_.health_refresh_every > 0 &&
        ++routed_since_probe_ >= config_.health_refresh_every) {
      routed_since_probe_ = 0;
      probe_now = true;
    }
  }
  if (probe_now) {
    refresh_health();
  }

  std::vector<Replica*> tried;
  Status last_shed = Status::Ok();
  std::size_t replica_count = 0;
  for (std::size_t attempt = 0;; ++attempt) {
    Replica* replica = nullptr;
    std::shared_ptr<Channel> channel;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ModelTable& table = *tables_.find(model)->second;
      replica_count = table.replicas.size();
      if (attempt < replica_count) {
        replica = pick_replica(table, steady_now_ms(), tried);
      }
      if (replica != nullptr) {
        replica->inflight++;
        channel = replica->channel;
      }
    }
    if (replica == nullptr) {
      break;  // Every routable replica tried (or cooling / down).
    }
    tried.push_back(replica);

    auto response = channel->call(frame);  // Blocking; lock released.

    std::lock_guard<std::mutex> lock(mutex_);
    replica->inflight--;
    if (!response.ok()) {
      replica->down = true;  // Transport failure: connection-level fault.
      counters_.failovers++;
      switch (response.status().code()) {
        case common::StatusCode::kDeadlineExceeded:
          counters_.transport_timeouts++;
          break;
        case common::StatusCode::kDataLoss:
          counters_.decode_failures++;  // Torn/corrupt frame at transport.
          break;
        default:
          counters_.transport_errors++;
          break;
      }
      continue;
    }
    // Classify the response. A bare Status frame carrying a shed code (or
    // a shed-terminated empty stream) triggers redirect-with-cooldown; any
    // other well-formed response is the caller's to decode.
    const auto type = peek_type(response.value());
    if (!type.ok()) {
      replica->down = true;  // Unintelligible reply: treat as faulty.
      counters_.failovers++;
      counters_.decode_failures++;
      continue;
    }
    Status shed = Status::Ok();
    if (type.value() == MessageType::kStatus) {
      auto decoded = decode_status(response.value());
      if (!decoded.ok() || decoded.value().status.ok()) {
        // Undecodable — or nonsensical (a bare OK status is not a valid
        // generate answer): treat the replica as faulty.
        replica->down = true;
        counters_.failovers++;
        counters_.decode_failures++;
        continue;
      }
      if (!is_shed(decoded.value().status)) {
        return decoded.value().status;  // Typed caller error, verbatim.
      }
      shed = decoded.value().status;
    } else if (type.value() == MessageType::kStreamEnd) {
      // Stream shed: the worker delivered nothing and terminated with a
      // shed status — safe to replay elsewhere (zero deliveries reached
      // the client). Partial streams start with a kStreamedPattern frame
      // and are never retried.
      auto end = decode_stream_end(response.value());
      if (end.ok() && is_shed(end.value().status)) {
        shed = end.value().status;
      } else {
        return std::move(response).value();
      }
    } else {
      replica->consecutive_sheds = 0;
      return std::move(response).value();
    }

    // Shed: honor the worker's retry hint as this replica's cooldown,
    // escalating on consecutive sheds, capped at max_backoff_ms.
    std::int64_t backoff =
        shed.has_retry_after() ? shed.retry_after_ms() : kBaseBackoffMs;
    const std::int64_t shift =
        std::min<std::int64_t>(replica->consecutive_sheds, 6);
    backoff = std::min(config_.max_backoff_ms, backoff << shift);
    replica->cooldown_until_ms = steady_now_ms() + backoff;
    replica->consecutive_sheds++;
    last_shed = shed;
    counters_.redirects++;
    if (!allow_retry) {
      break;
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (!last_shed.ok()) {
    // Every replica shed: hand the client the last hinted status so it
    // backs off exactly as it would against a single overloaded worker.
    counters_.sheds_returned++;
    return last_shed;
  }
  return Status::Unavailable("all " + std::to_string(replica_count) +
                             " replicas for model '" + model +
                             "' are down or cooling");
}

common::Result<service::GenerateResult> ReplicaRouter::generate(
    const service::GenerateRequest& request) {
  const Bytes frame = encode_generate_request(request);
  auto response = route(request.model, frame, /*allow_retry=*/true);
  if (!response.ok()) {
    return response.status();
  }
  auto result = decode_generate_result(response.value());
  if (!result.ok()) {
    return result.status();
  }
  return std::move(result).value();
}

common::Result<service::GenerateStats> ReplicaRouter::generate_stream(
    const service::GenerateRequest& request,
    const service::StreamCallback& callback) {
  const Bytes frame =
      encode_generate_request(request, MessageType::kGenerateStreamRequest);
  auto response = route(request.model, frame, /*allow_retry=*/true);
  if (!response.ok()) {
    return response.status();
  }
  auto frames = split_frames(response.value());
  if (!frames.ok()) {
    return frames.status();
  }
  // Decode everything before invoking the callback: a corrupt tail must
  // not leak half a stream to the client.
  std::vector<service::StreamedPattern> slots;
  StreamEnd end;
  bool saw_end = false;
  for (const Bytes& f : frames.value()) {
    const auto type = peek_type(f);
    if (!type.ok()) {
      return type.status();
    }
    if (saw_end) {
      return Status::DataLoss("frames after stream end");
    }
    if (type.value() == MessageType::kStreamedPattern) {
      auto slot = decode_streamed_pattern(f);
      if (!slot.ok()) {
        return slot.status();
      }
      slots.push_back(std::move(slot).value());
    } else if (type.value() == MessageType::kStreamEnd) {
      auto decoded = decode_stream_end(f);
      if (!decoded.ok()) {
        return decoded.status();
      }
      end = std::move(decoded).value();
      saw_end = true;
    } else {
      return Status::InvalidArgument("unexpected frame in stream response");
    }
  }
  if (!saw_end) {
    return Status::DataLoss("stream response missing its end frame");
  }
  for (const auto& slot : slots) {
    callback(slot);
  }
  if (!end.status.ok()) {
    return end.status;
  }
  return end.stats;
}

common::Result<ReplicaRouter::DirectorySyncStats>
ReplicaRouter::sync_directory(WorkerDirectory& directory,
                              const ChannelFactory& connect) {
  auto snapshot = directory.snapshot();
  if (!snapshot.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.directory_sync_failures++;
    return snapshot.status();
  }
  const std::vector<WorkerEndpoint>& desired = snapshot.value();
  const auto listed = [&desired](const std::string& model,
                                 const std::string& address) {
    for (const WorkerEndpoint& endpoint : desired) {
      if (endpoint.model == model && endpoint.address == address) {
        return true;
      }
    }
    return false;
  };

  DirectorySyncStats stats;
  // Pass 1 (locked): retire vanished replicas, revive re-listed ones, and
  // collect the endpoints that need a fresh channel.
  std::vector<WorkerEndpoint> to_add;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [model, table] : tables_) {
      for (auto& replica : table->replicas) {
        const bool wanted = listed(model, replica->channel->endpoint());
        if (!wanted && !replica->retired) {
          replica->retired = true;
          counters_.directory_removes++;
          stats.retired++;
        } else if (wanted && replica->retired) {
          // Revive in place: same channel, clean slate for health/backoff.
          replica->retired = false;
          replica->down = false;
          replica->cooldown_until_ms = 0;
          replica->consecutive_sheds = 0;
          counters_.directory_adds++;
          stats.added++;
        }
      }
    }
    for (const WorkerEndpoint& endpoint : desired) {
      bool present = false;
      auto it = tables_.find(endpoint.model);
      if (it != tables_.end()) {
        for (const auto& replica : it->second->replicas) {
          if (replica->channel->endpoint() == endpoint.address) {
            present = true;
            break;
          }
        }
      }
      if (!present) {
        to_add.push_back(endpoint);
      }
    }
  }
  // Pass 2 (unlocked): dial the new endpoints — the factory may do real
  // work — then insert under the lock, re-checking presence so two
  // concurrent syncs never double-add.
  for (const WorkerEndpoint& endpoint : to_add) {
    std::shared_ptr<Channel> channel = connect(endpoint.address);
    if (!channel) {
      continue;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    auto& table = tables_[endpoint.model];
    if (!table) {
      table = std::make_unique<ModelTable>();
    }
    bool present = false;
    for (const auto& replica : table->replicas) {
      if (replica->channel->endpoint() == endpoint.address) {
        present = true;
        break;
      }
    }
    if (present) {
      continue;
    }
    auto replica = std::make_unique<Replica>();
    replica->channel = std::move(channel);
    table->replicas.push_back(std::move(replica));
    counters_.directory_adds++;
    stats.added++;
  }
  return stats;
}

RouterCounters ReplicaRouter::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RouterCounters out = counters_;
  // Reconnects belong to the transport layer; fold each channel's stats in
  // at snapshot time so the counter needs no write path in route().
  for (const auto& [model, table] : tables_) {
    for (const auto& replica : table->replicas) {
      out.reconnects += replica->channel->stats().reconnects;
    }
  }
  return out;
}

}  // namespace diffpattern::dist

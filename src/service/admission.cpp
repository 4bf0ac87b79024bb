#include "service/admission.h"

#include <algorithm>

namespace diffpattern::service {

namespace {

/// Degraded admission halves a consenting request's count (floor 1
/// topology).
constexpr std::int64_t kDegradeDivisor = 2;

FlowControlConfig normalize(FlowControlConfig cfg) {
  cfg.max_queue_depth = std::max<std::int64_t>(1, cfg.max_queue_depth);
  cfg.shed_queue_depth = std::clamp<std::int64_t>(cfg.shed_queue_depth, 1,
                                                  cfg.max_queue_depth);
  cfg.retry_after_ms = std::max<std::int64_t>(1, cfg.retry_after_ms);
  return cfg;
}

}  // namespace

AdmissionController::AdmissionController(FlowControlConfig config,
                                         std::int64_t max_fused_batch,
                                         common::CounterBlock& counters)
    : config_(normalize(config)),
      max_fused_batch_(std::max<std::int64_t>(1, max_fused_batch)),
      counters_(counters) {}

std::int64_t AdmissionController::retry_hint_ms(std::int64_t depth) const {
  // Scale the base hint with how far the backlog overshoots the soft
  // threshold, so callers behind a deeper queue back off longer (and the
  // retry wave spreads out instead of arriving at once).
  const auto overshoot =
      std::max<std::int64_t>(0, depth - config_.shed_queue_depth);
  return config_.retry_after_ms * (1 + overshoot);
}

AdmissionController::Decision AdmissionController::admit(
    const std::string& model, std::int64_t count, bool allow_degrade) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& depth = pending_[model];
  const auto occupy = [&] {
    ++depth;
    counters_.admission_pending_peak.raise_to(
        counters_.admission_pending.add());
  };
  if (depth >= config_.max_queue_depth) {
    counters_.requests_shed.add();
    return Decision{
        common::Status::ResourceExhausted(
            "model '" + model + "' admission window is full (" +
            std::to_string(depth) + " requests in flight >= max_queue_depth " +
            std::to_string(config_.max_queue_depth) + ")")
            .with_retry_after(retry_hint_ms(depth)),
        0, false};
  }
  bool overloaded = depth >= config_.shed_queue_depth;
  if (!overloaded && config_.shed_fill_ratio > 0.0 &&
      config_.shed_fill_ratio <= 1.0 &&
      depth >= (config_.shed_queue_depth + 1) / 2) {
    // Early shed: rounds running at >= shed_fill_ratio occupancy mean the
    // sampler is already saturated, so half the soft threshold of backlog
    // is enough evidence that queueing further only buys latency. The
    // ratio is computed over the rounds since the last recomputation (a
    // sliding window), NOT the lifetime mean — a busy hour in the past
    // must not shed a currently idle service. Between rounds the cached
    // window value is reused; its staleness is bounded by one round.
    const auto rounds = counters_.rounds_executed.load();
    const auto slots = counters_.fused_slots_total.load();
    if (rounds > window_rounds_) {
      recent_fill_ =
          static_cast<double>(slots - window_slots_) /
          static_cast<double>((rounds - window_rounds_) * max_fused_batch_);
      window_rounds_ = rounds;
      window_slots_ = slots;
    }
    overloaded = rounds > 0 && recent_fill_ >= config_.shed_fill_ratio;
  }
  if (overloaded) {
    if (allow_degrade && count > 1) {
      const auto admitted =
          std::max<std::int64_t>(1, count / kDegradeDivisor);
      occupy();
      counters_.requests_degraded.add();
      return Decision{common::Status::Ok(), admitted, true};
    }
    counters_.requests_shed.add();
    return Decision{
        common::Status::Unavailable(
            "model '" + model + "' is overloaded (" + std::to_string(depth) +
            " requests in flight >= shed threshold " +
            std::to_string(config_.shed_queue_depth) + ")")
            .with_retry_after(retry_hint_ms(depth)),
        0, false};
  }
  occupy();
  return Decision{common::Status::Ok(), count, false};
}

void AdmissionController::release(const std::string& model) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = pending_.find(model);
  if (it == pending_.end()) {
    return;  // Release without admit: tolerated, never underflows.
  }
  if (--it->second <= 0) {
    pending_.erase(it);
  }
  counters_.admission_pending.add(-1);
}

std::int64_t AdmissionController::pending(const std::string& model) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = pending_.find(model);
  return it == pending_.end() ? 0 : it->second;
}

}  // namespace diffpattern::service

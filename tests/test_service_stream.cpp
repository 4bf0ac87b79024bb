// Streaming delivery + sharded scheduler tests: push generate_stream must
// deliver exactly the patterns generate() returns — byte-identical content
// with stable per-slot indices, invariant to shard count, round chunking,
// and callback timing — and the per-model shards must isolate traffic (an
// oversized job on one model cannot starve another model) while the
// ServiceCounters observe it all.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "service/pattern_service.h"
#include "service_test_util.h"
#include "unet/unet.h"

namespace ds = diffpattern::service;
namespace dc = diffpattern::common;
namespace dl = diffpattern::layout;

namespace {

using ds::test::mini_model_config;
using ds::test::same_patterns;

/// Flattens streamed slots into the index-ordered pattern vector that
/// generate() would return for the same request (also exercises the
/// public reassembly helper the CLI --stream path uses).
std::vector<dl::SquishPattern> collect_in_index_order(
    std::vector<ds::StreamedPattern> slots) {
  return ds::assemble_stream_patterns(std::move(slots));
}

/// Service with two (untrained, differently seeded) models "a" and "b".
class ServiceStreamTest : public ::testing::Test {
 protected:
  ServiceStreamTest()
      : model_a_(mini_model_config().unet_config(), /*seed=*/3),
        model_b_(mini_model_config().unet_config(), /*seed=*/4) {
    service_ = make_service(/*max_fused_batch=*/16);
  }

  std::unique_ptr<ds::PatternService> make_service(
      std::int64_t max_fused_batch) {
    ds::ServiceConfig config;
    config.legalize_workers = 2;
    config.max_fused_batch = max_fused_batch;
    auto service = std::make_unique<ds::PatternService>(config);
    EXPECT_TRUE(service->models()
                    .register_model("a", mini_model_config(),
                                    model_a_.registry(), {})
                    .ok());
    EXPECT_TRUE(service->models()
                    .register_model("b", mini_model_config(),
                                    model_b_.registry(), {})
                    .ok());
    return service;
  }

  diffpattern::unet::UNet model_a_;
  diffpattern::unet::UNet model_b_;
  std::unique_ptr<ds::PatternService> service_;
};

}  // namespace

// ------------------------------------------------------------- streaming

TEST_F(ServiceStreamTest, PushStreamMatchesGenerate) {
  const ds::GenerateRequest request{.model = "a", .count = 6,
                                    .geometries_per_topology = 2,
                                    .seed = 77};
  const auto reference = service_->generate(request);
  ASSERT_TRUE(reference.ok()) << reference.status().to_string();

  std::vector<ds::StreamedPattern> slots;
  const auto stats = service_->generate_stream(
      request,
      [&slots](const ds::StreamedPattern& p) { slots.push_back(p); });
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();

  // Exactly one delivery per topology slot, each with a stable index.
  ASSERT_EQ(slots.size(), 6U);
  std::set<std::int64_t> indices;
  for (const auto& slot : slots) {
    EXPECT_GE(slot.index, 0);
    EXPECT_LT(slot.index, 6);
    EXPECT_TRUE(indices.insert(slot.index).second)
        << "slot " << slot.index << " delivered twice";
    EXPECT_EQ(slot.legal, !slot.patterns.empty());
  }
  // The delivered set reassembles to generate()'s byte-identical output.
  EXPECT_TRUE(same_patterns(reference->patterns,
                            collect_in_index_order(std::move(slots))));
  EXPECT_EQ(stats->prefilter_rejected, reference->stats.prefilter_rejected);
  EXPECT_EQ(stats->solver_rejected, reference->stats.solver_rejected);
  EXPECT_EQ(stats->topologies_requested,
            reference->stats.topologies_requested);
}

TEST_F(ServiceStreamTest, StreamInvariantToShardCountAndChunking) {
  const ds::GenerateRequest request{.model = "a", .count = 5, .seed = 21};
  const auto reference = service_->generate(request);
  ASSERT_TRUE(reference.ok());

  // A tight admission budget (2 fused slots globally) forces the request
  // into several rounds while a second model's shard competes for budget;
  // neither may perturb content or indices.
  auto tight = make_service(/*max_fused_batch=*/2);
  const ds::GenerateRequest busy{.model = "b", .count = 4, .seed = 1};
  std::vector<ds::StreamedPattern> slots;
  dc::Result<ds::GenerateResult> other(dc::Status::Unavailable("not served"));
  std::thread competitor([&] { other = tight->generate(busy); });
  const auto stats = tight->generate_stream(
      request,
      [&slots](const ds::StreamedPattern& p) { slots.push_back(p); });
  competitor.join();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_TRUE(same_patterns(reference->patterns,
                            collect_in_index_order(std::move(slots))));

  // The competitor must byte-match its own single-model reference too.
  const auto busy_reference = service_->generate(busy);
  ASSERT_TRUE(busy_reference.ok());
  ASSERT_TRUE(other.ok()) << other.status().to_string();
  EXPECT_TRUE(same_patterns(busy_reference->patterns, other->patterns));
}

TEST_F(ServiceStreamTest, StreamErrorsAreTypedAndDeliverNothing) {
  ds::GenerateRequest request{.model = "a", .count = 0, .seed = 1};
  std::int64_t deliveries = 0;
  const auto stats = service_->generate_stream(
      request, [&deliveries](const ds::StreamedPattern&) { ++deliveries; });
  EXPECT_EQ(stats.status().code(), dc::StatusCode::kInvalidArgument);
  EXPECT_EQ(deliveries, 0);
}

TEST_F(ServiceStreamTest, ThrowingCallbackFailsRequestTyped) {
  // A consumer that throws must surface as a typed INTERNAL (and stop
  // further deliveries), never unwind into the worker pool.
  const ds::GenerateRequest request{.model = "a", .count = 3, .seed = 8};
  std::int64_t deliveries = 0;
  const auto stats = service_->generate_stream(
      request, [&deliveries](const ds::StreamedPattern&) {
        ++deliveries;
        throw std::runtime_error("consumer failed");
      });
  EXPECT_EQ(stats.status().code(), dc::StatusCode::kInternal);
  EXPECT_EQ(deliveries, 1);
  // The service stays healthy for the next request.
  EXPECT_TRUE(service_->generate(request).ok());

  // A long request failing on its first delivery cancels its remaining
  // sampling rounds and releases its admission window slot.
  ds::ServiceConfig config;
  config.legalize_workers = 2;
  config.max_fused_batch = 1;  // count=64 => 64 rounds: plenty to cancel.
  config.flow.max_queue_depth = 1;  // A leaked slot would shed the retry.
  config.flow.shed_queue_depth = 1;
  config.flow.shed_fill_ratio = 0.0;
  ds::PatternService service(config);
  ASSERT_TRUE(service.models()
                  .register_model("a", mini_model_config(),
                                  model_a_.registry(), {})
                  .ok());
  const auto failed = service.generate_stream(
      ds::GenerateRequest{.model = "a", .count = 64, .seed = 99},
      [](const ds::StreamedPattern&) {
        throw std::runtime_error("consumer failed");
      });
  EXPECT_EQ(failed.status().code(), dc::StatusCode::kInternal);
  const auto counters = service.counters();
  EXPECT_GE(counters.jobs_cancelled, 1);
  // generate_stream returns only once the job left the system: the window
  // slot is back and nothing is queued or sampling.
  EXPECT_EQ(counters.admission_pending, 0);
  EXPECT_EQ(counters.queue_depth, 0);
  EXPECT_EQ(counters.requests_completed, 0);

  // With max_queue_depth=1 a leaked admission slot would shed this
  // follow-up; a clean release admits it, and the cancellation left no
  // trace in the bytes: the fixture's service answers identically.
  const ds::GenerateRequest follow_up{.model = "a", .count = 2, .seed = 100};
  const auto after = service.generate(follow_up);
  ASSERT_TRUE(after.ok()) << after.status().to_string();
  const auto reference = service_->generate(follow_up);
  ASSERT_TRUE(reference.ok()) << reference.status().to_string();
  EXPECT_TRUE(same_patterns(reference->patterns, after->patterns));
}

// -------------------------------------------------------------- sharding

TEST_F(ServiceStreamTest, ShardsSpawnLazilyOnePerModel) {
  EXPECT_EQ(service_->counters().shards_active, 0);

  const ds::SampleTopologiesRequest request{.model = "a", .count = 1,
                                            .seed = 2};
  ASSERT_TRUE(service_->sample_topologies(request).ok());
  EXPECT_EQ(service_->counters().shards_active, 1);

  const ds::SampleTopologiesRequest other{.model = "b", .count = 1,
                                          .seed = 2};
  ASSERT_TRUE(service_->sample_topologies(other).ok());
  EXPECT_EQ(service_->counters().shards_active, 2);

  // A second request on a model reuses its shard.
  ASSERT_TRUE(service_->sample_topologies(request).ok());
  EXPECT_EQ(service_->counters().shards_active, 2);
}

TEST_F(ServiceStreamTest, ReRegisteringAModelReplacesItForLaterRequests) {
  // Solo references: model b holds the weights "a" is replaced with, and
  // a slot's noise depends only on (seed, slot), not on the model's name.
  // The first and second requests are the same, so only the weights tell
  // their answers apart.
  const ds::SampleTopologiesRequest request{.model = "a", .count = 3,
                                            .seed = 41};
  const ds::SampleTopologiesRequest straggler{.model = "a", .count = 1,
                                              .seed = 43, .priority = -1};
  const auto old_reference = service_->sample_topologies(request);
  const auto straggler_reference = service_->sample_topologies(straggler);
  auto on_b = request;
  on_b.model = "b";
  const auto new_reference = service_->sample_topologies(on_b);
  ASSERT_TRUE(old_reference.ok());
  ASSERT_TRUE(straggler_reference.ok());
  ASSERT_TRUE(new_reference.ok());
  ASSERT_FALSE(old_reference->topologies == new_reference->topologies);

  ds::ServiceConfig config;
  config.legalize_workers = 2;
  // Two slots per round: the first request's last slot leaves room in its
  // round. Rounds are formed per revision, so that room goes to the
  // straggler, never to the second request that sorts ahead of it.
  config.max_fused_batch = 2;
  config.flow.shed_fill_ratio = 0.0;
  ds::PatternService service(config);
  ASSERT_TRUE(service.models()
                  .register_model("a", mini_model_config(),
                                  model_a_.registry(), {})
                  .ok());

  // Queued on the old revision, each once the one before is accepted: a
  // 32-round job that outranks the rest, the first request, and the
  // straggler.
  const std::vector<ds::SampleTopologiesRequest> queued = {
      {.model = "a", .count = 64, .seed = 40, .priority = 1}, request,
      straggler};
  std::vector<dc::Result<ds::SampleTopologiesResult>> results(
      queued.size(), dc::Status::Unavailable("not served"));
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < queued.size(); ++i) {
    clients.emplace_back(
        [&, i] { results[i] = service.sample_topologies(queued[i]); });
    while (service.counters().requests_accepted <
           static_cast<std::int64_t>(i + 1)) {
      std::this_thread::yield();
    }
  }

  ASSERT_TRUE(service.models()
                  .register_model("a", mini_model_config(),
                                  model_b_.registry(), {})
                  .ok());
  const auto second = service.sample_topologies(request);
  for (auto& client : clients) {
    client.join();
  }

  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().to_string();
  }
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_TRUE(results[1]->topologies == old_reference->topologies);
  EXPECT_TRUE(results[2]->topologies == straggler_reference->topologies);
  EXPECT_TRUE(second->topologies == new_reference->topologies);
  // Both revisions ran on the one shard the name spawned.
  EXPECT_EQ(service.counters().shards_active, 1);
}

TEST_F(ServiceStreamTest, OversizedJobDoesNotStarveSecondModel) {
  // Sequential single-model references first.
  const ds::SampleTopologiesRequest big{.model = "a", .count = 7,
                                        .seed = 300};
  const ds::SampleTopologiesRequest small{.model = "b", .count = 3,
                                          .seed = 301};
  const auto big_reference = service_->sample_topologies(big);
  const auto small_reference = service_->sample_topologies(small);
  ASSERT_TRUE(big_reference.ok());
  ASSERT_TRUE(small_reference.ok());

  // A 2-slot admission budget makes the oversized job span >= 4 rounds on
  // model a's shard. Model b's requests run on their own shard meanwhile —
  // the requeue/chunking must be invisible in both models' bytes.
  auto tight = make_service(/*max_fused_batch=*/2);
  dc::Result<ds::SampleTopologiesResult> big_result(
      dc::Status::Unavailable("not served"));
  std::vector<dc::Result<ds::SampleTopologiesResult>> small_results(
      3, dc::Status::Unavailable("not served"));
  std::thread big_client([&] { big_result = tight->sample_topologies(big); });
  std::vector<std::thread> small_clients;
  for (int c = 0; c < 3; ++c) {
    small_clients.emplace_back([&, c] {
      small_results[static_cast<std::size_t>(c)] =
          tight->sample_topologies(small);
    });
  }
  big_client.join();
  for (auto& t : small_clients) {
    t.join();
  }

  ASSERT_TRUE(big_result.ok()) << big_result.status().to_string();
  ASSERT_EQ(big_result->topologies.size(), 7U);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_TRUE(big_result->topologies[i] == big_reference->topologies[i])
        << "oversized job topology " << i << " diverged under sharding";
  }
  for (const auto& result : small_results) {
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    ASSERT_EQ(result->topologies.size(), 3U);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(result->topologies[i] == small_reference->topologies[i])
          << "second model's topology " << i << " diverged under load";
    }
  }

  const auto counters = tight->counters();
  EXPECT_EQ(counters.shards_active, 2);
  // 7 slots at <= 2 per round is at least 4 rounds for model a alone.
  EXPECT_GE(counters.rounds_executed, 4);
  EXPECT_GT(counters.denoise_steps, 0);
  EXPECT_EQ(counters.queue_depth, 0);
  EXPECT_LE(counters.max_round_slots, 2);
  EXPECT_GT(counters.fused_fill_ratio, 0.0);
  EXPECT_LE(counters.fused_fill_ratio, 1.0);
}

// -------------------------------------------------------------- counters

TEST_F(ServiceStreamTest, CountersObserveRequestsAndRejects) {
  auto counters = service_->counters();
  EXPECT_EQ(counters.requests_accepted, 0);
  EXPECT_EQ(counters.total_rejected(), 0);

  // One rejected request per interesting StatusCode.
  const ds::GenerateRequest invalid{.model = "a", .count = 0};
  EXPECT_EQ(service_->generate(invalid).status().code(),
            dc::StatusCode::kInvalidArgument);
  const ds::GenerateRequest missing{.model = "ghost", .count = 1};
  EXPECT_EQ(service_->generate(missing).status().code(),
            dc::StatusCode::kNotFound);
  counters = service_->counters();
  EXPECT_EQ(counters.rejects(dc::StatusCode::kInvalidArgument), 1);
  EXPECT_EQ(counters.rejects(dc::StatusCode::kNotFound), 1);
  EXPECT_EQ(counters.total_rejected(), 2);
  EXPECT_EQ(counters.requests_accepted, 0);

  // One streamed request: accepted, completed, delivered, with non-zero
  // round and fill-ratio observations.
  const ds::GenerateRequest good{.model = "a", .count = 3, .seed = 5};
  std::int64_t deliveries = 0;
  ASSERT_TRUE(service_
                  ->generate_stream(good, [&deliveries](
                                              const ds::StreamedPattern&) {
                    ++deliveries;
                  })
                  .ok());
  counters = service_->counters();
  EXPECT_EQ(deliveries, 3);
  EXPECT_EQ(counters.requests_accepted, 1);
  EXPECT_EQ(counters.requests_completed, 1);
  EXPECT_EQ(counters.stream_deliveries, 3);
  EXPECT_GT(counters.rounds_executed, 0);
  EXPECT_GT(counters.denoise_steps, 0);
  EXPECT_GT(counters.fused_slots_total, 0);
  EXPECT_GT(counters.fused_fill_ratio, 0.0);
  EXPECT_LE(counters.fused_fill_ratio, 1.0);
  EXPECT_EQ(counters.queue_depth, 0);
  EXPECT_FALSE(counters.to_string().empty());
}

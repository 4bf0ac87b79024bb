// PatternService API tests: request validation (typed error codes), model
// registry semantics, rule-set table, seed determinism, and concurrent
// generation reproducing single-threaded results bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "drc/checker.h"
#include "service/pattern_service.h"
#include "service_test_util.h"
#include "tensor/simd.h"
#include "ulp_test_util.h"
#include "unet/unet.h"

namespace ds = diffpattern::service;
namespace dc = diffpattern::common;
namespace dd = diffpattern::drc;
namespace dl = diffpattern::layout;

namespace {

using ds::test::mini_model_config;
using ds::test::same_patterns;

/// Service with an (untrained) model registered as "mini". Untrained
/// weights are fine for API tests: the white-box assessment still only
/// emits DRC-clean patterns.
class PatternServiceTest : public ::testing::Test {
 protected:
  PatternServiceTest()
      : model_(mini_model_config().unet_config(), /*seed=*/3) {
    ds::ServiceConfig config;
    config.legalize_workers = 2;
    config.max_fused_batch = 16;
    service_ = std::make_unique<ds::PatternService>(config);
    const auto status = service_->models().register_model(
        "mini", mini_model_config(), model_.registry(), {});
    EXPECT_TRUE(status.ok()) << status.to_string();
  }

  diffpattern::unet::UNet model_;
  std::unique_ptr<ds::PatternService> service_;
};

}  // namespace

// ---------------------------------------------------------- validation

TEST_F(PatternServiceTest, RejectsBadCounts) {
  ds::GenerateRequest request{.model = "mini", .count = 0};
  EXPECT_EQ(service_->validate(request).code(),
            dc::StatusCode::kInvalidArgument);
  request.count = -7;
  EXPECT_EQ(service_->generate(request).status().code(),
            dc::StatusCode::kInvalidArgument);
  request.count = service_->config().max_count + 1;
  EXPECT_EQ(service_->validate(request).code(),
            dc::StatusCode::kInvalidArgument);
  request.count = 1;
  request.geometries_per_topology = 0;
  EXPECT_EQ(service_->validate(request).code(),
            dc::StatusCode::kInvalidArgument);
}

TEST_F(PatternServiceTest, ZeroLegalizeWorkersIsInvalidArgument) {
  ds::ServiceConfig config;
  config.legalize_workers = 0;
  ds::PatternService service(config);
  ds::GenerateRequest request;
  request.model = "anything";
  const auto result = service.generate(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), dc::StatusCode::kInvalidArgument);
  EXPECT_EQ(service.validate(request).code(),
            dc::StatusCode::kInvalidArgument);
}

TEST_F(PatternServiceTest, ZeroMaxFusedBatchIsInvalidArgument) {
  // A request that would otherwise succeed: only the config is wrong.
  for (const std::int64_t budget : {0, -3}) {
    ds::ServiceConfig config;
    config.legalize_workers = 2;
    config.max_fused_batch = budget;
    ds::PatternService service(config);
    ASSERT_TRUE(service.models()
                    .register_model("mini", mini_model_config(),
                                    model_.registry(), {})
                    .ok());
    const ds::SampleTopologiesRequest request{.model = "mini", .count = 1};
    const auto result = service.sample_topologies(request);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), dc::StatusCode::kInvalidArgument)
        << budget;
    EXPECT_NE(result.status().message().find("max_fused_batch"),
              std::string::npos);
  }
}

TEST_F(PatternServiceTest, ZeroComputeThreadsIsInvalidArgument) {
  ds::ServiceConfig config;
  config.compute_threads = 0;
  ds::PatternService service(config);
  ds::SampleTopologiesRequest request;
  request.model = "anything";
  const auto result = service.sample_topologies(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), dc::StatusCode::kInvalidArgument);
}

TEST_F(PatternServiceTest, ExplicitScalarBackendServesAndIsReported) {
  // Restores the ambient dispatch even when an assertion bails out early.
  diffpattern::testutil::BackendGuard backend_guard;
  ASSERT_TRUE(diffpattern::tensor::set_kernel_backend_name("scalar").ok());
  ds::ServiceConfig config;
  config.legalize_workers = 2;
  ds::PatternService service(config);
  const auto status = service.models().register_model(
      "mini", mini_model_config(), model_.registry(), {});
  ASSERT_TRUE(status.ok()) << status.to_string();
  ds::SampleTopologiesRequest request;
  request.model = "mini";
  request.count = 1;
  request.seed = 5;
  const auto result = service.sample_topologies(request);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const auto counters = service.counters();
  EXPECT_EQ(counters.kernel_backend, "scalar");
  EXPECT_NE(counters.compute_pool.find("thread"), std::string::npos);
  EXPECT_NE(counters.to_string().find("kernel_backend:     scalar"),
            std::string::npos);
}

TEST_F(PatternServiceTest, NegativeWorkerCountsMeanAutoAndStillServe) {
  ds::ServiceConfig config;
  config.legalize_workers = -1;   // Hardware default (>= 1 even when the
  config.compute_threads = -1;    // runtime reports 0 cores).
  ds::PatternService service(config);
  const auto status = service.models().register_model(
      "mini", mini_model_config(), model_.registry(), {});
  ASSERT_TRUE(status.ok()) << status.to_string();
  ds::SampleTopologiesRequest request;
  request.model = "mini";
  request.count = 2;
  request.seed = 5;
  const auto result = service.sample_topologies(request);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->topologies.size(), 2U);
}

TEST_F(PatternServiceTest, RejectsMissingModel) {
  const ds::GenerateRequest request{.model = "nope", .count = 1};
  EXPECT_EQ(service_->validate(request).code(), dc::StatusCode::kNotFound);
  EXPECT_EQ(service_->generate(request).status().code(),
            dc::StatusCode::kNotFound);
  const ds::GenerateRequest unnamed{.model = "", .count = 1};
  EXPECT_EQ(service_->validate(unnamed).code(),
            dc::StatusCode::kInvalidArgument);
}

TEST_F(PatternServiceTest, RejectsUnknownRuleSet) {
  ds::GenerateRequest request{.model = "mini", .count = 1};
  request.rule_set = "euv-beta";
  EXPECT_EQ(service_->validate(request).code(), dc::StatusCode::kNotFound);
  EXPECT_EQ(service_->generate(request).status().code(),
            dc::StatusCode::kNotFound);
}

TEST_F(PatternServiceTest, RejectsEmptyLegalizeRequests) {
  ds::LegalizeTopologiesRequest request;
  request.model = "mini";
  EXPECT_EQ(service_->legalize_topologies(request).status().code(),
            dc::StatusCode::kInvalidArgument);
  request.topologies.emplace_back();  // Empty grid.
  EXPECT_EQ(service_->legalize_topologies(request).status().code(),
            dc::StatusCode::kInvalidArgument);
}

TEST_F(PatternServiceTest, EveryEntryPointResolvesBadRequestsAlike) {
  // One resolve step sits in front of validate() and every entry point,
  // so a bad field gets the same StatusCode wherever the request type
  // carries it. Each answered call counts one reject; validate() none.
  ds::ServiceConfig config;
  config.legalize_workers = 2;
  config.max_count = 8;  // Keeps the over-cap legalize request small.
  ds::PatternService service(config);
  config.legalize_workers = 0;
  ds::PatternService zero_workers(config);
  for (auto* s : {&service, &zero_workers}) {
    ASSERT_TRUE(s->models()
                    .register_model("mini", mini_model_config(),
                                    model_.registry(), {})
                    .ok());
  }
  const ds::GenerateRequest good{.model = "mini", .count = 2, .seed = 5};
  ASSERT_TRUE(service.validate(good).ok());
  const auto with = [&good](const auto& edit) {
    auto request = good;
    edit(request);
    return request;
  };
  using Code = dc::StatusCode;
  struct Case {
    const char* name;
    ds::GenerateRequest request;
    Code code;
    bool sample;    // SampleTopologiesRequest carries the bad field.
    bool legalize;  // LegalizeTopologiesRequest carries the bad field.
    bool zero_workers = false;
  };
  const std::vector<Case> cases = {
      {"empty model", with([](auto& r) { r.model.clear(); }),
       Code::kInvalidArgument, true, true},
      {"unknown model", with([](auto& r) { r.model = "ghost"; }),
       Code::kNotFound, true, true},
      {"count 0", with([](auto& r) { r.count = 0; }), Code::kInvalidArgument,
       true, true},
      {"count above max_count", with([](auto& r) { r.count = 9; }),
       Code::kInvalidArgument, true, true},
      {"geometries 0",
       with([](auto& r) { r.geometries_per_topology = 0; }),
       Code::kInvalidArgument, false, true},
      {"negative deadline", with([](auto& r) { r.deadline_ms = -1; }),
       Code::kInvalidArgument, true, false},
      {"steps and stride both set",
       with([](auto& r) { r.sampling = {.steps = 2, .stride = 2}; }),
       Code::kInvalidArgument, true, false},
      {"stride above K", with([](auto& r) { r.sampling.stride = 7; }),
       Code::kInvalidArgument, true, false},
      {"unknown rule set", with([](auto& r) { r.rule_set = "euv"; }),
       Code::kNotFound, false, true},
      {"zero-worker config", good, Code::kInvalidArgument, true, true,
       /*zero_workers=*/true},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    auto& target = c.zero_workers ? zero_workers : service;
    const auto& r = c.request;
    const auto answers = [&](const char* entry, const auto& call) {
      SCOPED_TRACE(entry);
      const auto before = target.counters().total_rejected();
      EXPECT_EQ(call().code(), c.code);
      EXPECT_EQ(target.counters().total_rejected(), before + 1);
    };
    const auto before = target.counters().total_rejected();
    EXPECT_EQ(target.validate(r).code(), c.code);
    EXPECT_EQ(target.counters().total_rejected(), before);
    answers("generate", [&] { return target.generate(r).status(); });
    std::int64_t deliveries = 0;
    answers("generate_stream", [&] {
      return target
          .generate_stream(
              r, [&deliveries](const ds::StreamedPattern&) { ++deliveries; })
          .status();
    });
    EXPECT_EQ(deliveries, 0);
    if (c.sample) {
      const ds::SampleTopologiesRequest sample{.model = r.model,
                                               .count = r.count,
                                               .seed = r.seed,
                                               .deadline_ms = r.deadline_ms,
                                               .sampling = r.sampling};
      answers("sample_topologies",
              [&] { return target.sample_topologies(sample).status(); });
    }
    if (c.legalize) {
      ds::LegalizeTopologiesRequest legalize;
      legalize.model = r.model;
      legalize.topologies.assign(
          static_cast<std::size_t>(std::max<std::int64_t>(0, r.count)),
          diffpattern::geometry::BinaryGrid(16, 16));
      legalize.geometries_per_topology = r.geometries_per_topology;
      legalize.rule_set = r.rule_set;
      answers("legalize_topologies",
              [&] { return target.legalize_topologies(legalize).status(); });
    }
  }
}

// ------------------------------------------------------------ registry

TEST_F(PatternServiceTest, RegistryLooksUpByName) {
  EXPECT_TRUE(service_->models().lookup("mini").ok());
  EXPECT_EQ(service_->models().lookup("ghost").status().code(),
            dc::StatusCode::kNotFound);
}

TEST_F(PatternServiceTest, RegistryRejectsBadConfigs) {
  auto cfg = mini_model_config();
  cfg.channels = 3;  // Not a perfect square.
  EXPECT_EQ(service_->models()
                .register_model("bad", cfg, model_.registry(), {})
                .code(),
            dc::StatusCode::kInvalidArgument);
  cfg = mini_model_config();
  cfg.grid_side = 15;  // Not divisible by sqrt(channels).
  EXPECT_EQ(service_->models()
                .register_model("bad", cfg, model_.registry(), {})
                .code(),
            dc::StatusCode::kInvalidArgument);
  EXPECT_EQ(service_->models()
                .register_model("", mini_model_config(), model_.registry(),
                                {})
                .code(),
            dc::StatusCode::kInvalidArgument);
}

TEST_F(PatternServiceTest, RegistryRejectsEmptyAndUnprintableNames) {
  // Regression: registration surfaces must reject names that would become
  // unreachable or shadowed registry keys — empty, whitespace-padded, or
  // holding control characters (common::validate_resource_name).
  const std::vector<std::string> bad_names = {
      "", " ", " padded", "padded ", "a\tb", std::string("nul\0byte", 8),
      "line\nbreak"};
  for (const std::string& bad : bad_names) {
    EXPECT_EQ(service_->models()
                  .register_model(bad, mini_model_config(),
                                  model_.registry(), {})
                  .code(),
              dc::StatusCode::kInvalidArgument)
        << "model name accepted: '" << bad << "'";
    EXPECT_EQ(service_->register_rule_set(bad, dd::standard_rules()).code(),
              dc::StatusCode::kInvalidArgument)
        << "rule-set name accepted: '" << bad << "'";
  }
  // Interior spaces are legitimate.
  EXPECT_TRUE(service_->register_rule_set("euv beta",
                                          dd::standard_rules()).ok());
}

TEST_F(PatternServiceTest, RegistryRejectsMismatchedWeights) {
  auto cfg = mini_model_config();
  cfg.model_channels = 16;  // Different architecture than model_.
  EXPECT_EQ(service_->models()
                .register_model("wide", cfg, model_.registry(), {})
                .code(),
            dc::StatusCode::kInvalidArgument);
}

TEST_F(PatternServiceTest, RegistryCheckpointMissingFileIsNotFound) {
  EXPECT_EQ(service_->models()
                .register_checkpoint("ckpt", mini_model_config(),
                                     "/tmp/dp_no_such_checkpoint.bin", {})
                .code(),
            dc::StatusCode::kNotFound);
}

// ----------------------------------------------------------- rule sets

TEST_F(PatternServiceTest, RuleSetTableServesNamedDecks) {
  const auto names = service_->rule_set_names();
  EXPECT_EQ(names.size(), 3U);  // area, normal, space.
  EXPECT_TRUE(service_->rule_set("normal").ok());
  EXPECT_TRUE(service_->rule_set("space").ok());
  EXPECT_TRUE(service_->rule_set("area").ok());
  EXPECT_EQ(service_->rule_set("nope").status().code(),
            dc::StatusCode::kNotFound);
  EXPECT_EQ(service_->register_rule_set("", dd::standard_rules()).code(),
            dc::StatusCode::kInvalidArgument);
  EXPECT_TRUE(
      service_->register_rule_set("custom", dd::larger_space_rules()).ok());
  EXPECT_TRUE(service_->rule_set("custom").ok());
}

// ---------------------------------------------------------- generation

TEST_F(PatternServiceTest, GenerateEmitsOnlyDrcCleanPatterns) {
  ds::GenerateRequest request{.model = "mini", .count = 6, .seed = 11};
  const auto result = service_->generate(request);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->stats.topologies_requested, 6);
  EXPECT_EQ(result->stats.prefilter_rejected +
                result->stats.solver_rejected +
                static_cast<std::int64_t>(result->patterns.size()),
            6);
  const auto rules = service_->rule_set("normal").value();
  for (const auto& pattern : result->patterns) {
    EXPECT_TRUE(dd::check_pattern(pattern, rules).clean());
  }
}

TEST_F(PatternServiceTest, SampleTopologiesMatchesConfiguredGrid) {
  ds::SampleTopologiesRequest request{.model = "mini", .count = 3,
                                      .seed = 5};
  const auto result = service_->sample_topologies(request);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  ASSERT_EQ(result->topologies.size(), 3U);
  for (const auto& topology : result->topologies) {
    EXPECT_EQ(topology.rows(), 16);
    EXPECT_EQ(topology.cols(), 16);
  }
}

TEST_F(PatternServiceTest, SameSeedReproducesByteIdenticalPatterns) {
  const ds::GenerateRequest request{.model = "mini", .count = 5,
                                    .geometries_per_topology = 2,
                                    .seed = 77};
  const auto a = service_->generate(request);
  const auto b = service_->generate(request);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(same_patterns(a->patterns, b->patterns));
}

TEST_F(PatternServiceTest, DifferentSeedsDiverge) {
  ds::SampleTopologiesRequest request{.model = "mini", .count = 4,
                                      .seed = 1};
  const auto a = service_->sample_topologies(request);
  request.seed = 2;
  const auto b = service_->sample_topologies(request);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  bool any_different = false;
  for (std::size_t i = 0; i < a->topologies.size(); ++i) {
    any_different =
        any_different || !(a->topologies[i] == b->topologies[i]);
  }
  EXPECT_TRUE(any_different);
}

TEST_F(PatternServiceTest, RequestCountInvariantToRoundChunking) {
  // A request larger than max_fused_batch runs in several fused rounds;
  // per-slot streams must make the chunking invisible.
  ds::SampleTopologiesRequest request{.model = "mini", .count = 3,
                                      .seed = 21};
  const auto small = service_->sample_topologies(request);
  ASSERT_TRUE(small.ok());

  ds::ServiceConfig tight;
  tight.legalize_workers = 2;
  tight.max_fused_batch = 2;  // Forces 3 slots into 2 rounds.
  ds::PatternService chunked(tight);
  ASSERT_TRUE(chunked.models()
                  .register_model("mini", mini_model_config(),
                                  model_.registry(), {})
                  .ok());
  const auto chunked_result = chunked.sample_topologies(request);
  ASSERT_TRUE(chunked_result.ok());
  ASSERT_EQ(small->topologies.size(), chunked_result->topologies.size());
  for (std::size_t i = 0; i < small->topologies.size(); ++i) {
    EXPECT_TRUE(small->topologies[i] == chunked_result->topologies[i]);
  }
}

// ---------------------------------------------------------- concurrency

TEST_F(PatternServiceTest, ConcurrentGenerateMatchesSingleThreaded) {
  constexpr int kClients = 4;
  const auto request_for = [](int client) {
    return ds::GenerateRequest{.model = "mini", .count = 3,
                               .geometries_per_topology = 1,
                               .seed = 500 + static_cast<std::uint64_t>(
                                                 client)};
  };

  // Single-threaded reference, one request at a time.
  std::vector<ds::GenerateResult> reference;
  for (int c = 0; c < kClients; ++c) {
    auto result = service_->generate(request_for(c));
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    reference.push_back(std::move(result).value());
  }

  // The same requests from distinct threads; the service may fuse their
  // sampling into shared batches and scatter legalization across workers.
  std::vector<dc::Result<ds::GenerateResult>> concurrent(
      kClients, dc::Status::Unavailable("not served"));
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        concurrent[static_cast<std::size_t>(c)] =
            service_->generate(request_for(c));
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }

  for (int c = 0; c < kClients; ++c) {
    const auto& result = concurrent[static_cast<std::size_t>(c)];
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_TRUE(same_patterns(reference[static_cast<std::size_t>(c)].patterns,
                              result->patterns))
        << "client " << c << " diverged under concurrency";
  }
}

TEST_F(PatternServiceTest, ConcurrentDistinctRequestsAllComplete) {
  constexpr int kClients = 6;
  std::vector<dc::Result<ds::GenerateResult>> results(
      kClients, dc::Status::Unavailable("not served"));
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ds::GenerateRequest request{.model = "mini",
                                  .count = 1 + (c % 3),
                                  .seed = static_cast<std::uint64_t>(c)};
      results[static_cast<std::size_t>(c)] = service_->generate(request);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (int c = 0; c < kClients; ++c) {
    const auto& result = results[static_cast<std::size_t>(c)];
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(result->stats.topologies_requested, 1 + (c % 3));
  }
}

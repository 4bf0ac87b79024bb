#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/compute_pool.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "diffusion/diffusion.h"
#include "dist/router.h"
#include "dist/socket_transport.h"
#include "dist/wire.h"
#include "dist/worker_node.h"
#include "drc/checker.h"
#include "layout/deep_squish.h"
#include "legalize/constraints.h"
#include "legalize/solver.h"
#include "metrics/metrics.h"
#include "nn/autograd.h"
#include "service/pattern_service.h"
#include "tensor/arena.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "trace.h"

namespace dpbench {

namespace dp = diffpattern;
using Clock = std::chrono::steady_clock;

namespace {

// ------------------------------------------------------------ constants

constexpr const char* kModel = "bench";
/// Training seed and budget of the set-up: fixed, so every run serves the
/// same model and set-up time measures a fixed amount of work.
constexpr std::uint64_t kTrainSeed = 2023;
constexpr std::int64_t kTrainIterations = 200;
constexpr std::int64_t kLossWindow = 20;
/// Requests re-issued solo after the measured phase for the byte check.
constexpr int kSoloReplays = 4;
/// Stream tags the service derives per-slot RNG streams with
/// (common::derive_seed(request seed, tag, slot)). The traced replay uses
/// them so its outputs can be compared with the service's byte for byte;
/// a mismatch lowers trace.replay_match instead of failing the run.
constexpr std::uint64_t kSampleStream = 0x53414D50;    // "SAMP"
constexpr std::uint64_t kLegalizeStream = 0x4C45474C;  // "LEGL"

// Thread budget (threads that compute must not exceed nproc = 4; see
// benchmark/README.md): every workload pins the compute pool and the
// legalization workers explicitly. One compute thread: on a 4-vCPU host a
// 2-thread pool was both slower at these batch sizes (fork/join per op)
// and several times noisier run to run.
constexpr std::int64_t kComputeThreads = 1;
constexpr std::int64_t kLegalizeWorkers = 1;

double ms_since(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ------------------------------------------------------------ JSON output

class JsonObject {
 public:
  JsonObject& number(const std::string& key, double value) {
    std::ostringstream v;
    v.precision(12);
    v << (std::isfinite(value) ? value : 0.0);
    return raw(key, v.str());
  }
  JsonObject& integer(const std::string& key, std::int64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& string(const std::string& key, const std::string& value) {
    return raw(key, quoted(value));
  }
  JsonObject& strings(const std::string& key,
                      const std::vector<std::string>& values) {
    std::string v = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      v += (i == 0 ? "" : ",") + quoted(values[i]);
    }
    return raw(key, v + "]");
  }
  JsonObject& numbers(const std::string& key,
                      const std::vector<double>& values) {
    std::ostringstream v;
    v.precision(12);
    v << '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      v << (i == 0 ? "" : ",") << values[i];
    }
    v << ']';
    return raw(key, v.str());
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  static std::string quoted(const std::string& value) {
    std::string out = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') {
        out += '\\';
      }
      out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out + "\"";
  }

  std::string body_;
};

// ------------------------------------------------------------ helpers

dp::core::PipelineConfig bench_config() {
  dp::core::PipelineConfig cfg;
  // The repository's "quick" experiment scale, with a shorter training
  // budget: enough for the sampler to emit mostly legal topologies.
  cfg.datagen.quantum = 64;
  cfg.datagen.min_shapes = 4;
  cfg.datagen.max_shapes = 9;
  cfg.datagen.extend_probability = 0.5;
  cfg.dataset_tiles = 96;
  cfg.test_fraction = 0.2;
  cfg.grid_side = 16;
  cfg.channels = 4;
  cfg.schedule.steps = 40;
  cfg.model_channels = 16;
  cfg.channel_mult = {1, 2};
  cfg.num_res_blocks = 1;
  cfg.attention_levels = {1};
  cfg.dropout = 0.1F;
  cfg.adam.learning_rate = 1e-3F;
  cfg.train_iterations = kTrainIterations;
  cfg.batch_size = 8;
  cfg.seed = kTrainSeed;
  return cfg;
}

std::int64_t host_threads() {
  return std::max<std::int64_t>(1, dp::common::hardware_thread_count());
}

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

/// Word-at-a-time FNV-style mix (the verifier digests millions of patterns
/// per run, so byte-at-a-time FNV would cost as much as the DRC re-check).
void word_mix(std::uint64_t& h, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, 8);
    h = (h ^ word) * kFnvPrime;
  }
  for (; i < size; ++i) {
    h = (h ^ p[i]) * kFnvPrime;
  }
}

std::uint64_t digest_topology(const dp::geometry::BinaryGrid& grid) {
  std::uint64_t h = kFnvOffset;
  const std::int64_t dims[2] = {grid.rows(), grid.cols()};
  word_mix(h, dims, sizeof(dims));
  word_mix(h, grid.cells().data(), grid.cells().size());
  return h;
}

std::uint64_t digest_patterns(
    const std::vector<dp::layout::SquishPattern>& patterns) {
  std::uint64_t h = kFnvOffset;
  for (const auto& p : patterns) {
    const auto topology = digest_topology(p.topology);
    word_mix(h, &topology, sizeof(topology));
    word_mix(h, p.dx.data(), p.dx.size() * sizeof(p.dx[0]));
    word_mix(h, p.dy.data(), p.dy.size() * sizeof(p.dy[0]));
  }
  return h;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

template <typename T>
T require(dp::common::Result<T> result, const char* what) {
  if (!result.ok()) {
    throw std::runtime_error(std::string(what) + ": " +
                             result.status().to_string());
  }
  return std::move(result).value();
}

void require(const dp::common::Status& status, const char* what) {
  if (!status.ok()) {
    throw std::runtime_error(std::string(what) + ": " + status.to_string());
  }
}

// ------------------------------------------------------------ output checks

/// Re-checks every emitted pattern with drc::check_pattern under the deck
/// its request named, collects complexities for the diversity metric and
/// digests each request's pattern bytes for the solo replay. Runs on its
/// own thread so the check never sits on a client's request path. The
/// queue is bounded (kMaxQueued results) so a verifier that falls behind
/// throttles the clients instead of inflating peak RSS; at the measured
/// rates it keeps up with about 2x headroom.
class Verifier {
 public:
  Verifier() : thread_([this] { loop(); }) {}
  ~Verifier() { finish(); }
  Verifier(const Verifier&) = delete;
  Verifier& operator=(const Verifier&) = delete;

  void submit(std::int64_t index, const dp::drc::DesignRules& rules,
              std::vector<dp::layout::SquishPattern> patterns) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      space_cv_.wait(lock, [this] { return queue_.size() < kMaxQueued; });
      queue_.push_back(Item{index, rules, std::move(patterns)});
    }
    cv_.notify_one();
  }

  /// Drains the queue and joins the thread. Idempotent.
  void finish() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  std::int64_t checked() const { return checked_; }
  std::int64_t violations() const { return violations_; }
  double diversity() const {
    return dp::metrics::diversity_entropy(complexities_);
  }
  std::optional<std::uint64_t> digest(std::int64_t index) const {
    const auto it = digests_.find(index);
    if (it == digests_.end()) {
      return std::nullopt;
    }
    return it->second;
  }

 private:
  struct Item {
    std::int64_t index = 0;
    dp::drc::DesignRules rules;
    std::vector<dp::layout::SquishPattern> patterns;
  };

  void loop() {
    for (;;) {
      Item item;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
        if (queue_.empty()) {
          return;
        }
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      space_cv_.notify_one();
      for (const auto& pattern : item.patterns) {
        ++checked_;
        try {
          if (!dp::drc::check_pattern(pattern, item.rules).clean()) {
            ++violations_;
          }
          // Complexity depends on the topology alone (canonical form).
          const auto key = digest_topology(pattern.topology);
          auto it = complexity_cache_.find(key);
          if (it == complexity_cache_.end()) {
            it = complexity_cache_
                     .emplace(key, dp::metrics::pattern_complexity(pattern))
                     .first;
          }
          complexities_.push_back(it->second);
        } catch (const std::exception&) {
          ++violations_;  // A pattern the checks cannot read is not clean.
        }
      }
      digests_[item.index] = digest_patterns(item.patterns);
    }
  }

  static constexpr std::size_t kMaxQueued = 4;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable space_cv_;
  std::deque<Item> queue_;
  bool done_ = false;
  // Owned by the verifier thread until finish() joins it.
  std::int64_t checked_ = 0;
  std::int64_t violations_ = 0;
  std::vector<dp::metrics::Complexity> complexities_;
  std::map<std::uint64_t, dp::metrics::Complexity> complexity_cache_;
  std::map<std::int64_t, std::uint64_t> digests_;
  std::thread thread_;  // Last: starts after the members it uses.
};

// ------------------------------------------------------------ run state

struct RequestRecord {
  bool ok = false;
  double latency_ms = 0.0;        ///< Send (or due time) -> complete.
  double first_pattern_ms = -1.0;  ///< Due time -> first delivery.
  double queue_wait_ms = 0.0;     ///< Service time - sampling - solving.
  double call_overhead_ms = 0.0;  ///< Routed: call time - worker time.
  double lag_ms = 0.0;            ///< Routed: generator lateness.
  std::int64_t fused_batch_slots = 0;
  std::int64_t legal = 0;
  std::int64_t requested = 0;
  std::int64_t topologies = 0;
};

struct Counters {
  dp::common::ServiceCounters before;
  dp::common::ServiceCounters after;
};

/// Everything one workload run brings up and measures.
struct RunContext {
  const RunOptions& options;
  Plan plan;
  dp::core::PipelineConfig config = bench_config();
  std::map<std::string, dp::drc::DesignRules> decks;
  std::vector<RequestRecord> records;
  double wall_s = 0.0;
  /// Start of the measured phase; set-up (incl. warm-up) ends here.
  Clock::time_point measure_start;
  std::int64_t allocs_at_start = 0;
  /// Request-level failures (also counted in `failed` and ok_ratio).
  std::vector<std::string> errors;
  std::mutex errors_mutex;
  /// Failed checks of the traced replay; each makes the run incorrect.
  std::vector<std::string> check_failures;
  Verifier verifier;
  std::int64_t replay_checked = 0;
  std::int64_t replay_mismatches = 0;
  JsonObject layers;

  explicit RunContext(const RunOptions& o)
      : options(o), plan(make_plan(o.workload, o.seed, o.seconds)) {
    records.resize(plan.requests.size());
  }

  void start_measuring() {
    allocs_at_start = dp::tensor::tensor_alloc_stats().heap_allocations;
    measure_start = Clock::now();
  }

  void error(const std::string& message) {
    const std::lock_guard<std::mutex> lock(errors_mutex);
    if (errors.size() < 8) {
      errors.push_back(message);
    }
  }
};

dp::service::ServiceConfig pinned_config() {
  dp::service::ServiceConfig cfg;
  cfg.compute_threads = kComputeThreads;
  cfg.legalize_workers = kLegalizeWorkers;
  return cfg;
}

void register_bench_model(dp::service::PatternService& service,
                          RunContext& ctx,
                          const dp::legalize::DeltaLibrary& library) {
  require(service.models().register_checkpoint(
              kModel, ctx.config.to_model_config(), ctx.options.checkpoint,
              library),
          "register_checkpoint");
}

void load_decks(dp::service::PatternService& service, RunContext& ctx) {
  for (const auto& name : service.rule_set_names()) {
    ctx.decks[name] = require(service.rule_set(name), "rule_set");
  }
}

/// Runs `issue(request, record)` for each planned request from
/// `clients` closed-loop client threads (client c sends the requests
/// planned for it, each after the previous one completed). Returns the
/// wall time from the common start to the last completion.
template <typename Issue>
double run_closed_loop(RunContext& ctx, int clients, const Issue& issue) {
  std::latch start(1);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&ctx, &start, &issue, c] {
      start.wait();
      for (const auto& request : ctx.plan.requests) {
        if (request.client == c) {
          auto& record = ctx.records[static_cast<std::size_t>(request.index)];
          try {
            issue(request, record);
          } catch (const std::exception& e) {
            record.ok = false;
            ctx.error(std::string("client: ") + e.what());
          }
        }
      }
    });
  }
  ctx.start_measuring();
  const auto t0 = ctx.measure_start;
  start.count_down();
  for (auto& t : threads) {
    t.join();
  }
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void fill_from_stats(RequestRecord& record,
                     const dp::service::GenerateStats& stats,
                     double service_ms) {
  record.queue_wait_ms =
      service_ms - 1e3 * (stats.sampling_seconds + stats.solving_seconds);
  record.fused_batch_slots = stats.fused_batch_slots;
}

void report_service_counters(RunContext& ctx,
                             const std::vector<Counters>& counters,
                             std::int64_t max_fused_batch) {
  std::int64_t slots = 0;
  std::int64_t rounds = 0;
  std::int64_t net_evals = 0;
  std::int64_t shed = 0;
  for (const auto& c : counters) {
    slots += c.after.fused_slots_total - c.before.fused_slots_total;
    rounds += c.after.rounds_executed - c.before.rounds_executed;
    net_evals += c.after.net_evals - c.before.net_evals;
    shed += c.after.requests_shed - c.before.requests_shed;
  }
  std::int64_t topologies = 0;
  for (const auto& r : ctx.records) {
    topologies += r.topologies;
  }
  ctx.layers
      .number("service.fill_ratio",
              rounds > 0 ? static_cast<double>(slots) /
                               static_cast<double>(rounds * max_fused_batch)
                         : 0.0)
      .number("service.shed_ratio",
              static_cast<double>(shed) /
                  static_cast<double>(ctx.records.size()))
      .number("diffusion.net_evals_per_pattern",
              topologies > 0 ? static_cast<double>(net_evals) /
                                   static_cast<double>(topologies)
                             : 0.0);
}

// ------------------------------------------------------------ serve_fused

dp::service::GenerateRequest fused_request(const PlannedRequest& r) {
  dp::service::GenerateRequest request;
  request.model = kModel;
  request.count = kFusedCount;
  request.geometries_per_topology = 1;
  request.rule_set = r.deck;
  request.seed = r.seed;
  return request;
}

void run_serve_fused(
    RunContext& ctx, dp::service::PatternService& service,
    std::vector<Counters>& counters) {
  // Warm-up: spawn the shard and record the activation plans of both fused
  // batch shapes the run will see (8 and 16 slots).
  for (const auto count : {kFusedCount, 2 * kFusedCount}) {
    auto warm = fused_request(PlannedRequest{});
    warm.count = count;
    warm.seed = 0xFFFF;
    (void)require(service.generate(warm), "warm-up generate");
  }
  counters.push_back({service.counters(), {}});
  ctx.wall_s = run_closed_loop(
      ctx, kFusedClients,
      [&ctx, &service](const PlannedRequest& r, RequestRecord& record) {
        const auto request = fused_request(r);
        const auto t0 = Clock::now();
        auto result = service.generate(request);
        const double ms = ms_since(t0, Clock::now());
        record.latency_ms = ms;
        record.requested = request.count;
        record.topologies = request.count;
        if (!result.ok()) {
          ctx.error("generate: " + result.status().to_string());
          return;
        }
        record.ok = true;
        record.legal = static_cast<std::int64_t>(result->patterns.size());
        fill_from_stats(record, result->stats, ms);
        ctx.verifier.submit(r.index, ctx.decks.at(r.deck),
                            std::move(result->patterns));
      });
  counters.back().after = service.counters();
}

std::vector<dp::layout::SquishPattern> solo_fused(
    dp::service::PatternService& service, const PlannedRequest& r) {
  return require(service.generate(fused_request(r)), "solo generate").patterns;
}

// ------------------------------------------------------------ routed_stream

dp::service::GenerateRequest routed_request(const PlannedRequest& r) {
  dp::service::GenerateRequest request;
  request.model = kModel;
  request.count = kRoutedCount;
  request.geometries_per_topology = kRoutedGeometries;
  request.rule_set = r.deck;
  request.seed = r.seed;
  request.sampling.stride = r.stride;
  return request;
}

/// Two WorkerNodes behind loopback SocketServers, a pooled SocketTransport
/// and a ReplicaRouter. Members are destroyed in reverse order: router and
/// channels first, then the servers (which drain and join their handler
/// threads), then the nodes and the handler's timing table.
struct RoutedPlane {
  /// Worker-side handler time per request seed.
  std::mutex worker_mutex;
  std::map<std::uint64_t, double> worker_ms;
  std::vector<std::unique_ptr<dp::dist::WorkerNode>> nodes;
  std::vector<std::unique_ptr<dp::dist::SocketServer>> servers;
  std::vector<std::shared_ptr<dp::dist::Channel>> channels;
  std::unique_ptr<dp::dist::ReplicaRouter> router;

  RoutedPlane(RunContext& ctx, const dp::legalize::DeltaLibrary& library) {
    dp::dist::SocketTransportConfig transport_cfg;
    transport_cfg.max_connections = static_cast<std::size_t>(host_threads());
    transport_cfg.call_timeout_ms = 120000;
    dp::dist::SocketTransport transport(transport_cfg);
    router = std::make_unique<dp::dist::ReplicaRouter>();
    for (int w = 0; w < kRoutedWorkers; ++w) {
      nodes.push_back(std::make_unique<dp::dist::WorkerNode>(
          "w" + std::to_string(w), pinned_config()));
      auto& node = *nodes.back();
      register_bench_model(node.service(), ctx, library);
      servers.push_back(std::make_unique<dp::dist::SocketServer>());
      require(servers.back()->start(
                  "tcp:127.0.0.1:0",
                  [this, &node](const dp::dist::Bytes& frame) {
                    const auto t0 = Clock::now();
                    auto reply = node.handle(frame);
                    const double ms = ms_since(t0, Clock::now());
                    auto request = dp::dist::decode_generate_request(frame);
                    if (request.ok()) {
                      const std::lock_guard<std::mutex> lock(worker_mutex);
                      worker_ms[request->seed] = ms;
                    }
                    return reply;
                  }),
              "SocketServer::start");
      channels.push_back(transport.connect(servers.back()->bound_address()));
      router->add_replica(kModel, channels.back());
    }
  }

  std::int64_t pool_peak() const {
    std::int64_t peak = 0;
    for (const auto& c : channels) {
      peak = std::max(peak, c->stats().pool_peak);
    }
    return peak;
  }

  double take_worker_ms(std::uint64_t seed) {
    const std::lock_guard<std::mutex> lock(worker_mutex);
    const auto it = worker_ms.find(seed);
    if (it == worker_ms.end()) {
      return 0.0;
    }
    const double ms = it->second;
    worker_ms.erase(it);
    return ms;
  }
};

struct StreamOutcome {
  dp::common::Result<dp::service::GenerateStats> stats;
  std::vector<dp::layout::SquishPattern> patterns;
  Clock::time_point first_delivery;
  bool delivered = false;
};

StreamOutcome routed_call(dp::dist::ReplicaRouter& router,
                          const PlannedRequest& r) {
  std::vector<dp::service::StreamedPattern> slots;
  StreamOutcome out{dp::common::Status::Internal("not run"), {}, {}, false};
  out.stats = router.generate_stream(
      routed_request(r), [&](const dp::service::StreamedPattern& slot) {
        if (!out.delivered) {
          out.first_delivery = Clock::now();
          out.delivered = true;
        }
        slots.push_back(slot);
      });
  out.patterns = dp::service::assemble_stream_patterns(std::move(slots));
  return out;
}

void run_routed_stream(RunContext& ctx, RoutedPlane& plane,
                       std::vector<Counters>& counters) {
  // Warm-up: every stride, twice, through the router.
  for (int i = 0; i < 6; ++i) {
    static constexpr std::int64_t kStrides[] = {1, 4, 10};
    const PlannedRequest warm{0, 0xFFFF0000ULL + static_cast<std::uint64_t>(i),
                              "normal", kStrides[i % 3]};
    require(routed_call(*plane.router, warm).stats.status(), "warm-up stream");
  }
  for (auto& node : plane.nodes) {
    counters.push_back({node->service().counters(), {}});
  }

  struct Due {
    std::size_t index;
    Clock::time_point due;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Due> queue;
  bool generator_done = false;
  const auto dispatchers = host_threads();  // In-flight cap: nproc.

  auto dispatch = [&] {
    for (;;) {
      Due item;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return generator_done || !queue.empty(); });
        if (queue.empty()) {
          return;
        }
        item = queue.front();
        queue.pop_front();
      }
      const auto& r = ctx.plan.requests[item.index];
      auto& record = ctx.records[item.index];
      const auto sent = Clock::now();
      StreamOutcome outcome{dp::common::Status::Internal("not run"), {}, {},
                            false};
      try {
        outcome = routed_call(*plane.router, r);
      } catch (const std::exception& e) {
        outcome.stats = dp::common::Status::Internal(e.what());
      }
      const auto done = Clock::now();
      record.latency_ms = ms_since(item.due, done);
      record.requested = kRoutedCount * kRoutedGeometries;
      record.topologies = kRoutedCount;
      if (!outcome.stats.ok()) {
        ctx.error("routed stream: " + outcome.stats.status().to_string());
        continue;
      }
      if (outcome.delivered) {
        record.first_pattern_ms = ms_since(item.due, outcome.first_delivery);
      }
      const double worker = plane.take_worker_ms(r.seed);
      record.call_overhead_ms = ms_since(sent, done) - worker;
      record.legal = static_cast<std::int64_t>(outcome.patterns.size());
      fill_from_stats(record, *outcome.stats, worker);
      ctx.verifier.submit(r.index, ctx.decks.at(r.deck),
                          std::move(outcome.patterns));
      record.ok = true;
    }
  };

  std::vector<std::thread> pool;
  for (std::int64_t i = 0; i < dispatchers; ++i) {
    pool.emplace_back(dispatch);
  }
  ctx.start_measuring();
  const auto t0 = ctx.measure_start;
  for (std::size_t i = 0; i < ctx.plan.requests.size(); ++i) {
    const auto due =
        t0 + std::chrono::microseconds(ctx.plan.requests[i].arrival_us);
    std::this_thread::sleep_until(due);
    {
      const std::lock_guard<std::mutex> lock(mutex);
      queue.push_back(Due{i, due});
    }
    ctx.records[i].lag_ms = ms_since(due, Clock::now());
    cv.notify_one();
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    generator_done = true;
  }
  cv.notify_all();
  for (auto& t : pool) {
    t.join();
  }
  ctx.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  for (std::size_t w = 0; w < plane.nodes.size(); ++w) {
    counters[w].after = plane.nodes[w]->service().counters();
  }
}

// ------------------------------------------------------------ traced replay

/// Counts a replay pass accumulates (identical between passes: the replay
/// is deterministic).
struct ReplayCounts {
  std::int64_t prefiltered = 0;
  std::int64_t solves = 0;
  std::int64_t legal = 0;
  std::int64_t attempts = 0;
  std::int64_t solver_rounds = 0;
  std::int64_t solve_stats = 0;
  std::int64_t drc_violations = 0;
  std::int64_t frames = 0;
  std::int64_t frame_bytes = 0;
  std::int64_t compared = 0;
  std::int64_t matched = 0;
};

struct ModelView {
  std::shared_ptr<const dp::service::ModelArtifacts> artifacts;
  std::int64_t folded = 0;
};

ModelView model_view(dp::service::PatternService& service) {
  ModelView view;
  view.artifacts = require(service.models().lookup(kModel), "lookup");
  view.folded = require(view.artifacts->config.folded_side(), "folded_side");
  return view;
}

/// Samples one request's slots as the service does (one fused batch, one
/// RNG stream per slot), one diffusion.round span per executed round.
/// Returns the unfolded topologies in slot order.
std::vector<dp::geometry::BinaryGrid> replay_sample(Tracer& tracer,
                                                    const ModelView& view,
                                                    const PlannedRequest& r,
                                                    std::int64_t count) {
  const auto& a = *view.artifacts;
  std::vector<dp::common::Rng> streams;
  for (std::int64_t s = 0; s < count; ++s) {
    streams.emplace_back(dp::common::derive_seed(
        r.seed, kSampleStream, static_cast<std::uint64_t>(s)));
  }
  std::vector<dp::common::Rng*> ptrs;
  for (auto& s : streams) {
    ptrs.push_back(&s);
  }
  const std::vector<std::int64_t> strides(static_cast<std::size_t>(count),
                                          r.stride);
  dp::tensor::Tensor samples;
  {
    const Tracer::Scope span(tracer, "diffusion.sample", r.index);
    std::int64_t last = Tracer::now_ns();
    samples = dp::diffusion::sample_streams_strided(
        *a.model, *a.schedule, view.folded, view.folded,
        dp::diffusion::SamplerConfig{}, ptrs, strides,
        [&](std::int64_t /*k*/, std::int64_t /*batch*/) {
          const auto now = Tracer::now_ns();
          tracer.record("diffusion.round", last, now, r.index);
          last = now;
        });
  }
  dp::layout::DeepSquishConfig fold;
  fold.channels = a.config.channels;
  const auto per_slot = samples.numel() / count;
  std::vector<dp::geometry::BinaryGrid> out;
  for (std::int64_t s = 0; s < count; ++s) {
    const Tracer::Scope span(tracer, "layout.unfold", r.index);
    dp::tensor::Tensor one({a.config.channels, view.folded, view.folded});
    std::copy(samples.data() + s * per_slot,
              samples.data() + (s + 1) * per_slot, one.data());
    out.push_back(dp::layout::unfold_topology(one, fold));
  }
  return out;
}

/// Pre-filters and legalizes one request's topologies exactly as the
/// service does, then re-checks every pattern. Returns the patterns in
/// topology order.
std::vector<dp::layout::SquishPattern> replay_legalize(
    Tracer& tracer, const ModelView& view, const PlannedRequest& r,
    const std::vector<dp::geometry::BinaryGrid>& topologies,
    std::int64_t geometries, const dp::drc::DesignRules& rules,
    ReplayCounts& counts) {
  const auto& a = *view.artifacts;
  const auto* library = a.library.empty() ? nullptr : &a.library;
  std::vector<dp::layout::SquishPattern> patterns;
  for (std::size_t t = 0; t < topologies.size(); ++t) {
    bool pass = false;
    {
      const Tracer::Scope span(tracer, "legalize.prefilter", r.index);
      pass = dp::legalize::prefilter_topology(topologies[t]) ==
             dp::legalize::PrefilterVerdict::ok;
    }
    if (!pass) {
      ++counts.prefiltered;
      continue;
    }
    ++counts.solves;
    dp::common::Rng rng(dp::common::derive_seed(
        r.seed, kLegalizeStream, static_cast<std::uint64_t>(t)));
    std::vector<dp::layout::SquishPattern> got;
    {
      const Tracer::Scope span(tracer, "legalize.solve", r.index);
      if (geometries == 1) {
        auto solved = dp::legalize::legalize_topology(
            topologies[t], rules, a.config.tile, a.config.tile,
            a.config.solver, rng, library);
        counts.attempts += solved.stats.attempts;
        counts.solver_rounds += solved.stats.rounds;
        ++counts.solve_stats;
        if (solved.success) {
          got.push_back(std::move(solved.pattern));
        }
      } else {
        got = dp::legalize::legalize_topology_many(
            topologies[t], rules, a.config.tile, a.config.tile,
            a.config.solver, geometries, rng, library);
      }
    }
    for (const auto& p : got) {
      const Tracer::Scope span(tracer, "drc.check", r.index);
      if (!dp::drc::check_pattern(p, rules).clean()) {
        ++counts.drc_violations;
      }
    }
    counts.legal += static_cast<std::int64_t>(got.size());
    std::move(got.begin(), got.end(), std::back_inserter(patterns));
  }
  return patterns;
}

/// Encodes and decodes the frames a worker would send for one result: a
/// GenerateResult frame, or (streamed) one frame per slot plus StreamEnd.
void replay_wire(Tracer& tracer, const PlannedRequest& r,
                 const std::vector<dp::layout::SquishPattern>& patterns,
                 bool streamed, ReplayCounts& counts) {
  std::vector<dp::dist::Bytes> frames;
  {
    const Tracer::Scope span(tracer, "dist.encode", r.index);
    if (streamed) {
      dp::service::StreamedPattern slot;
      slot.legal = !patterns.empty();
      slot.patterns = patterns;
      frames.push_back(dp::dist::encode_streamed_pattern(slot));
      frames.push_back(dp::dist::encode_stream_end(
          dp::common::Status::Ok(), dp::service::GenerateStats{}));
    } else {
      dp::service::GenerateResult result;
      result.patterns = patterns;
      frames.push_back(dp::dist::encode_generate_result(result));
    }
  }
  {
    const Tracer::Scope span(tracer, "dist.decode", r.index);
    for (const auto& f : frames) {
      bool ok = false;
      if (streamed) {
        ok = dp::dist::decode_streamed_pattern(f).ok() ||
             dp::dist::decode_stream_end(f).ok();
      } else {
        ok = dp::dist::decode_generate_result(f).ok();
      }
      if (!ok) {
        throw std::runtime_error("replay: frame failed to decode");
      }
    }
  }
  counts.frames += static_cast<std::int64_t>(frames.size());
  for (const auto& f : frames) {
    counts.frame_bytes += static_cast<std::int64_t>(f.size());
  }
}

/// Requests the traced run replays: the first few of the plan.
std::vector<const PlannedRequest*> replay_subset(const RunContext& ctx) {
  const std::size_t n = ctx.plan.workload == Workload::kRoutedStream ? 24 : 16;
  std::vector<const PlannedRequest*> out;
  for (std::size_t i = 0; i < std::min(n, ctx.plan.requests.size()); ++i) {
    out.push_back(&ctx.plan.requests[i]);
  }
  return out;
}

/// One replay pass over the subset. Returns its wall time in seconds.
double replay_pass(Tracer& tracer, RunContext& ctx, const ModelView& view,
                   ReplayCounts& counts) {
  const auto subset = replay_subset(ctx);
  const auto t0 = Clock::now();
  const auto compare = [&](const PlannedRequest& r,
                           const std::vector<dp::layout::SquishPattern>& p) {
    const auto expected = ctx.verifier.digest(r.index);
    if (expected.has_value()) {
      ++counts.compared;
      counts.matched += *expected == digest_patterns(p) ? 1 : 0;
    }
  };
  switch (ctx.plan.workload) {
    case Workload::kServeFused:
      // Each request samples as its own batch: with two closed-loop
      // clients the service rarely finds both requests queued at round
      // formation (service.fused_batch_slots reports what it fused).
      for (const auto* r : subset) {
        const Tracer::Scope root(tracer, "request", r->index);
        const auto grids = replay_sample(tracer, view, *r, kFusedCount);
        const auto patterns = replay_legalize(
            tracer, view, *r, grids, 1, ctx.decks.at(r->deck), counts);
        replay_wire(tracer, *r, patterns, false, counts);
        compare(*r, patterns);
      }
      break;
    case Workload::kRoutedStream:
      for (const auto* r : subset) {
        const Tracer::Scope root(tracer, "request", r->index);
        const auto grids = replay_sample(tracer, view, *r, kRoutedCount);
        const auto patterns =
            replay_legalize(tracer, view, *r, grids, kRoutedGeometries,
                            ctx.decks.at(r->deck), counts);
        replay_wire(tracer, *r, patterns, true, counts);
        compare(*r, patterns);
      }
      break;
  }
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median wall time of one U-Net inference forward at `batch`, run the way
/// the sampler runs it (no-grad, inside the round's activation plan).
double forward_ms(const ModelView& view, std::int64_t batch) {
  const auto& a = *view.artifacts;
  dp::tensor::Tensor x({batch, a.config.channels, view.folded, view.folded});
  dp::common::Rng rng(7);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = rng.bernoulli(0.5) ? 1.0F : 0.0F;
  }
  const std::vector<std::int64_t> ks(static_cast<std::size_t>(batch),
                                     a.config.schedule.steps / 2);
  const dp::nn::NoGradGuard no_grad;
  std::vector<double> times;
  for (int rep = 0; rep < 33; ++rep) {
    dp::tensor::ArenaScope arena(a.model->plan_cache(), x.shape());
    const auto t0 = Clock::now();
    auto out = a.model->forward(x, ks, /*training=*/false, rng);
    const double ms = ms_since(t0, Clock::now());
    if (rep >= 3) {  // The first forwards record the activation plan.
      times.push_back(ms);
    }
  }
  std::nth_element(times.begin(), times.begin() + times.size() / 2,
                   times.end());
  return times[times.size() / 2];
}

/// GFLOP/s of tensor::matmul_into over the U-Net's im2col-GEMM shapes at
/// batch 16: one [Cout, Cin*9] x [Cin*9, 16*side^2] product per 3x3 conv
/// weight in the model, side taken from the conv's resolution level.
/// FLOPs = 2*M*K*N per product.
double gemm_gflops(const ModelView& view) {
  const auto& a = *view.artifacts;
  const auto& registry = a.model->registry();
  const auto levels =
      static_cast<std::int64_t>(a.config.channel_mult.size());
  struct Shape3 {
    std::int64_t m, k, n;
  };
  std::vector<Shape3> shapes;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const auto& shape = registry.params()[i].value().shape();
    const auto& name = registry.names()[i];
    if (shape.size() != 4 || shape[2] != 3) {
      continue;
    }
    std::int64_t level = 0;
    if (name.rfind("mid.", 0) == 0) {
      level = levels - 1;
    } else if (name.rfind("down.", 0) == 0 || name.rfind("up.", 0) == 0) {
      level = name[name.find('.') + 1] - '0';
      if (name.find("downsample") != std::string::npos) {
        ++level;
      } else if (name.find("upsample") != std::string::npos) {
        --level;
      }
    }
    const auto side = view.folded >> std::clamp<std::int64_t>(level, 0, 8);
    shapes.push_back({shape[0], shape[1] * 9, 16 * side * side});
  }
  std::vector<dp::tensor::Tensor> lhs, rhs, out;
  double flops = 0.0;
  dp::common::Rng rng(11);
  for (const auto& s : shapes) {
    lhs.emplace_back(dp::tensor::Shape{s.m, s.k});
    rhs.emplace_back(dp::tensor::Shape{s.k, s.n});
    out.emplace_back(dp::tensor::Shape{s.m, s.n});
    for (auto* t : {&lhs.back(), &rhs.back()}) {
      for (std::int64_t i = 0; i < t->numel(); ++i) {
        t->data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
    }
    flops += 2.0 * static_cast<double>(s.m * s.k * s.n);
  }
  std::vector<double> rates;
  for (int rep = 0; rep < 12; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      dp::tensor::matmul_into(lhs[i], rhs[i], out[i]);
    }
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (rep >= 2) {
      rates.push_back(flops / s * 1e-9);
    }
  }
  std::nth_element(rates.begin(), rates.begin() + rates.size() / 2,
                   rates.end());
  return rates[rates.size() / 2];
}

/// Solver attempts / rounds per single solve for routed_stream, whose
/// requests legalize several geometries per topology (legalize_topology_many
/// keeps its stats internal): one legalize_topology per replayed topology,
/// same seeds, outside the timed passes.
void solve_stats_probe(RunContext& ctx, const ModelView& view,
                       ReplayCounts& counts) {
  const auto& a = *view.artifacts;
  const auto* lib = a.library.empty() ? nullptr : &a.library;
  Tracer off(false);
  for (const auto* r : replay_subset(ctx)) {
    const auto grids = replay_sample(off, view, *r, kRoutedCount);
    for (std::size_t t = 0; t < grids.size(); ++t) {
      if (dp::legalize::prefilter_topology(grids[t]) !=
          dp::legalize::PrefilterVerdict::ok) {
        continue;
      }
      dp::common::Rng rng(dp::common::derive_seed(
          r->seed, kLegalizeStream, static_cast<std::uint64_t>(t)));
      const auto solved = dp::legalize::legalize_topology(
          grids[t], ctx.decks.at(r->deck), a.config.tile, a.config.tile,
          a.config.solver, rng, lib);
      counts.attempts += solved.stats.attempts;
      counts.solver_rounds += solved.stats.rounds;
      ++counts.solve_stats;
    }
  }
}

void traced_replay(RunContext& ctx, dp::service::PatternService& service) {
  const auto view = model_view(service);
  const double fwd16 = forward_ms(view, 16);
  const double fwd8 = forward_ms(view, kFusedCount);
  const double fwd4 = forward_ms(view, kRoutedCount);
  ctx.layers.number("tensor.gemm_gflops", gemm_gflops(view))
      .number("unet.forward_ms_b16", fwd16)
      .number("unet.forward_ms_b8", fwd8)
      .number("unet.forward_ms_b4", fwd4);

  // Untraced and traced passes alternate (U T U T) so drift between them
  // does not read as tracing overhead.
  double untraced_s = 0.0;
  double traced_s = 0.0;
  double last_traced_s = 0.0;  // Wall of the pass whose spans are kept.
  std::optional<Tracer> tracer;
  ReplayCounts counts;
  for (int pass = 0; pass < 4; ++pass) {
    const bool traced = pass % 2 == 1;
    Tracer t(traced);
    ReplayCounts c;
    const double s = replay_pass(t, ctx, view, c);
    (traced ? traced_s : untraced_s) += s;
    if (traced) {
      tracer.emplace(std::move(t));
      counts = c;
      last_traced_s = s;
    }
  }
  if (ctx.plan.workload == Workload::kRoutedStream) {
    solve_stats_probe(ctx, view, counts);
  }
  if (!ctx.options.trace_out.empty() &&
      !tracer->write_chrome_trace(ctx.options.trace_out)) {
    ctx.check_failures.push_back("could not write " + ctx.options.trace_out);
  }

  const auto self = tracer->self_seconds();
  const auto n = tracer->counts();
  const auto self_of = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto count_of = [&](const char* layer) {
    const auto it = n.find(layer);
    return it == n.end() ? std::int64_t{0} : it->second;
  };
  const auto per = [](double total, std::int64_t count, double scale) {
    return count > 0 ? total * scale / static_cast<double>(count) : 0.0;
  };
  // Round wall time (spans) vs a bare forward at the replay's batch.
  const double round_ms =
      per(self_of("diffusion.round"), count_of("diffusion.round"), 1e3);
  const double fwd =
      ctx.plan.workload == Workload::kServeFused ? fwd8 : fwd4;
  double layer_sum = 0.0;
  for (const auto& [layer, s] : self) {
    if (layer != "request") {
      layer_sum += s;
    }
  }
  ctx.layers.number("diffusion.round_ms", round_ms)
      .number("diffusion.transition_share",
              round_ms > 0.0 ? (round_ms - fwd) / round_ms : 0.0)
      .number("legalize.solve_us_per_pattern",
              per(self_of("legalize.solve"), counts.legal, 1e6))
      .number("legalize.attempts_per_solve",
              per(static_cast<double>(counts.attempts), counts.solve_stats, 1))
      .number("legalize.rounds_per_solve",
              per(static_cast<double>(counts.solver_rounds),
                  counts.solve_stats, 1))
      .number("legalize.prefilter_reject_ratio",
              per(static_cast<double>(counts.prefiltered),
                  counts.prefiltered + counts.solves, 1))
      .number("drc.check_us",
              per(self_of("drc.check"), count_of("drc.check"), 1e6))
      .number("layout.unfold_us",
              per(self_of("layout.unfold"), count_of("layout.unfold"), 1e6))
      .number("dist.encode_us", per(self_of("dist.encode"), counts.frames, 1e6))
      .number("dist.decode_us", per(self_of("dist.decode"), counts.frames, 1e6))
      .number("dist.frame_bytes",
              per(static_cast<double>(counts.frame_bytes), counts.frames, 1))
      .number("trace.coverage",
              last_traced_s > 0.0 ? layer_sum / last_traced_s : 0.0)
      .number("trace.overhead",
              untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0)
      .number("trace.replay_match",
              per(static_cast<double>(counts.matched), counts.compared, 1))
      .integer("trace.spans", static_cast<std::int64_t>(
                                  tracer->spans().size()));
  if (counts.drc_violations > 0) {
    ctx.check_failures.push_back(
        "traced replay produced " + std::to_string(counts.drc_violations) +
        " DRC-dirty patterns");
  }
}

// ------------------------------------------------------------ solo replay

template <typename Solo>
void check_solo_replays(RunContext& ctx, const Solo& solo) {
  std::vector<std::size_t> ok;
  for (std::size_t i = 0; i < ctx.records.size(); ++i) {
    if (ctx.records[i].ok) {
      ok.push_back(i);
    }
  }
  std::set<std::size_t> picked;
  for (std::uint64_t j = 0; picked.size() < std::min<std::size_t>(
                                                kSoloReplays, ok.size());
       ++j) {
    picked.insert(ok[mix_seed(ctx.options.seed ^ 0x5EEDULL, j) % ok.size()]);
  }
  for (const auto i : picked) {
    const auto& r = ctx.plan.requests[i];
    ++ctx.replay_checked;
    const auto expected = ctx.verifier.digest(r.index);
    const auto got = digest_patterns(solo(r));
    if (!expected.has_value() || *expected != got) {
      ++ctx.replay_mismatches;
      ctx.error("solo replay of request " + std::to_string(r.index) +
                " does not match the bytes served under load");
    }
  }
}

}  // namespace

// ------------------------------------------------------------ entry points

std::string run_setup(const std::string& checkpoint_path) {
  require(dp::common::set_global_compute_threads(
              std::min<std::int64_t>(4, host_threads())),
          "set_global_compute_threads");
  const auto t0 = Clock::now();
  dp::core::Pipeline pipeline(bench_config());
  const auto t1 = Clock::now();
  (void)pipeline.dataset();
  const auto t2 = Clock::now();
  std::vector<double> losses;
  pipeline.train([&](std::int64_t, const dp::diffusion::LossBreakdown& loss) {
    losses.push_back(loss.total);
  });
  const auto t3 = Clock::now();
  pipeline.save_model(checkpoint_path);
  const auto t4 = Clock::now();

  std::ifstream in(checkpoint_path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const auto digest = dp::dist::fnv1a64(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
  double loss = 0.0;
  const auto window = std::min<std::size_t>(kLossWindow, losses.size());
  for (std::size_t i = losses.size() - window; i < losses.size(); ++i) {
    loss += losses[i] / static_cast<double>(window);
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  const auto secs = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  return JsonObject()
      .number("setup_s", secs(t0, t4))
      .number("init_s", secs(t0, t1))
      .number("datagen_s", secs(t1, t2))
      .number("train_s", secs(t2, t3))
      .number("train_step_ms",
              secs(t2, t3) * 1e3 / static_cast<double>(kTrainIterations))
      .number("train_loss", loss)
      .string("checkpoint_digest", hex)
      .str();
}

std::string run_workload(const RunOptions& options) {
  RunContext ctx(options);
  const auto bringup_t0 = Clock::now();
  // The delta library (Solving-E) comes from the same deterministic
  // dataset the set-up trained on.
  dp::core::Pipeline data_source(ctx.config);
  const auto delta_library = data_source.dataset().library;

  std::unique_ptr<dp::service::PatternService> service;
  std::unique_ptr<RoutedPlane> plane;
  std::vector<Counters> counters;
  std::int64_t max_fused_batch = 0;
  if (options.workload == Workload::kRoutedStream) {
    plane = std::make_unique<RoutedPlane>(ctx, delta_library);
    load_decks(plane->nodes.front()->service(), ctx);
    max_fused_batch = plane->nodes.front()->service().config().max_fused_batch;
  } else {
    service = std::make_unique<dp::service::PatternService>(pinned_config());
    register_bench_model(*service, ctx, delta_library);
    max_fused_batch = service->config().max_fused_batch;
    load_decks(*service, ctx);
  }
  // Warm-up requests run inside the workload functions, before their
  // measured phase starts; they count as set-up.
  switch (options.workload) {
    case Workload::kServeFused:
      run_serve_fused(ctx, *service, counters);
      break;
    case Workload::kRoutedStream:
      run_routed_stream(ctx, *plane, counters);
      break;
  }
  const double bringup_s =
      std::chrono::duration<double>(ctx.measure_start - bringup_t0).count();
  const auto allocs =
      dp::tensor::tensor_alloc_stats().heap_allocations - ctx.allocs_at_start;
  ctx.verifier.finish();
  const double rss = peak_rss_mb();

  if (plane) {
    check_solo_replays(ctx, [&](const PlannedRequest& r) {
      return routed_call(*plane->router, r).patterns;
    });
  } else {
    check_solo_replays(
        ctx, [&](const PlannedRequest& r) { return solo_fused(*service, r); });
  }

  report_service_counters(ctx, counters, max_fused_batch);
  double slots = 0.0;
  std::int64_t ok = 0;
  for (const auto& r : ctx.records) {
    slots += static_cast<double>(r.fused_batch_slots);
    ok += r.ok ? 1 : 0;
  }
  ctx.layers
      .number("service.fused_batch_slots",
              ok > 0 ? slots / static_cast<double>(ok) : 0.0)
      .number("tensor.heap_allocs_per_request",
              static_cast<double>(allocs) /
                  static_cast<double>(ctx.records.size()))
      .number("dist.failovers",
              plane ? static_cast<double>(plane->router->counters().failovers)
                    : 0.0)
      .number("dist.pool_peak",
              plane ? static_cast<double>(plane->pool_peak()) : 0.0);
  if (options.trace) {
    auto& traced_service = plane ? plane->nodes.front()->service() : *service;
    traced_replay(ctx, traced_service);
  }

  std::vector<double> latency, first, queue_wait, overhead, lag, oks;
  std::int64_t legal = 0;
  std::int64_t requested = 0;
  for (const auto& r : ctx.records) {
    latency.push_back(r.latency_ms);
    first.push_back(r.first_pattern_ms);
    queue_wait.push_back(r.queue_wait_ms);
    overhead.push_back(r.call_overhead_ms);
    lag.push_back(r.lag_ms);
    oks.push_back(r.ok ? 1.0 : 0.0);
    legal += r.legal;
    requested += r.requested;
  }
  return JsonObject()
      .string("workload", workload_name(options.workload))
      .integer("requests", static_cast<std::int64_t>(ctx.records.size()))
      .number("bringup_s", bringup_s)
      .number("wall_s", ctx.wall_s)
      .numbers("latency_ms", latency)
      .numbers("first_pattern_ms", first)
      .numbers("queue_wait_ms", queue_wait)
      .numbers("call_overhead_ms", overhead)
      .numbers("lag_ms", lag)
      .numbers("ok", oks)
      .integer("legal_patterns", legal)
      .integer("requested_patterns", requested)
      .number("diversity", ctx.verifier.diversity())
      .number("peak_rss_mb", rss)
      .integer("drc_checked", ctx.verifier.checked())
      .integer("drc_violations", ctx.verifier.violations())
      .integer("replay_checked", ctx.replay_checked)
      .integer("replay_mismatches", ctx.replay_mismatches)
      .strings("errors", ctx.errors)
      .strings("check_failures", ctx.check_failures)
      .raw("layers", ctx.layers.str())
      .str();
}

}  // namespace dpbench

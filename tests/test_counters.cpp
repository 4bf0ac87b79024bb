// Counter output pins: every counter set's JSON is pinned byte for byte
// (the CLI --stats-json contract), the live CounterBlock's snapshot is
// checked field by field, and the --stats text must name every field.
// Each set is filled with a distinct value per field, so a field printed
// under the wrong key, or recorded into the wrong member, fails loudly.
#include <gtest/gtest.h>

#include <string>

#include "common/counters.h"
#include "common/status.h"
#include "dist/router.h"
#include "dist/socket_transport.h"
#include "dist/worker_node.h"
#include "support/fault_injection.h"

namespace dc = diffpattern::common;
namespace dd = diffpattern::dist;

namespace {

/// Every field set to its 1-based position in the JSON output, plus a
/// non-integer fill ratio, two reject codes, and non-empty identities.
dc::ServiceCounters sample_service_counters() {
  dc::ServiceCounters s;
  s.kernel_backend = "avx2";
  s.compute_pool = "4 threads (hardware)";
  s.queue_depth = 3;
  s.queue_depth_peak = 4;
  s.admission_pending = 5;
  s.admission_pending_peak = 6;
  s.shards_active = 7;
  s.rounds_executed = 9;
  s.denoise_steps = 10;
  s.net_evals = 11;
  s.steps_skipped = 12;
  s.fused_slots_total = 13;
  s.max_round_slots = 14;
  s.fused_fill_ratio = 0.4375;
  s.requests_accepted = 16;
  s.requests_completed = 17;
  s.stream_deliveries = 18;
  s.patterns_delivered = 19;
  s.requests_shed = 20;
  s.requests_degraded = 21;
  s.deadlines_expired = 23;
  s.jobs_cancelled = 24;
  s.arena_bytes_reserved = 27;
  s.plan_cache_hits = 28;
  s.plan_cache_misses = 29;
  s.rejects_by_code[static_cast<std::size_t>(
      dc::StatusCode::kInvalidArgument)] = 31;
  s.rejects_by_code[static_cast<std::size_t>(dc::StatusCode::kUnavailable)] =
      32;
  return s;
}

TEST(CounterOutput, ServiceCountersJsonIsPinned) {
  EXPECT_EQ(
      sample_service_counters().to_json(),
      "{\"kernel_backend\":\"avx2\",\"compute_pool\":\"4 threads "
      "(hardware)\",\"queue_depth\":3,\"queue_depth_peak\":4,"
      "\"admission_pending\":5,\"admission_pending_peak\":6,"
      "\"shards_active\":7,\"rounds_executed\":9,"
      "\"denoise_steps\":10,\"net_evals\":11,\"steps_skipped\":12,"
      "\"fused_slots_total\":13,\"max_round_slots\":14,"
      "\"fused_fill_ratio\":0.4375,\"requests_accepted\":16,"
      "\"requests_completed\":17,\"stream_deliveries\":18,"
      "\"patterns_delivered\":19,\"requests_shed\":20,"
      "\"requests_degraded\":21,\"deadlines_expired\":23,"
      "\"jobs_cancelled\":24,"
      "\"arena_bytes_reserved\":27,\"plan_cache_hits\":28,"
      "\"plan_cache_misses\":29,"
      "\"rejects_by_code\":{\"INVALID_ARGUMENT\":31,\"UNAVAILABLE\":32}}");
}

TEST(CounterOutput, EmptyServiceCountersJsonIsPinned) {
  EXPECT_EQ(
      dc::ServiceCounters{}.to_json(),
      "{\"kernel_backend\":\"\",\"compute_pool\":\"\",\"queue_depth\":0,"
      "\"queue_depth_peak\":0,\"admission_pending\":0,"
      "\"admission_pending_peak\":0,\"shards_active\":0,"
      "\"rounds_executed\":0,\"denoise_steps\":0,"
      "\"net_evals\":0,\"steps_skipped\":0,\"fused_slots_total\":0,"
      "\"max_round_slots\":0,\"fused_fill_ratio\":0,"
      "\"requests_accepted\":0,\"requests_completed\":0,"
      "\"stream_deliveries\":0,\"patterns_delivered\":0,"
      "\"requests_shed\":0,\"requests_degraded\":0,"
      "\"deadlines_expired\":0,\"jobs_cancelled\":0,"
      "\"arena_bytes_reserved\":0,\"plan_cache_hits\":0,"
      "\"plan_cache_misses\":0,"
      "\"rejects_by_code\":{}}");
}

TEST(CounterOutput, ServiceCountersTextNamesEveryField) {
  const auto text = sample_service_counters().to_string();
  for (const char* name :
       {"kernel_backend", "compute_pool", "queue_depth", "queue_depth_peak",
        "admission_pending", "admission_pending_peak", "shards_active",
        "rounds_executed", "denoise_steps", "net_evals",
        "steps_skipped", "fused_slots_total",
        "max_round_slots", "fused_fill_ratio", "requests_accepted",
        "requests_completed", "stream_deliveries", "patterns_delivered",
        "requests_shed", "requests_degraded",
        "deadlines_expired", "jobs_cancelled", "arena_bytes_reserved",
        "plan_cache_hits", "plan_cache_misses", "rejects_by_code"}) {
    EXPECT_NE(text.find(std::string(name) + ":"), std::string::npos)
        << name << " missing from:\n"
        << text;
  }
  EXPECT_NE(text.find("INVALID_ARGUMENT: 31"), std::string::npos) << text;
  EXPECT_NE(text.find("UNAVAILABLE: 32"), std::string::npos) << text;
}

TEST(CounterOutput, CounterBlockSnapshotReadsEveryCounter) {
  // Each counter is recorded a distinct number of times, so a list entry
  // wired to the wrong member reads the wrong value.
  dc::CounterBlock block;
  const auto record = [](dc::LiveCounter& counter, int times) {
    for (int i = 0; i < times; ++i) {
      counter.add();
    }
  };
  record(block.queue_depth, 1);
  record(block.queue_depth_peak, 2);
  record(block.admission_pending, 3);
  record(block.admission_pending_peak, 4);
  record(block.shards_active, 5);
  record(block.rounds_executed, 7);
  record(block.denoise_steps, 8);
  record(block.net_evals, 9);
  record(block.steps_skipped, 10);
  record(block.fused_slots_total, 11);
  record(block.max_round_slots, 12);
  record(block.requests_accepted, 13);
  record(block.requests_completed, 14);
  record(block.stream_deliveries, 15);
  record(block.patterns_delivered, 16);
  record(block.requests_shed, 17);
  record(block.requests_degraded, 18);
  record(block.deadlines_expired, 20);
  record(block.jobs_cancelled, 21);
  record(block.rejects_by_code[static_cast<std::size_t>(
             dc::StatusCode::kInvalidArgument)],
         24);
  record(block.rejects_by_code[static_cast<std::size_t>(
             dc::StatusCode::kUnavailable)],
         25);

  const auto s = dc::snapshot(block);
  EXPECT_EQ(s.queue_depth, 1);
  EXPECT_EQ(s.queue_depth_peak, 2);
  EXPECT_EQ(s.admission_pending, 3);
  EXPECT_EQ(s.admission_pending_peak, 4);
  EXPECT_EQ(s.shards_active, 5);
  EXPECT_EQ(s.rounds_executed, 7);
  EXPECT_EQ(s.denoise_steps, 8);
  EXPECT_EQ(s.net_evals, 9);
  EXPECT_EQ(s.steps_skipped, 10);
  EXPECT_EQ(s.fused_slots_total, 11);
  EXPECT_EQ(s.max_round_slots, 12);
  EXPECT_EQ(s.requests_accepted, 13);
  EXPECT_EQ(s.requests_completed, 14);
  EXPECT_EQ(s.stream_deliveries, 15);
  EXPECT_EQ(s.patterns_delivered, 16);
  EXPECT_EQ(s.requests_shed, 17);
  EXPECT_EQ(s.requests_degraded, 18);
  EXPECT_EQ(s.deadlines_expired, 20);
  EXPECT_EQ(s.jobs_cancelled, 21);
  EXPECT_EQ(s.rejects(dc::StatusCode::kInvalidArgument), 24);
  EXPECT_EQ(s.rejects(dc::StatusCode::kUnavailable), 25);
  EXPECT_EQ(s.total_rejected(), 49);
  // Snapshot-time fields are the owning service's to fill, not the
  // block's.
  EXPECT_TRUE(s.kernel_backend.empty());
  EXPECT_TRUE(s.compute_pool.empty());
  EXPECT_EQ(s.fused_fill_ratio, 0.0);
  EXPECT_EQ(s.arena_bytes_reserved, 0);
  EXPECT_EQ(s.plan_cache_hits, 0);
  EXPECT_EQ(s.plan_cache_misses, 0);
}

TEST(CounterOutput, LiveCounterTracksGaugesAndPeaks) {
  dc::LiveCounter gauge;
  dc::LiveCounter peak;
  peak.raise_to(gauge.add(3));
  peak.raise_to(gauge.add(-2));
  EXPECT_EQ(gauge.load(), 1);
  EXPECT_EQ(peak.load(), 3);
}

TEST(CounterOutput, RouterCountersJsonIsPinned) {
  dd::RouterCounters c;
  c.requests = 1;
  c.redirects = 2;
  c.failovers = 3;
  c.sheds_returned = 4;
  c.health_probes = 5;
  c.health_failures = 6;
  c.transport_timeouts = 7;
  c.transport_errors = 8;
  c.decode_failures = 9;
  c.reconnects = 10;
  c.directory_adds = 11;
  c.directory_removes = 12;
  c.directory_sync_failures = 13;
  EXPECT_EQ(c.to_json(),
            "{\"requests\":1,\"redirects\":2,\"failovers\":3,"
            "\"sheds_returned\":4,\"health_probes\":5,"
            "\"health_failures\":6,\"transport_timeouts\":7,"
            "\"transport_errors\":8,\"decode_failures\":9,"
            "\"reconnects\":10,\"directory_adds\":11,"
            "\"directory_removes\":12,\"directory_sync_failures\":13}");
}

TEST(CounterOutput, WorkerWireCountersJsonIsPinned) {
  dd::WorkerWireCounters c;
  c.calls = 1;
  c.generate_calls = 2;
  c.stream_calls = 3;
  c.health_probes = 4;
  c.decode_errors = 5;
  EXPECT_EQ(c.to_json(),
            "{\"calls\":1,\"generate_calls\":2,\"stream_calls\":3,"
            "\"health_probes\":4,\"decode_errors\":5}");
}

TEST(CounterOutput, SocketServerCountersJsonIsPinned) {
  dd::SocketServerCounters c;
  c.connections = 1;
  c.connections_shed = 2;
  c.requests = 3;
  c.read_errors = 4;
  c.auth_failures = 5;
  EXPECT_EQ(c.to_json(),
            "{\"connections\":1,\"connections_shed\":2,\"requests\":3,"
            "\"read_errors\":4,\"auth_failures\":5}");
}

TEST(CounterOutput, FaultCountersJsonIsPinned) {
  dd::FaultCounters c;
  c.connections = 1;
  c.relayed = 2;
  c.refused = 3;
  c.resets = 4;
  c.corrupted = 5;
  c.truncated = 6;
  c.stalled = 7;
  c.partitioned = 8;
  EXPECT_EQ(c.to_json(),
            "{\"connections\":1,\"relayed\":2,\"refused\":3,\"resets\":4,"
            "\"corrupted\":5,\"truncated\":6,\"stalled\":7,"
            "\"partitioned\":8}");
}

}  // namespace

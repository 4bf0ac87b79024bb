// Runtime discovery tests: the worker-directory text format, file-backed
// re-reads, and the router's sync_directory() seam — replicas join, retire,
// and revive under a live router with byte identity intact.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "dist/discovery.h"
#include "dist/router.h"
#include "dist/transport.h"
#include "dist/worker_node.h"
#include "service_test_util.h"
#include "unet/unet.h"

namespace dd = diffpattern::dist;
namespace dc = diffpattern::common;
namespace ds = diffpattern::service;

namespace {

using ds::test::mini_model_config;
using ds::test::same_patterns;

std::string unique_path(const std::string& tag) {
  static std::atomic<int> counter{0};
  return "/tmp/dp_dir_" + std::to_string(::getpid()) + "_" + tag + "_" +
         std::to_string(counter.fetch_add(1)) + ".txt";
}

/// Writes `text` to a fresh temp file and returns its path.
std::string write_file(const std::string& tag, const std::string& text) {
  const std::string path = unique_path(tag);
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return path;
}

// ---------------------------------------------------------------- parsing

TEST(WorkerDirectoryParse, ParsesModelAddressLines) {
  const auto parsed = dd::parse_worker_directory(
      "# fleet config\n"
      "demo tcp:host-a:7000\n"
      "\n"
      "demo unix:/tmp/w1.sock  # inline comment\n"
      "other tcp:[::1]:7002\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_EQ((*parsed)[0].model, "demo");
  EXPECT_EQ((*parsed)[0].address, "tcp:host-a:7000");
  EXPECT_EQ((*parsed)[1].address, "unix:/tmp/w1.sock");
  EXPECT_EQ((*parsed)[2].model, "other");
  EXPECT_EQ((*parsed)[2].address, "tcp:[::1]:7002");
}

TEST(WorkerDirectoryParse, RejectsMalformedLinesWithLineNumber) {
  const std::string bad[] = {
      "demo\n",                       // one token
      "demo tcp:a:1 extra-token\n",   // three tokens
  };
  for (const auto& text : bad) {
    const auto parsed = dd::parse_worker_directory("# ok\n" + text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), dc::StatusCode::kInvalidArgument);
    // The comment line is line 1, the broken line is line 2.
    EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos)
        << parsed.status().to_string();
  }
}

// ------------------------------------------------------------------- file

TEST(WorkerDirectoryFile, ReReadsOnEverySnapshot) {
  const std::string path = write_file("rr", "demo tcp:host-a:7000\n");
  dd::FileWorkerDirectory directory(path);
  auto first = directory.snapshot();
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 1u);

  {
    std::ofstream out(path, std::ios::trunc);
    out << "demo tcp:host-a:7000\ndemo tcp:host-b:7001\n";
  }
  // No restart, no re-open: the next snapshot sees the edit.
  auto second = directory.snapshot();
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->size(), 2u);
  EXPECT_EQ((*second)[1].address, "tcp:host-b:7001");
  std::remove(path.c_str());
}

TEST(WorkerDirectoryFile, UnreadableFileIsNotFound) {
  dd::FileWorkerDirectory directory("/nonexistent/dp_workers.txt");
  const auto snapshot = directory.snapshot();
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), dc::StatusCode::kNotFound);
}

TEST(WorkerDirectoryFile, MalformedLineNamesThePath) {
  const std::string path = write_file("bad", "just-one-token\n");
  dd::FileWorkerDirectory directory(path);
  const auto snapshot = directory.snapshot();
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), dc::StatusCode::kInvalidArgument);
  EXPECT_NE(snapshot.status().message().find(path), std::string::npos)
      << snapshot.status().to_string();
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- static

TEST(WorkerDirectoryStatic, SwapAddRemove) {
  dd::StaticWorkerDirectory directory(
      std::vector<dd::WorkerEndpoint>{{"demo", "tcp:a:1"}});
  ASSERT_EQ(directory.snapshot()->size(), 1u);

  directory.add_endpoint({"demo", "tcp:b:2"});
  ASSERT_EQ(directory.snapshot()->size(), 2u);

  directory.remove_address("tcp:a:1");
  auto snapshot = directory.snapshot();
  ASSERT_EQ(snapshot->size(), 1u);
  EXPECT_EQ((*snapshot)[0].address, "tcp:b:2");

  directory.set_endpoints({});
  EXPECT_TRUE(directory.snapshot()->empty());
}

// -------------------------------------------------------- router syncing

/// Two loopback workers sharing one weights object; the directory decides
/// which of them the router may route to.
class WorkerDirectorySyncTest : public ::testing::Test {
 protected:
  WorkerDirectorySyncTest()
      : weights_(mini_model_config().unet_config(), /*seed=*/7) {}

  std::unique_ptr<dd::WorkerNode> make_worker(const std::string& name) {
    ds::ServiceConfig config;
    config.legalize_workers = 2;
    config.max_fused_batch = 8;
    auto node = std::make_unique<dd::WorkerNode>(name, transport_, config);
    EXPECT_TRUE(node->service()
                    .models()
                    .register_model("demo", mini_model_config(),
                                    weights_.registry(), {})
                    .ok());
    return node;
  }

  dd::ReplicaRouter::ChannelFactory factory() {
    return [this](const std::string& address) {
      return transport_.connect(address);
    };
  }

  ds::GenerateRequest demo_request(std::uint64_t seed = 11) {
    ds::GenerateRequest request;
    request.model = "demo";
    request.count = 2;
    request.seed = seed;
    return request;
  }

  diffpattern::unet::UNet weights_;
  dd::LoopbackTransport transport_;
};

TEST_F(WorkerDirectorySyncTest, AddsRetiresAndRevivesReplicas) {
  auto w0 = make_worker("w0");
  auto w1 = make_worker("w1");
  dd::StaticWorkerDirectory directory(
      {{"demo", "w0"}, {"demo", "w1"}});
  dd::ReplicaRouter router;

  // First sync populates an empty router from the directory.
  auto synced = router.sync_directory(directory, factory());
  ASSERT_TRUE(synced.ok()) << synced.status().to_string();
  EXPECT_EQ(synced->added, 2);
  EXPECT_EQ(synced->retired, 0);
  EXPECT_EQ(router.healthy_replicas("demo"), 2);

  const auto request = demo_request();
  auto before = router.generate(request);
  ASSERT_TRUE(before.ok()) << before.status().to_string();

  // w1 leaves the directory: retired, not freed — and traffic still flows.
  directory.remove_address("w1");
  synced = router.sync_directory(directory, factory());
  ASSERT_TRUE(synced.ok());
  EXPECT_EQ(synced->added, 0);
  EXPECT_EQ(synced->retired, 1);
  EXPECT_EQ(router.healthy_replicas("demo"), 1);
  auto during = router.generate(request);
  ASSERT_TRUE(during.ok()) << during.status().to_string();
  EXPECT_TRUE(same_patterns(before->patterns, during->patterns));

  // w1 re-lists: revived in place (an add, but no new channel dialing is
  // asserted here — that's an implementation detail).
  directory.add_endpoint({"demo", "w1"});
  synced = router.sync_directory(directory, factory());
  ASSERT_TRUE(synced.ok());
  EXPECT_EQ(synced->added, 1);
  EXPECT_EQ(router.healthy_replicas("demo"), 2);
  auto after = router.generate(request);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(same_patterns(before->patterns, after->patterns));

  const auto counters = router.counters();
  EXPECT_EQ(counters.directory_adds, 3);  // 2 initial + 1 revival.
  EXPECT_EQ(counters.directory_removes, 1);
  EXPECT_EQ(counters.directory_sync_failures, 0);
}

TEST_F(WorkerDirectorySyncTest, SnapshotErrorLeavesReplicaSetUntouched) {
  auto w0 = make_worker("w0");
  dd::StaticWorkerDirectory good(
      std::vector<dd::WorkerEndpoint>{{"demo", "w0"}});
  dd::ReplicaRouter router;
  ASSERT_TRUE(router.sync_directory(good, factory()).ok());
  ASSERT_EQ(router.healthy_replicas("demo"), 1);

  // A flaky source (unreadable file) must not drain the healthy router.
  dd::FileWorkerDirectory flaky("/nonexistent/dp_workers.txt");
  const auto synced = router.sync_directory(flaky, factory());
  ASSERT_FALSE(synced.ok());
  EXPECT_EQ(synced.status().code(), dc::StatusCode::kNotFound);
  EXPECT_EQ(router.healthy_replicas("demo"), 1);
  EXPECT_TRUE(router.generate(demo_request()).ok());
  EXPECT_EQ(router.counters().directory_sync_failures, 1);
}

TEST_F(WorkerDirectorySyncTest, IdempotentSyncChangesNothing) {
  auto w0 = make_worker("w0");
  dd::StaticWorkerDirectory directory(
      std::vector<dd::WorkerEndpoint>{{"demo", "w0"}});
  dd::ReplicaRouter router;
  ASSERT_TRUE(router.sync_directory(directory, factory()).ok());
  const auto again = router.sync_directory(directory, factory());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->added, 0);
  EXPECT_EQ(again->retired, 0);
  EXPECT_EQ(router.healthy_replicas("demo"), 1);
}

}  // namespace

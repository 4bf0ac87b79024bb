// Socket transport tests: framing (every-prefix torn-read sweep, hostile
// lengths rejected before allocation, checksum mismatch), address parsing,
// real Unix/TCP round trips through a WorkerNode handler with bytes
// identical to a direct service call, and the typed failure contract —
// refused connects answer UNAVAILABLE (then fail fast under backoff with a
// retry hint), stalls trip the call deadline as DEADLINE_EXCEEDED, torn or
// oversized frames answer DATA_LOSS, and a graceful server shutdown drains
// the in-flight call instead of tearing it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "dist/socket_transport.h"
#include "dist/wire.h"
#include "dist/worker_node.h"
#include "service_test_util.h"
#include "unet/unet.h"

namespace dd = diffpattern::dist;
namespace dc = diffpattern::common;
namespace ds = diffpattern::service;

namespace {

using ds::test::mini_model_config;
using ds::test::same_patterns;

/// Unique socket path per test (unlinked by the server on shutdown).
std::string unique_unix_address(const std::string& tag) {
  static std::atomic<int> counter{0};
  return "unix:/tmp/dp_sock_" + std::to_string(::getpid()) + "_" + tag +
         "_" + std::to_string(counter.fetch_add(1)) + ".sock";
}

dd::Bytes make_payload(std::size_t size) {
  dd::Bytes payload(size);
  for (std::size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<std::uint8_t>((i * 131) & 0xFF);
  }
  return payload;
}

// ---------------------------------------------------------------- framing

TEST(SocketTransportFraming, RoundTripSingleFeed) {
  const dd::Bytes payload = make_payload(257);
  const dd::Bytes framed = dd::frame_payload(payload);
  ASSERT_EQ(framed.size(), payload.size() + dd::kSocketFrameHeaderBytes);
  dd::FrameAssembler assembler;
  ASSERT_TRUE(assembler.feed(framed.data(), framed.size()).ok());
  ASSERT_TRUE(assembler.complete());
  EXPECT_EQ(assembler.take(), payload);
  EXPECT_FALSE(assembler.complete());  // take() resets for the next frame.
}

TEST(SocketTransportFraming, EmptyPayloadFrames) {
  const dd::Bytes framed = dd::frame_payload({});
  dd::FrameAssembler assembler;
  ASSERT_TRUE(assembler.feed(framed.data(), framed.size()).ok());
  ASSERT_TRUE(assembler.complete());
  EXPECT_TRUE(assembler.take().empty());
}

// The satellite sweep: a partial recv may split the stream at ANY byte
// boundary — header bytes, length/checksum straddles, body bytes — and
// the assembler must reassemble the identical payload from every split.
TEST(SocketTransportFraming, EveryPrefixTornReadSweep) {
  const dd::Bytes payload = make_payload(61);
  const dd::Bytes framed = dd::frame_payload(payload);
  for (std::size_t split = 1; split < framed.size(); ++split) {
    dd::FrameAssembler assembler;
    ASSERT_TRUE(assembler.feed(framed.data(), split).ok())
        << "split at byte " << split;
    EXPECT_FALSE(assembler.complete()) << "split at byte " << split;
    // want() never reaches past this frame's end — and while the header
    // is incomplete it asks only for the header remainder, so a hostile
    // length is validated before a single body byte is requested.
    EXPECT_GE(assembler.want(), 1u) << "split at byte " << split;
    EXPECT_LE(assembler.want(), framed.size() - split)
        << "split at byte " << split;
    ASSERT_TRUE(
        assembler.feed(framed.data() + split, framed.size() - split).ok())
        << "split at byte " << split;
    ASSERT_TRUE(assembler.complete()) << "split at byte " << split;
    EXPECT_EQ(assembler.take(), payload) << "split at byte " << split;
  }
}

TEST(SocketTransportFraming, ByteAtATimeReassembles) {
  const dd::Bytes payload = make_payload(29);
  const dd::Bytes framed = dd::frame_payload(payload);
  dd::FrameAssembler assembler;
  for (const std::uint8_t byte : framed) {
    ASSERT_TRUE(assembler.feed(&byte, 1).ok());
  }
  ASSERT_TRUE(assembler.complete());
  EXPECT_EQ(assembler.take(), payload);
}

TEST(SocketTransportFraming, HostileLengthRejectedAtHeaderBeforeBody) {
  // A length above the bound must be refused the moment the header
  // completes — no body byte is ever wanted, no allocation happens.
  dd::FrameAssembler assembler(/*max_frame_bytes=*/1024);
  std::uint8_t header[dd::kSocketFrameHeaderBytes] = {};
  header[0] = 0xFF;
  header[1] = 0xFF;
  header[2] = 0xFF;
  header[3] = 0x7F;  // ~2 GiB claimed.
  const auto status =
      assembler.feed(header, dd::kSocketFrameHeaderBytes);
  EXPECT_EQ(status.code(), dc::StatusCode::kDataLoss);
}

TEST(SocketTransportFraming, ChecksumMismatchIsDataLoss) {
  const dd::Bytes payload = make_payload(40);
  dd::Bytes framed = dd::frame_payload(payload);
  framed[dd::kSocketFrameHeaderBytes + 11] ^= 0x01;  // Flip a payload bit.
  dd::FrameAssembler assembler;
  const auto status = assembler.feed(framed.data(), framed.size());
  EXPECT_EQ(status.code(), dc::StatusCode::kDataLoss);
}

TEST(SocketTransportFraming, BytesPastCompleteFrameAreDataLoss) {
  const dd::Bytes framed = dd::frame_payload(make_payload(8));
  dd::FrameAssembler assembler;
  ASSERT_TRUE(assembler.feed(framed.data(), framed.size()).ok());
  const std::uint8_t extra = 0xAA;
  EXPECT_EQ(assembler.feed(&extra, 1).code(), dc::StatusCode::kDataLoss);
}

// --------------------------------------------------------------- parsing

TEST(SocketTransportAddress, ParsesTcpAndUnix) {
  auto tcp = dd::parse_socket_address("tcp:127.0.0.1:8080");
  ASSERT_TRUE(tcp.ok());
  EXPECT_EQ(tcp->kind, dd::SocketAddress::Kind::kTcp);
  EXPECT_EQ(tcp->host, "127.0.0.1");
  EXPECT_EQ(tcp->port, 8080);
  EXPECT_EQ(tcp->to_string(), "tcp:127.0.0.1:8080");

  auto unix_addr = dd::parse_socket_address("unix:/tmp/x.sock");
  ASSERT_TRUE(unix_addr.ok());
  EXPECT_EQ(unix_addr->kind, dd::SocketAddress::Kind::kUnix);
  EXPECT_EQ(unix_addr->path, "/tmp/x.sock");
  EXPECT_EQ(unix_addr->to_string(), "unix:/tmp/x.sock");
}

TEST(SocketTransportAddress, RejectsMalformedSpecs) {
  const std::string bad[] = {
      "http://x",        // unknown scheme
      "tcp:127.0.0.1",   // missing port
      "tcp::8080",       // missing host
      "tcp:h:",          // empty port
      "tcp:h:notaport",  // non-numeric port
      "tcp:h:70000",     // port out of range
      "unix:",           // empty path
      "unix:" + std::string(200, 'a'),  // overlong sun_path
  };
  for (const auto& spec : bad) {
    const auto parsed = dd::parse_socket_address(spec);
    ASSERT_FALSE(parsed.ok()) << spec;
    EXPECT_EQ(parsed.status().code(), dc::StatusCode::kInvalidArgument)
        << spec;
  }
}

// ------------------------------------------------------------ round trips

/// One real worker behind a SocketServer, the mini demo model registered,
/// plus a direct (transport-free) golden worker with identical weights.
class SocketTransportTest : public ::testing::Test {
 protected:
  SocketTransportTest()
      : weights_(mini_model_config().unet_config(), /*seed=*/7),
        golden_("golden") {
    register_demo(golden_);
  }

  void register_demo(dd::WorkerNode& node) {
    ASSERT_TRUE(node.service()
                    .models()
                    .register_model("demo", mini_model_config(),
                                    weights_.registry(), {})
                    .ok());
  }

  std::unique_ptr<dd::WorkerNode> make_worker(const std::string& name) {
    ds::ServiceConfig config;
    config.legalize_workers = 2;
    config.max_fused_batch = 8;
    auto node = std::make_unique<dd::WorkerNode>(name, config);
    register_demo(*node);
    return node;
  }

  ds::GenerateRequest demo_request(std::uint64_t seed = 11) {
    ds::GenerateRequest request;
    request.model = "demo";
    request.count = 2;
    request.seed = seed;
    return request;
  }

  diffpattern::unet::UNet weights_;
  dd::WorkerNode golden_;
};

TEST_F(SocketTransportTest, UnixRoundTripMatchesDirectServiceBytes) {
  auto worker = make_worker("w0");
  dd::SocketServer server;
  ASSERT_TRUE(server
                  .start(unique_unix_address("unix_rt"),
                         [&worker](const dd::Bytes& request) {
                           return worker->handle(request);
                         })
                  .ok());

  dd::SocketTransport transport;
  auto channel = transport.connect(server.bound_address());
  const auto request = demo_request();
  auto response = channel->call(dd::encode_generate_request(request));
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  auto decoded = dd::decode_generate_result(response.value());
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();

  auto direct = golden_.service().generate(request);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(same_patterns(decoded->patterns, direct->patterns));

  const auto stats = channel->stats();
  EXPECT_EQ(stats.connects, 1);
  EXPECT_EQ(stats.reconnects, 0);
  EXPECT_GE(server.counters().requests, 1);
}

TEST_F(SocketTransportTest, TcpPortZeroRoundTripAndConnectionReuse) {
  auto worker = make_worker("w0");
  dd::SocketServer server;
  ASSERT_TRUE(server
                  .start("tcp:127.0.0.1:0",
                         [&worker](const dd::Bytes& request) {
                           return worker->handle(request);
                         })
                  .ok());
  // Port 0 must resolve to the kernel-assigned port in bound_address().
  ASSERT_NE(server.bound_address(), "tcp:127.0.0.1:0");

  dd::SocketTransport transport;
  auto channel = transport.connect(server.bound_address());
  for (int i = 0; i < 3; ++i) {
    auto response = channel->call(dd::encode_health_probe());
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    auto health = dd::decode_worker_health(response.value());
    ASSERT_TRUE(health.ok());
    EXPECT_EQ(health->worker, "w0");
  }
  // Three calls, one connection: the channel reuses its socket.
  EXPECT_EQ(channel->stats().connects, 1);
  EXPECT_EQ(server.counters().connections, 1);
}

TEST_F(SocketTransportTest, ConnectRefusedIsUnavailableThenBackoffFailFast) {
  dd::SocketTransportConfig config;
  config.connect_timeout_ms = 200;
  config.backoff_base_ms = 200;
  config.backoff_max_ms = 400;
  dd::SocketTransport transport(config);
  // Nothing listens on this path: ECONNREFUSED/ENOENT territory.
  auto channel = transport.connect(unique_unix_address("refused"));

  auto first = channel->call(dd::encode_health_probe());
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), dc::StatusCode::kUnavailable);

  // Inside the backoff window the channel fails fast — no syscall — and
  // hands back the remaining wait as a structured retry hint.
  auto second = channel->call(dd::encode_health_probe());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), dc::StatusCode::kUnavailable);
  EXPECT_TRUE(second.status().has_retry_after());
  EXPECT_GT(second.status().retry_after_ms(), 0);
}

TEST_F(SocketTransportTest, ReconnectsAfterServerRestart) {
  auto worker = make_worker("w0");
  const std::string address = unique_unix_address("restart");
  auto handler = [&worker](const dd::Bytes& request) {
    return worker->handle(request);
  };
  auto server = std::make_unique<dd::SocketServer>();
  ASSERT_TRUE(server->start(address, handler).ok());

  dd::SocketTransportConfig config;
  config.backoff_base_ms = 1;
  config.backoff_max_ms = 2;
  dd::SocketTransport transport(config);
  auto channel = transport.connect(address);
  ASSERT_TRUE(channel->call(dd::encode_health_probe()).ok());

  server->shutdown();
  // The established connection is gone: the next call fails typed.
  auto torn = channel->call(dd::encode_health_probe());
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), dc::StatusCode::kUnavailable);

  server = std::make_unique<dd::SocketServer>();
  ASSERT_TRUE(server->start(address, handler).ok());
  // Lazy reconnect (past the tiny backoff window) revives the channel.
  dc::Status last = dc::Status::Ok();
  bool recovered = false;
  for (int attempt = 0; attempt < 50 && !recovered; ++attempt) {
    auto retry = channel->call(dd::encode_health_probe());
    recovered = retry.ok();
    if (!retry.ok()) {
      last = retry.status();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(recovered) << last.to_string();
  EXPECT_GE(channel->stats().reconnects, 1);
}

TEST_F(SocketTransportTest, StalledHandlerTripsCallDeadline) {
  dd::SocketServer server;
  ASSERT_TRUE(server
                  .start(unique_unix_address("stall"),
                         [](const dd::Bytes&) {
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(1500));
                           return dd::encode_health_probe();
                         })
                  .ok());
  dd::SocketTransportConfig config;
  config.call_timeout_ms = 150;
  dd::SocketTransport transport(config);
  auto channel = transport.connect(server.bound_address());
  const auto started = std::chrono::steady_clock::now();
  auto response = channel->call(dd::encode_health_probe());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - started)
                           .count();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), dc::StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 1200);  // Deadline, not the handler, bounded the wait.
}

TEST_F(SocketTransportTest, OversizedResponseIsDataLoss) {
  dd::SocketServer server;  // Server side allows the large response...
  ASSERT_TRUE(server
                  .start(unique_unix_address("bigresp"),
                         [](const dd::Bytes&) {
                           return dd::Bytes(8192, 0x5A);
                         })
                  .ok());
  dd::SocketTransportConfig config;
  config.max_frame_bytes = 1024;  // ...the client's bound rejects it.
  dd::SocketTransport transport(config);
  auto channel = transport.connect(server.bound_address());
  auto response = channel->call(dd::encode_health_probe());
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), dc::StatusCode::kDataLoss);
}

TEST_F(SocketTransportTest, ServerRejectsOversizedRequest) {
  std::atomic<int> handled{0};
  dd::SocketServerConfig server_cfg;
  server_cfg.max_frame_bytes = 1024;
  dd::SocketServer server(server_cfg);
  ASSERT_TRUE(server
                  .start(unique_unix_address("bigreq"),
                         [&handled](const dd::Bytes&) {
                           handled.fetch_add(1);
                           return dd::encode_health_probe();
                         })
                  .ok());
  dd::SocketTransport transport;
  auto channel = transport.connect(server.bound_address());
  // The hostile frame is refused at the server's header check — the
  // handler never runs, the connection drops, the client sees a typed
  // failure (never a hang).
  auto response = channel->call(dd::Bytes(8192, 0x5A));
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().code() == dc::StatusCode::kUnavailable ||
              response.status().code() == dc::StatusCode::kDataLoss)
      << response.status().to_string();
  EXPECT_EQ(handled.load(), 0);
  EXPECT_GE(server.counters().read_errors, 1);
}

TEST_F(SocketTransportTest, GracefulShutdownDrainsInFlightCall) {
  std::atomic<bool> entered{false};
  dd::SocketServer server;
  ASSERT_TRUE(server
                  .start(unique_unix_address("drain"),
                         [&entered](const dd::Bytes& request) {
                           entered.store(true);
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(300));
                           return dd::frame_payload(request);  // Any bytes.
                         })
                  .ok());
  dd::SocketTransport transport;
  auto channel = transport.connect(server.bound_address());
  dc::Result<dd::Bytes> response = dc::Status::Internal("not called");
  std::thread caller([&] {
    response = channel->call(dd::Bytes{1, 2, 3});
  });
  while (!entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Shutdown lands mid-handler: the in-flight request must complete and
  // its response must reach the caller before the connection closes.
  server.shutdown();
  caller.join();
  ASSERT_TRUE(response.ok()) << response.status().to_string();
}

// ------------------------------------------------------- resolver / IPv6

TEST(SocketTransportAddress, ParsesBracketedIpv6) {
  auto v6 = dd::parse_socket_address("tcp:[::1]:7070");
  ASSERT_TRUE(v6.ok()) << v6.status().to_string();
  EXPECT_EQ(v6->kind, dd::SocketAddress::Kind::kTcp);
  EXPECT_EQ(v6->host, "::1");  // Brackets stripped in the parsed host...
  EXPECT_EQ(v6->port, 7070);
  EXPECT_EQ(v6->to_string(), "tcp:[::1]:7070");  // ...re-added printing.

  auto full = dd::parse_socket_address("tcp:[fe80::aa:1]:9");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->host, "fe80::aa:1");
  EXPECT_EQ(full->port, 9);
}

TEST(SocketTransportAddress, RejectsMalformedBrackets) {
  const std::string bad[] = {
      "tcp:[::1]",      // no port after the bracket
      "tcp:[::1]8080",  // missing ':' between bracket and port
      "tcp:[::1:8080",  // unterminated bracket
      "tcp:[]:8080",    // empty host
  };
  for (const auto& spec : bad) {
    const auto parsed = dd::parse_socket_address(spec);
    ASSERT_FALSE(parsed.ok()) << spec;
    EXPECT_EQ(parsed.status().code(), dc::StatusCode::kInvalidArgument)
        << spec;
  }
}

/// "tcp:HOST:PORT" → PORT (the tests re-dial a bound server by hostname).
std::uint16_t port_of(const std::string& bound_address) {
  const auto colon = bound_address.rfind(':');
  return static_cast<std::uint16_t>(
      std::stoi(bound_address.substr(colon + 1)));
}

TEST_F(SocketTransportTest, HostnameResolvesThroughGetaddrinfo) {
  auto worker = make_worker("w0");
  dd::SocketServer server;
  ASSERT_TRUE(server
                  .start("tcp:127.0.0.1:0",
                         [&worker](const dd::Bytes& request) {
                           return worker->handle(request);
                         })
                  .ok());
  dd::SocketTransport transport;
  // Dial by NAME, not numeric literal — the old inet_pton-only resolver
  // rejected this with "not a numeric IPv4 host".
  auto channel = transport.connect(
      "tcp:localhost:" + std::to_string(port_of(server.bound_address())));
  auto response = channel->call(dd::encode_health_probe());
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  auto health = dd::decode_worker_health(response.value());
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->worker, "w0");
}

TEST(SocketTransportChannel, UnresolvableHostIsInvalidArgument) {
  dd::SocketTransport transport;
  // RFC 6761 reserves .invalid: guaranteed NXDOMAIN, no network needed.
  auto channel = transport.connect("tcp:no-such-host.invalid:1");
  auto response = channel->call(dd::encode_health_probe());
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), dc::StatusCode::kInvalidArgument)
      << response.status().to_string();
}

TEST_F(SocketTransportTest, Ipv6LoopbackRoundTrip) {
  auto worker = make_worker("w6");
  dd::SocketServer server;
  const auto started = server.start(
      "tcp:[::1]:0", [&worker](const dd::Bytes& request) {
        return worker->handle(request);
      });
  if (!started.ok()) {
    GTEST_SKIP() << "IPv6 loopback unavailable: " << started.to_string();
  }
  EXPECT_NE(server.bound_address().find("tcp:[::1]:"), std::string::npos)
      << server.bound_address();
  dd::SocketTransport transport;
  auto channel = transport.connect(server.bound_address());
  auto response = channel->call(dd::encode_health_probe());
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  auto health = dd::decode_worker_health(response.value());
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->worker, "w6");
}

// -------------------------------------------------- authenticated framing

TEST(SocketTransportAuth, KeyedFramingRoundTripsEverySplit) {
  const dd::Bytes payload = make_payload(61);
  const dd::Bytes framed = dd::frame_payload(payload, "sesame");
  ASSERT_EQ(framed.size(), payload.size() + dd::kSocketAuthFrameHeaderBytes);
  for (std::size_t split = 1; split < framed.size(); ++split) {
    dd::FrameAssembler assembler(dd::kDefaultMaxFrameBytes, "sesame");
    ASSERT_TRUE(assembler.feed(framed.data(), split).ok())
        << "split at byte " << split;
    ASSERT_TRUE(
        assembler.feed(framed.data() + split, framed.size() - split).ok())
        << "split at byte " << split;
    ASSERT_TRUE(assembler.complete()) << "split at byte " << split;
    EXPECT_EQ(assembler.take(), payload) << "split at byte " << split;
  }
}

TEST(SocketTransportAuth, CorruptionIsDataLossNotAuthFailure) {
  // The unkeyed checksum is verified before the tag, so a flipped payload
  // bit stays DATA_LOSS — corruption and intrusion are distinct signals.
  const dd::Bytes payload = make_payload(40);
  dd::Bytes framed = dd::frame_payload(payload, "sesame");
  framed[dd::kSocketAuthFrameHeaderBytes + 7] ^= 0x01;
  dd::FrameAssembler assembler(dd::kDefaultMaxFrameBytes, "sesame");
  EXPECT_EQ(assembler.feed(framed.data(), framed.size()).code(),
            dc::StatusCode::kDataLoss);
}

TEST(SocketTransportAuth, TamperedTagIsPermissionDenied) {
  const dd::Bytes payload = make_payload(40);
  dd::Bytes framed = dd::frame_payload(payload, "sesame");
  framed[dd::kSocketFrameHeaderBytes] ^= 0x01;  // First tag byte.
  dd::FrameAssembler assembler(dd::kDefaultMaxFrameBytes, "sesame");
  EXPECT_EQ(assembler.feed(framed.data(), framed.size()).code(),
            dc::StatusCode::kPermissionDenied);
}

TEST(SocketTransportAuth, ModeMismatchDetectedAtLengthWord) {
  // A plaintext frame fed to a keyed assembler (and vice versa) is refused
  // the moment the 4-byte length word completes — no stall waiting for a
  // tag that will never arrive, no payload byte ever buffered.
  const dd::Bytes plain = dd::frame_payload(make_payload(8));
  dd::FrameAssembler keyed(dd::kDefaultMaxFrameBytes, "sesame");
  EXPECT_EQ(keyed.feed(plain.data(), 4).code(),
            dc::StatusCode::kPermissionDenied);

  const dd::Bytes authed = dd::frame_payload(make_payload(8), "sesame");
  dd::FrameAssembler plaintext;
  EXPECT_EQ(plaintext.feed(authed.data(), 4).code(),
            dc::StatusCode::kPermissionDenied);
}

TEST_F(SocketTransportTest, AuthRoundTripWithSharedKey) {
  auto worker = make_worker("w0");
  dd::SocketServerConfig server_cfg;
  server_cfg.auth_key = "shared-secret";
  dd::SocketServer server(server_cfg);
  ASSERT_TRUE(server
                  .start(unique_unix_address("auth_ok"),
                         [&worker](const dd::Bytes& request) {
                           return worker->handle(request);
                         })
                  .ok());
  dd::SocketTransportConfig config;
  config.auth_key = "shared-secret";
  dd::SocketTransport transport(config);
  auto channel = transport.connect(server.bound_address());
  const auto request = demo_request();
  auto response = channel->call(dd::encode_generate_request(request));
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  auto decoded = dd::decode_generate_result(response.value());
  ASSERT_TRUE(decoded.ok());
  auto direct = golden_.service().generate(request);
  ASSERT_TRUE(direct.ok());
  // Auth wraps the frame; the payload bytes are untouched by the tag.
  EXPECT_TRUE(same_patterns(decoded->patterns, direct->patterns));
  EXPECT_EQ(server.counters().auth_failures, 0);
}

TEST_F(SocketTransportTest, WrongKeyRejectedTypedBeforeDecode) {
  std::atomic<int> handled{0};
  dd::SocketServerConfig server_cfg;
  server_cfg.auth_key = "right-key";
  dd::SocketServer server(server_cfg);
  ASSERT_TRUE(server
                  .start(unique_unix_address("auth_wrong"),
                         [&handled](const dd::Bytes&) {
                           handled.fetch_add(1);
                           return dd::encode_health_probe();
                         })
                  .ok());
  dd::SocketTransportConfig config;
  config.auth_key = "wrong-key";
  dd::SocketTransport transport(config);
  auto channel = transport.connect(server.bound_address());
  auto response = channel->call(dd::encode_health_probe());
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), dc::StatusCode::kPermissionDenied)
      << response.status().to_string();
  EXPECT_EQ(handled.load(), 0);  // Handler never saw the frame.
  EXPECT_GE(server.counters().auth_failures, 1);
}

TEST_F(SocketTransportTest, MissingTagRejectedBothDirections) {
  std::atomic<int> handled{0};
  auto handler = [&handled](const dd::Bytes&) {
    handled.fetch_add(1);
    return dd::encode_health_probe();
  };
  // Plaintext client → authed server.
  dd::SocketServerConfig authed_cfg;
  authed_cfg.auth_key = "sesame";
  dd::SocketServer authed(authed_cfg);
  ASSERT_TRUE(authed.start(unique_unix_address("auth_miss_a"), handler).ok());
  dd::SocketTransport plain_transport;
  auto to_authed = plain_transport.connect(authed.bound_address());
  auto a = to_authed->call(dd::encode_health_probe());
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), dc::StatusCode::kPermissionDenied)
      << a.status().to_string();
  EXPECT_GE(authed.counters().auth_failures, 1);

  // Authed client → plaintext server.
  dd::SocketServer plain;
  ASSERT_TRUE(plain.start(unique_unix_address("auth_miss_b"), handler).ok());
  dd::SocketTransportConfig keyed_cfg;
  keyed_cfg.auth_key = "sesame";
  dd::SocketTransport keyed_transport(keyed_cfg);
  auto to_plain = keyed_transport.connect(plain.bound_address());
  auto b = to_plain->call(dd::encode_health_probe());
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), dc::StatusCode::kPermissionDenied)
      << b.status().to_string();
  EXPECT_EQ(handled.load(), 0);
}

// -------------------------------------------------------- connection pool

TEST_F(SocketTransportTest, PooledCallsOverlapOnSeparateConnections) {
  dd::SocketServer server;
  ASSERT_TRUE(server
                  .start(unique_unix_address("pool"),
                         [](const dd::Bytes& request) {
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(60));
                           return request;
                         })
                  .ok());
  dd::SocketTransportConfig config;
  config.max_connections = 4;
  dd::SocketTransport transport(config);
  auto channel = transport.connect(server.bound_address());
  std::vector<std::thread> callers;
  std::atomic<int> ok{0};
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&channel, &ok] {
      if (channel->call(dd::encode_health_probe()).ok()) {
        ok.fetch_add(1);
      }
    });
  }
  for (auto& t : callers) {
    t.join();
  }
  EXPECT_EQ(ok.load(), 4);
  // Concurrent callers dialed extra pool slots instead of serializing.
  EXPECT_GE(channel->stats().pool_peak, 2);
  EXPECT_GE(server.counters().connections, 2);
  EXPECT_LE(server.counters().connections, 4);
}

TEST_F(SocketTransportTest, PoolOfOneSerializesOnSingleConnection) {
  dd::SocketServer server;
  ASSERT_TRUE(server
                  .start(unique_unix_address("pool1"),
                         [](const dd::Bytes& request) {
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(20));
                           return request;
                         })
                  .ok());
  dd::SocketTransportConfig config;
  config.max_connections = 1;  // The pre-pool serialized behavior.
  dd::SocketTransport transport(config);
  auto channel = transport.connect(server.bound_address());
  std::vector<std::thread> callers;
  std::atomic<int> ok{0};
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&channel, &ok] {
      if (channel->call(dd::encode_health_probe()).ok()) {
        ok.fetch_add(1);
      }
    });
  }
  for (auto& t : callers) {
    t.join();
  }
  EXPECT_EQ(ok.load(), 4);
  EXPECT_EQ(channel->stats().pool_peak, 1);
  EXPECT_EQ(server.counters().connections, 1);
}

// ----------------------------------------- server resource-leak hardening

TEST_F(SocketTransportTest, FinishedConnectionThreadsAreReaped) {
  dd::SocketServer server;
  ASSERT_TRUE(server
                  .start(unique_unix_address("reap"),
                         [](const dd::Bytes& request) { return request; })
                  .ok());
  constexpr int kConnections = 40;
  for (int i = 0; i < kConnections; ++i) {
    // A fresh transport per iteration: connect, one call, disconnect.
    dd::SocketTransport transport;
    auto channel = transport.connect(server.bound_address());
    ASSERT_TRUE(channel->call(dd::encode_health_probe()).ok());
  }
  // Give the last few handler threads a moment to observe their EOF, then
  // trigger one more accept (reaping happens in the accept loop).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  dd::SocketTransport transport;
  auto channel = transport.connect(server.bound_address());
  ASSERT_TRUE(channel->call(dd::encode_health_probe()).ok());
  // The regression: before reaping, every one of the 41 connections left a
  // joinable thread in the server until shutdown. Now only the live tail
  // remains.
  EXPECT_LE(server.live_connection_threads(), 3u);
  EXPECT_EQ(server.counters().connections, kConnections + 1);
}

TEST_F(SocketTransportTest, AcceptCapShedsExcessConnections) {
  std::atomic<bool> entered{false};
  dd::SocketServerConfig server_cfg;
  server_cfg.max_connections = 1;
  dd::SocketServer server(server_cfg);
  ASSERT_TRUE(server
                  .start(unique_unix_address("cap"),
                         [&entered](const dd::Bytes& request) {
                           entered.store(true);
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(400));
                           return request;
                         })
                  .ok());
  dd::SocketTransport transport;
  auto first = transport.connect(server.bound_address());
  dc::Result<dd::Bytes> first_response = dc::Status::Internal("not called");
  std::thread holder([&] {
    first_response = first->call(dd::encode_health_probe());
  });
  while (!entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The slot is occupied: the second connection is accepted and closed
  // immediately — a typed UNAVAILABLE for the client, a shed for the
  // counters, and no thread or fd held for it.
  dd::SocketTransport second_transport;
  auto second = second_transport.connect(server.bound_address());
  auto shed = second->call(dd::encode_health_probe());
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), dc::StatusCode::kUnavailable)
      << shed.status().to_string();
  holder.join();
  ASSERT_TRUE(first_response.ok()) << first_response.status().to_string();
  EXPECT_GE(server.counters().connections_shed, 1);
  EXPECT_EQ(server.counters().connections, 1);
}

TEST(SocketTransportChannel, MalformedAddressFailsTyped) {
  dd::SocketTransport transport;
  auto channel = transport.connect("bogus-address");
  auto response = channel->call(dd::encode_health_probe());
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), dc::StatusCode::kInvalidArgument);
}

TEST(SocketTransportServer, StartOnMalformedAddressFails) {
  dd::SocketServer server;
  const auto status = server.start("nope", [](const dd::Bytes& b) {
    return b;
  });
  EXPECT_EQ(status.code(), dc::StatusCode::kInvalidArgument);
}

}  // namespace

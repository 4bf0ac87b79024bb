// Wire-protocol tests: byte-exact round trips for every message type plus
// robustness against hostile buffers. The contract under attack: decoding
// never throws, never reads out of bounds, and answers structural
// corruption with DATA_LOSS and semantic problems with INVALID_ARGUMENT —
// a corrupt frame is an error value, not UB.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/status.h"
#include "dist/wire.h"
#include "geometry/grid.h"
#include "layout/squish.h"

namespace dd = diffpattern::dist;
namespace dc = diffpattern::common;
namespace ds = diffpattern::service;
namespace dg = diffpattern::geometry;

namespace {

/// A small non-trivial pattern: 2x3 checkerboard-ish topology with
/// distinctive deltas so a byte got lost would show.
diffpattern::layout::SquishPattern sample_pattern(std::int64_t salt) {
  diffpattern::layout::SquishPattern p;
  dg::BinaryGrid grid(2, 3);
  grid.set(0, 0, 1);
  grid.set(0, 2, 1);
  grid.set(1, 1, 1);
  p.topology = grid;
  p.dx = {10 + salt, 20 + salt, 30 + salt};
  p.dy = {40 + salt, 50 + salt};
  return p;
}

// The sample_* messages below feed the round trips and the pinned golden
// frames. Within each message every field holds a distinct non-default
// value, so a swapped or dropped field changes the bytes.

ds::GenerateStats sample_stats() {
  ds::GenerateStats stats;
  stats.topologies_requested = 9;
  stats.topologies_admitted = 4;
  stats.degraded = true;
  stats.prefilter_rejected = 1;
  stats.solver_rejected = 2;
  stats.solver_rounds = 3;
  stats.sampling_seconds = 0.125;
  stats.solving_seconds = 2.5;
  stats.fused_batch_slots = 12;
  stats.sampling_stride = 5;
  stats.steps_run = 8;
  stats.net_evals = 11;
  return stats;
}

ds::GenerateRequest sample_request() {
  ds::GenerateRequest request;
  request.model = "golden-model";
  request.count = 17;
  request.geometries_per_topology = 3;
  request.rule_set = "space";
  request.seed = 0xDEADBEEFCAFEF00DULL;
  request.priority = -2;
  request.deadline_ms = 750;
  request.allow_degrade = true;
  request.sampling.steps = 40;
  request.sampling.stride = 6;
  return request;
}

ds::GenerateResult sample_result() {
  ds::GenerateResult result;
  result.patterns = {sample_pattern(0), sample_pattern(100)};
  result.stats = sample_stats();
  return result;
}

ds::StreamedPattern sample_slot() {
  ds::StreamedPattern slot;
  slot.index = 5;
  slot.legal = true;
  slot.prefiltered = true;
  slot.patterns = {sample_pattern(3)};
  return slot;
}

dd::WorkerHealth sample_health() {
  dd::WorkerHealth health;
  health.worker = "worker-2";
  health.admission_pending = 3;
  health.fused_fill_ratio = 0.875;
  return health;
}

/// Every GenerateStats field survived the wire.
void expect_same_stats(const ds::GenerateStats& a, const ds::GenerateStats& b) {
  EXPECT_EQ(a.topologies_requested, b.topologies_requested);
  EXPECT_EQ(a.topologies_admitted, b.topologies_admitted);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.prefilter_rejected, b.prefilter_rejected);
  EXPECT_EQ(a.solver_rejected, b.solver_rejected);
  EXPECT_EQ(a.solver_rounds, b.solver_rounds);
  EXPECT_DOUBLE_EQ(a.sampling_seconds, b.sampling_seconds);
  EXPECT_DOUBLE_EQ(a.solving_seconds, b.solving_seconds);
  EXPECT_EQ(a.fused_batch_slots, b.fused_batch_slots);
  EXPECT_EQ(a.sampling_stride, b.sampling_stride);
  EXPECT_EQ(a.steps_run, b.steps_run);
  EXPECT_EQ(a.net_evals, b.net_evals);
}

void expect_same_pattern(const diffpattern::layout::SquishPattern& a,
                         const diffpattern::layout::SquishPattern& b) {
  EXPECT_TRUE(a.topology == b.topology);
  EXPECT_EQ(a.dx, b.dx);
  EXPECT_EQ(a.dy, b.dy);
}

// --------------------------------------------------------- round trips

TEST(DistWire, GenerateRequestRoundTrip) {
  const auto request = sample_request();
  const auto frame = dd::encode_generate_request(request);
  ASSERT_EQ(dd::peek_type(frame).value(), dd::MessageType::kGenerateRequest);
  const auto decoded = dd::decode_generate_request(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->model, request.model);
  EXPECT_EQ(decoded->count, request.count);
  EXPECT_EQ(decoded->geometries_per_topology,
            request.geometries_per_topology);
  EXPECT_EQ(decoded->rule_set, request.rule_set);
  EXPECT_EQ(decoded->seed, request.seed);
  EXPECT_EQ(decoded->priority, request.priority);
  EXPECT_EQ(decoded->deadline_ms, request.deadline_ms);
  EXPECT_EQ(decoded->allow_degrade, request.allow_degrade);
  EXPECT_EQ(decoded->sampling.steps, request.sampling.steps);
  EXPECT_EQ(decoded->sampling.stride, request.sampling.stride);

  // The streaming tag carries the identical payload and decodes through the
  // same function (the worker peeks the tag to dispatch).
  const auto stream_frame = dd::encode_generate_request(
      request, dd::MessageType::kGenerateStreamRequest);
  ASSERT_EQ(dd::peek_type(stream_frame).value(),
            dd::MessageType::kGenerateStreamRequest);
  const auto stream_decoded = dd::decode_generate_request(stream_frame);
  ASSERT_TRUE(stream_decoded.ok());
  EXPECT_EQ(stream_decoded->seed, request.seed);
}

TEST(DistWire, EncodingIsDeterministic) {
  ds::GenerateRequest request;
  request.model = "m";
  request.seed = 42;
  EXPECT_EQ(dd::encode_generate_request(request),
            dd::encode_generate_request(request));

  ds::GenerateResult result;
  result.patterns = {sample_pattern(0), sample_pattern(7)};
  result.stats = sample_stats();
  EXPECT_EQ(dd::encode_generate_result(result),
            dd::encode_generate_result(result));
}

TEST(DistWire, GenerateResultRoundTrip) {
  const auto result = sample_result();

  const auto decoded =
      dd::decode_generate_result(dd::encode_generate_result(result));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  ASSERT_EQ(decoded->patterns.size(), 2U);
  expect_same_pattern(decoded->patterns[0], result.patterns[0]);
  expect_same_pattern(decoded->patterns[1], result.patterns[1]);
  expect_same_stats(decoded->stats, result.stats);
}

TEST(DistWire, EmptyResultRoundTrip) {
  const auto decoded =
      dd::decode_generate_result(dd::encode_generate_result({}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->patterns.empty());
  EXPECT_EQ(decoded->stats.topologies_requested, 0);
}

TEST(DistWire, StreamedPatternRoundTrip) {
  auto slot = sample_slot();
  for (const bool prefiltered : {true, false}) {
    slot.prefiltered = prefiltered;
    const auto decoded =
        dd::decode_streamed_pattern(dd::encode_streamed_pattern(slot));
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    EXPECT_EQ(decoded->index, slot.index);
    EXPECT_EQ(decoded->legal, slot.legal);
    EXPECT_EQ(decoded->prefiltered, prefiltered);
    ASSERT_EQ(decoded->patterns.size(), 1U);
    expect_same_pattern(decoded->patterns[0], slot.patterns[0]);
  }
}

TEST(DistWire, StatusRoundTripKeepsRetryHint) {
  const auto shed =
      dc::Status::Unavailable("shard overloaded").with_retry_after(35);
  const auto decoded = dd::decode_status(dd::encode_status(shed));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->status.code(), dc::StatusCode::kUnavailable);
  EXPECT_EQ(decoded->status.message(), "shard overloaded");
  EXPECT_TRUE(decoded->status.has_retry_after());
  EXPECT_EQ(decoded->status.retry_after_ms(), 35);

  // A hint-free status stays hint-free through the wire.
  const auto plain = dd::decode_status(
      dd::encode_status(dc::Status::NotFound("no such model")));
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->status.has_retry_after());
}

TEST(DistWire, WorkerHealthRoundTrip) {
  const auto health = sample_health();
  const auto decoded =
      dd::decode_worker_health(dd::encode_worker_health(health));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->worker, health.worker);
  EXPECT_EQ(decoded->admission_pending, health.admission_pending);
  EXPECT_DOUBLE_EQ(decoded->fused_fill_ratio, health.fused_fill_ratio);
}

TEST(DistWire, StreamEndRoundTrip) {
  const auto end_status =
      dc::Status::ResourceExhausted("window full").with_retry_after(12);
  const auto decoded =
      dd::decode_stream_end(dd::encode_stream_end(end_status, sample_stats()));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->status.code(), dc::StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded->status.retry_after_ms(), 12);
  EXPECT_EQ(decoded->status.message(), "window full");
  expect_same_stats(decoded->stats, sample_stats());
}

TEST(DistWire, HealthProbeRoundTrip) {
  const auto probe = dd::encode_health_probe();
  EXPECT_EQ(probe.size(), dd::kFrameHeaderBytes);  // Empty payload.
  EXPECT_EQ(dd::peek_type(probe).value(), dd::MessageType::kHealthProbe);
}

TEST(DistWire, SplitFramesSeparatesAStreamingResponse) {
  ds::StreamedPattern slot;
  slot.index = 0;
  slot.legal = true;
  slot.patterns = {sample_pattern(1)};
  dd::Bytes buffer = dd::encode_streamed_pattern(slot);
  slot.index = 1;
  const auto second = dd::encode_streamed_pattern(slot);
  buffer.insert(buffer.end(), second.begin(), second.end());
  const auto end = dd::encode_stream_end(dc::Status::Ok(), sample_stats());
  buffer.insert(buffer.end(), end.begin(), end.end());

  const auto frames = dd::split_frames(buffer);
  ASSERT_TRUE(frames.ok()) << frames.status().to_string();
  ASSERT_EQ(frames->size(), 3U);
  EXPECT_EQ(dd::peek_type((*frames)[0]).value(),
            dd::MessageType::kStreamedPattern);
  EXPECT_EQ(dd::peek_type((*frames)[2]).value(), dd::MessageType::kStreamEnd);
  EXPECT_EQ(dd::decode_streamed_pattern((*frames)[1])->index, 1);
}

// ----------------------------------------------------- hostile buffers

TEST(DistWire, EveryTruncationPrefixIsATypedError) {
  // Chop a real frame at every possible length: each prefix must decode to
  // a typed error (never throw, never read past the end — the asan-ubsan CI
  // job turns a violation into a hard failure).
  ds::GenerateResult result;
  result.patterns = {sample_pattern(0)};
  result.stats = sample_stats();
  const auto frame = dd::encode_generate_result(result);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const dd::Bytes prefix(frame.begin(),
                           frame.begin() + static_cast<std::ptrdiff_t>(len));
    const auto decoded = dd::decode_generate_result(prefix);
    ASSERT_FALSE(decoded.ok()) << "prefix length " << len;
    ASSERT_EQ(decoded.status().code(), dc::StatusCode::kDataLoss)
        << "prefix length " << len << ": " << decoded.status().to_string();
  }
}

TEST(DistWire, TruncatedRequestAndStatusFramesAreDataLoss) {
  ds::GenerateRequest request;
  request.model = "m";
  const auto req_frame = dd::encode_generate_request(request);
  for (std::size_t len = 0; len < req_frame.size(); ++len) {
    const dd::Bytes prefix(
        req_frame.begin(), req_frame.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_EQ(dd::decode_generate_request(prefix).status().code(),
              dc::StatusCode::kDataLoss);
  }
  const auto status_frame =
      dd::encode_status(dc::Status::Unavailable("x").with_retry_after(5));
  for (std::size_t len = 0; len < status_frame.size(); ++len) {
    const dd::Bytes prefix(status_frame.begin(),
                           status_frame.begin() +
                               static_cast<std::ptrdiff_t>(len));
    EXPECT_EQ(dd::decode_status(prefix).status().code(),
              dc::StatusCode::kDataLoss);
  }
}

TEST(DistWire, BadMagicIsDataLoss) {
  auto frame = dd::encode_health_probe();
  frame[0] ^= 0xFF;
  EXPECT_EQ(dd::peek_type(frame).status().code(), dc::StatusCode::kDataLoss);
}

TEST(DistWire, UnsupportedVersionIsInvalidArgument) {
  auto frame = dd::encode_health_probe();
  frame[4] = 0x63;  // version 99.
  const auto peeked = dd::peek_type(frame);
  EXPECT_EQ(peeked.status().code(), dc::StatusCode::kInvalidArgument);
  frame[4] = 0x01;  // version 1: retired by the v2 bump.
  EXPECT_EQ(dd::peek_type(frame).status().code(),
            dc::StatusCode::kInvalidArgument);
}

TEST(DistWire, UnknownMessageTypeIsInvalidArgument) {
  auto frame = dd::encode_health_probe();
  frame[6] = 0x2A;  // type 42: outside the enum.
  EXPECT_EQ(dd::peek_type(frame).status().code(),
            dc::StatusCode::kInvalidArgument);
  frame[6] = 0x00;  // type 0: below the enum.
  EXPECT_EQ(dd::peek_type(frame).status().code(),
            dc::StatusCode::kInvalidArgument);
  frame[6] = 0x09;  // type 9: the retired v1 self-announce.
  EXPECT_EQ(dd::peek_type(frame).status().code(),
            dc::StatusCode::kInvalidArgument);
}

TEST(DistWire, WrongTypePayloadIsInvalidArgument) {
  // A well-formed status frame handed to the result decoder (and vice
  // versa) must answer with a typed error, not misinterpret the payload.
  const auto status_frame = dd::encode_status(dc::Status::Internal("boom"));
  EXPECT_EQ(dd::decode_generate_result(status_frame).status().code(),
            dc::StatusCode::kInvalidArgument);
  const auto result_frame = dd::encode_generate_result({});
  EXPECT_EQ(dd::decode_status(result_frame).status().code(),
            dc::StatusCode::kInvalidArgument);
  EXPECT_EQ(dd::decode_worker_health(result_frame).status().code(),
            dc::StatusCode::kInvalidArgument);
  EXPECT_EQ(dd::decode_stream_end(result_frame).status().code(),
            dc::StatusCode::kInvalidArgument);
}

TEST(DistWire, OverlongNameIsInvalidArgumentNotAllocation) {
  // A model name longer than the decoder's cap is rejected semantically —
  // the length prefix is validated before any byte is consumed.
  ds::GenerateRequest request;
  request.model = std::string(dd::kMaxNameBytes + 1, 'x');
  const auto frame = dd::encode_generate_request(request);
  EXPECT_EQ(dd::decode_generate_request(frame).status().code(),
            dc::StatusCode::kInvalidArgument);

  // At exactly the cap it still round-trips.
  request.model = std::string(dd::kMaxNameBytes, 'x');
  const auto ok = dd::decode_generate_request(
      dd::encode_generate_request(request));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->model.size(), dd::kMaxNameBytes);
}

TEST(DistWire, HostileLengthPrefixCannotDriveAllocation) {
  // Patch the request's model-name length to 0xFFFFFFFF: the decoder must
  // notice the buffer cannot hold it BEFORE allocating.
  ds::GenerateRequest request;
  request.model = "m";
  auto frame = dd::encode_generate_request(request);
  for (int i = 0; i < 4; ++i) {
    frame[dd::kFrameHeaderBytes + static_cast<std::size_t>(i)] = 0xFF;
  }
  const auto decoded = dd::decode_generate_request(frame);
  ASSERT_FALSE(decoded.ok());
  // 4G exceeds the name cap -> semantic rejection fires first; either typed
  // error is acceptable, UB is not.
  EXPECT_TRUE(decoded.status().code() == dc::StatusCode::kInvalidArgument ||
              decoded.status().code() == dc::StatusCode::kDataLoss);
}

TEST(DistWire, HostilePatternCountIsDataLoss) {
  // An empty result frame whose pattern count claims 2^32-1 entries: the
  // count-vs-remaining check rejects it before the reserve.
  auto frame = dd::encode_generate_result({});
  for (int i = 0; i < 4; ++i) {
    frame[dd::kFrameHeaderBytes + static_cast<std::size_t>(i)] = 0xFF;
  }
  EXPECT_EQ(dd::decode_generate_result(frame).status().code(),
            dc::StatusCode::kDataLoss);
}

TEST(DistWire, HostilePatternDimensionsAreDataLoss) {
  // One pattern claiming 65535x65535 cells inside a tiny payload.
  ds::GenerateResult result;
  result.patterns = {sample_pattern(0)};
  auto frame = dd::encode_generate_result(result);
  // Rows field sits right after the 4-byte pattern count.
  const std::size_t rows_at = dd::kFrameHeaderBytes + 4;
  for (std::size_t i = 0; i < 8; ++i) {
    frame[rows_at + i] = 0xFF;
  }
  EXPECT_EQ(dd::decode_generate_result(frame).status().code(),
            dc::StatusCode::kDataLoss);
}

TEST(DistWire, NonBinaryTopologyCellIsDataLoss) {
  ds::GenerateResult result;
  result.patterns = {sample_pattern(0)};
  auto frame = dd::encode_generate_result(result);
  // First cell byte: after pattern count (4) and rows/cols (8).
  frame[dd::kFrameHeaderBytes + 12] = 7;
  EXPECT_EQ(dd::decode_generate_result(frame).status().code(),
            dc::StatusCode::kDataLoss);
}

TEST(DistWire, UnknownStatusCodeIsInvalidArgument) {
  auto frame = dd::encode_status(dc::Status::Ok());
  frame[dd::kFrameHeaderBytes] = 0x77;  // Code 119: not a StatusCode.
  EXPECT_EQ(dd::decode_status(frame).status().code(),
            dc::StatusCode::kInvalidArgument);
}

TEST(DistWire, TrailingBytesAreDataLoss) {
  // Bytes past the declared payload inside a single-frame decode are
  // structural corruption (a streaming *buffer* uses split_frames instead).
  auto frame = dd::encode_status(dc::Status::Ok());
  frame.push_back(0x00);
  EXPECT_EQ(dd::decode_status(frame).status().code(),
            dc::StatusCode::kDataLoss);
  // Either request tag: the streaming one is structural corruption too,
  // not a wrong frame type.
  for (const auto type : {dd::MessageType::kGenerateRequest,
                          dd::MessageType::kGenerateStreamRequest}) {
    auto request = dd::encode_generate_request({}, type);
    request.push_back(0x00);
    EXPECT_EQ(dd::decode_generate_request(request).status().code(),
              dc::StatusCode::kDataLoss);
  }

  // Payload-internal padding is caught too: grow the payload and patch the
  // header length to match, so only the exhaustion check can notice.
  auto padded = dd::encode_status(dc::Status::Ok());
  padded.push_back(0x00);
  const auto payload =
      static_cast<std::uint32_t>(padded.size() - dd::kFrameHeaderBytes);
  for (int i = 0; i < 4; ++i) {
    padded[8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((payload >> (8 * i)) & 0xFF);
  }
  EXPECT_EQ(dd::decode_status(padded).status().code(),
            dc::StatusCode::kDataLoss);
}

TEST(DistWire, SplitFramesRejectsTrailingGarbage) {
  auto buffer = dd::encode_health_probe();
  buffer.push_back(0x42);  // Not even a full header.
  EXPECT_EQ(dd::split_frames(buffer).status().code(),
            dc::StatusCode::kDataLoss);
}

TEST(DistWire, EmptyAndGarbageBuffersAreTypedErrors) {
  EXPECT_EQ(dd::peek_type({}).status().code(), dc::StatusCode::kDataLoss);
  dd::Bytes garbage(64, 0xA5);
  EXPECT_EQ(dd::peek_type(garbage).status().code(),
            dc::StatusCode::kDataLoss);
  EXPECT_EQ(dd::decode_generate_request(garbage).status().code(),
            dc::StatusCode::kDataLoss);
  // An empty buffer splits into zero frames (a valid empty stream body
  // never occurs, but the function is total).
  const auto empty = dd::split_frames({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

/// One fixed instance of every frame type (the streaming-request tag
/// included, plus a hint-free status).
std::vector<dd::Bytes> golden_frames() {
  return {
      dd::encode_generate_request(sample_request()),
      dd::encode_generate_request(sample_request(),
                                  dd::MessageType::kGenerateStreamRequest),
      dd::encode_generate_result(sample_result()),
      dd::encode_streamed_pattern(sample_slot()),
      dd::encode_status(
          dc::Status::Unavailable("shard overloaded").with_retry_after(35)),
      dd::encode_status(dc::Status::NotFound("no such model")),
      dd::encode_worker_health(sample_health()),
      dd::encode_health_probe(),
      dd::encode_stream_end(
          dc::Status::ResourceExhausted("window full").with_retry_after(12),
          sample_stats()),
  };
}

std::uint64_t fnv1a(const dd::Bytes& bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const std::uint8_t b : bytes) {
    hash = (hash ^ b) * 0x100000001B3ULL;
  }
  return hash;
}

/// Calls `visit(input, what)` with every truncation prefix of `frame` and
/// every single-byte {0x01, 0x80, 0xFF} flip of it.
template <typename Visit>
void for_each_mutant(const dd::Bytes& frame, Visit visit) {
  for (std::size_t len = 0; len < frame.size(); ++len) {
    visit(dd::Bytes(frame.begin(),
                    frame.begin() + static_cast<std::ptrdiff_t>(len)),
          "prefix " + std::to_string(len));
  }
  for (std::size_t pos = 0; pos < frame.size(); ++pos) {
    for (const std::uint8_t flip : {0x01, 0x80, 0xFF}) {
      auto mutant = frame;
      mutant[pos] = static_cast<std::uint8_t>(mutant[pos] ^ flip);
      visit(mutant, "pos " + std::to_string(pos) + " flip " +
                        std::to_string(int{flip}));
    }
  }
}

/// The status code every decoder, peek_type and split_frames answer
/// `input` with, in a fixed order.
std::vector<dc::StatusCode> decode_codes(const dd::Bytes& input) {
  return {
      dd::peek_type(input).status().code(),
      dd::split_frames(input).status().code(),
      dd::decode_generate_request(input).status().code(),
      dd::decode_generate_result(input).status().code(),
      dd::decode_streamed_pattern(input).status().code(),
      dd::decode_status(input).status().code(),
      dd::decode_worker_health(input).status().code(),
      dd::decode_stream_end(input).status().code(),
  };
}

TEST(DistWire, ByteFlipSweepNeverCrashes) {
  // Deterministic truncation + single-byte corruption sweep over every
  // frame type, fed to every decoder: each mutant must come back as
  // ok-or-typed-error. This is the cheap, seedless fuzz tier the asan-ubsan
  // job amplifies.
  for (const auto& frame : golden_frames()) {
    for_each_mutant(frame, [](const dd::Bytes& input, const std::string& what) {
      for (const dc::StatusCode code : decode_codes(input)) {
        ASSERT_TRUE(code == dc::StatusCode::kOk ||
                    code == dc::StatusCode::kDataLoss ||
                    code == dc::StatusCode::kInvalidArgument)
            << what << ": " << dc::to_string(code);
      }
    });
  }
}

// --------------------------------------------------- pinned wire bytes

TEST(DistWire, GoldenFrameBytesArePinned) {
  // The exact encoding of every frame type. A change here is a wire
  // protocol change: it needs a version bump, not a new constant.
  struct Pin {
    std::size_t size;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {90, 0x61c9a80444b3f297ULL},  // kGenerateRequest
      {90, 0x74cd0c9e779850d9ULL},  // kGenerateStreamRequest
      {213, 0xfee64dfd23548005ULL},  // kGenerateResult
      {80, 0xbcc62ffb5d567e23ULL},  // kStreamedPattern
      {42, 0xec938ab308e54bc0ULL},  // kStatus, with retry hint
      {39, 0xcdcfaeb8f2d924deULL},  // kStatus, hint-free
      {40, 0x90f833762cacaa8dULL},  // kWorkerHealth
      {12, 0xc4bd574be3e86b81ULL},  // kHealthProbe
      {126, 0xf661f6cc9ac99a44ULL},  // kStreamEnd
  };
  const auto frames = golden_frames();
  ASSERT_EQ(frames.size(), std::size(pins));
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].size(), pins[i].size) << "frame " << i;
    EXPECT_EQ(fnv1a(frames[i]), pins[i].digest)
        << "frame " << i << std::hex << " digest 0x" << fnv1a(frames[i]);
  }
}

TEST(DistWire, GoldenErrorCodesArePinned) {
  // The status code each decoder answers every truncation and byte flip of
  // every golden frame with, folded into one digest: a decoder rewrite
  // must reject exactly the same inputs with exactly the same codes.
  dd::Bytes codes;
  for (const auto& frame : golden_frames()) {
    for_each_mutant(frame, [&](const dd::Bytes& input, const std::string&) {
      for (const dc::StatusCode code : decode_codes(input)) {
        codes.push_back(static_cast<std::uint8_t>(code));
      }
    });
  }
  EXPECT_EQ(codes.size(), 23424U);
  EXPECT_EQ(fnv1a(codes), 0xdb3db4d58e090f0aULL) << std::hex << "digest 0x" << fnv1a(codes);
}

}  // namespace

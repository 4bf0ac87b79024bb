// Versioned binary wire protocol for the distributed serving plane.
//
// Every message travels as one frame: a fixed 12-byte header (magic,
// version, message type, payload length) followed by a little-endian
// payload. Encoding is deterministic — the same value always produces the
// same bytes — so byte-compare tests can prove cross-replica identity, and
// endian-fixed so the socket transport works between hosts of either byte
// order. Each payload layout is declared once, as a field list that both
// the encoder and the bounds-checked decoder walk (wire.cpp). Decoding
// never throws and never reads out of bounds: structural corruption
// (truncation, bad magic, impossible counts) comes back as DATA_LOSS,
// semantic problems (unsupported version, wrong frame type, over-long
// names) as INVALID_ARGUMENT.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/counters.h"
#include "common/status.h"
#include "service/request.h"

namespace diffpattern::dist {

using Bytes = std::vector<std::uint8_t>;

/// Little-endian byte order, spelled once: the frame codec and the socket
/// framing store and load every multi-byte word through these two.
template <typename U>
void store_le(std::uint8_t* dst, U value) {
  static_assert(std::is_unsigned_v<U>);
  for (std::size_t i = 0; i < sizeof(U); ++i) {
    dst[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

template <typename U>
U load_le(const std::uint8_t* src) {
  static_assert(std::is_unsigned_v<U>);
  U value = 0;
  for (std::size_t i = 0; i < sizeof(U); ++i) {
    value = static_cast<U>(value | (U{src[i]} << (8 * i)));
  }
  return value;
}

/// Frame discriminator carried in every header. Values are wire-stable:
/// never renumber, only append. Type 9 (worker self-announce, wire v1) is
/// retired: decoders answer it as an unknown type, and it is never reused.
enum class MessageType : std::uint16_t {
  kGenerateRequest = 1,        ///< Client -> worker: blocking generate.
  kGenerateResult = 2,         ///< Worker -> client: patterns + stats.
  kStreamedPattern = 3,        ///< Worker -> client: one stream delivery.
  kStatus = 4,                 ///< Worker -> client: bare (error) status.
  kWorkerHealth = 5,           ///< Worker -> router: load snapshot.
  kHealthProbe = 6,            ///< Router -> worker: request a snapshot.
  kGenerateStreamRequest = 7,  ///< Client -> worker: streaming generate.
  kStreamEnd = 8,              ///< Worker -> client: stream terminator.
};

inline constexpr std::uint32_t kWireMagic = 0x44505731;  // "DPW1"
inline constexpr std::uint16_t kWireVersion = 2;
inline constexpr std::size_t kFrameHeaderBytes = 12;

/// Decoder hard limits (fuzz-safety: a hostile length prefix can never
/// drive a large allocation past what the buffer could actually hold).
inline constexpr std::size_t kMaxNameBytes = 256;      ///< model / rule set
inline constexpr std::size_t kMaxMessageBytes = 4096;  ///< status message

/// Load snapshot a worker publishes to the router, derived from its
/// service's counters: its name plus the two load signals
/// `ReplicaRouter` scores replicas by.
struct WorkerHealth {
  std::string worker;  ///< Worker endpoint name.
  std::int64_t admission_pending = 0;  ///< In-flight admitted requests.
  double fused_fill_ratio = 0.0;
};

/// Builds a health snapshot from a counters snapshot.
WorkerHealth health_from_counters(const std::string& worker,
                                  const common::ServiceCounters& counters);

/// Terminal frame of a streaming response: the request's final status
/// (including any retry_after hint on a shed) plus its stats.
struct StreamEnd {
  common::Status status;
  service::GenerateStats stats;
};

/// A decoded Status frame. Wrapped in a struct because Result<Status>
/// would make the payload and the decode error the same type.
struct StatusFrame {
  common::Status status;
};

// -- encoders (total: any in-memory value encodes; determinism is the
//    contract, validation happens on decode) --
Bytes encode_generate_request(const service::GenerateRequest& request,
                              MessageType type = MessageType::kGenerateRequest);
Bytes encode_generate_result(const service::GenerateResult& result);
Bytes encode_streamed_pattern(const service::StreamedPattern& slot);
Bytes encode_status(const common::Status& status);
Bytes encode_worker_health(const WorkerHealth& health);
Bytes encode_health_probe();
Bytes encode_stream_end(const common::Status& status,
                        const service::GenerateStats& stats);

// -- decoders --
/// Validates the header of the frame starting at `frame[0]` and returns its
/// message type. DATA_LOSS on truncation/bad magic, INVALID_ARGUMENT on an
/// unsupported version or unknown type.
common::Result<MessageType> peek_type(const Bytes& frame);

/// Splits a buffer holding one or more concatenated frames (the shape of a
/// streaming response) into individual frames. Each header is validated;
/// trailing garbage is DATA_LOSS.
common::Result<std::vector<Bytes>> split_frames(const Bytes& buffer);

common::Result<service::GenerateRequest> decode_generate_request(
    const Bytes& frame);
common::Result<service::GenerateResult> decode_generate_result(
    const Bytes& frame);
common::Result<service::StreamedPattern> decode_streamed_pattern(
    const Bytes& frame);
common::Result<StatusFrame> decode_status(const Bytes& frame);
common::Result<WorkerHealth> decode_worker_health(const Bytes& frame);
common::Result<StreamEnd> decode_stream_end(const Bytes& frame);

}  // namespace diffpattern::dist

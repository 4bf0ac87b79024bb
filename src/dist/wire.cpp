#include "dist/wire.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <initializer_list>
#include <limits>
#include <type_traits>
#include <utility>

namespace diffpattern::dist {
namespace {

using common::Result;
using common::Status;

// -- field visitors --
//
// Every payload layout is one `message(Io&, T&)` field list below, run by
// either visitor: Writer appends each field's bytes, Reader fills it from a
// bounds-checked buffer. Both spell the same members, so the encode and
// decode of a message cannot drift apart.

/// The unsigned word a numeric field travels as: integers keep their width
/// (two's complement for signed), bool is one byte, double its IEEE-754 bits.
template <typename T>
auto to_wire(T v) {
  if constexpr (std::is_same_v<T, bool>) {
    return static_cast<std::uint8_t>(v ? 1 : 0);
  } else if constexpr (std::is_same_v<T, double>) {
    return std::bit_cast<std::uint64_t>(v);
  } else {
    return static_cast<std::make_unsigned_t<T>>(v);
  }
}

class Writer {
 public:
  explicit Writer(Bytes& out) : out_(out) {}

  template <typename T>
  void num(const T& v) {
    const auto word = to_wire(v);
    const std::size_t at = out_.size();
    out_.resize(at + sizeof(word));
    store_le(out_.data() + at, word);
  }

  void str(const std::string& s, std::size_t /*max_bytes*/,
           const char* /*what*/) {
    num(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }

  template <typename T, typename Each>
  void list(const std::vector<T>& items, std::size_t /*min_item_bytes*/,
            std::size_t /*max_count*/, const char* /*what*/, Each each) {
    num(static_cast<std::uint32_t>(items.size()));
    for (const T& item : items) {
      each(item);
    }
  }

  void pattern(const layout::SquishPattern& p) {
    num(static_cast<std::uint32_t>(p.topology.rows()));
    num(static_cast<std::uint32_t>(p.topology.cols()));
    const auto& cells = p.topology.cells();
    out_.insert(out_.end(), cells.begin(), cells.end());
    for (const geometry::Coord c : p.dx) {
      num(c);
    }
    for (const geometry::Coord c : p.dy) {
      num(c);
    }
  }

  void status(const Status& s) {
    num(static_cast<std::uint16_t>(s.code()));
    str(s.message(), kMaxMessageBytes, "status message");
    num(s.retry_after_ms());
  }

 private:
  Bytes& out_;
};

/// Never reads out of bounds, and checks every length prefix against what
/// is actually left BEFORE allocating, so a hostile prefix cannot drive a
/// large reserve. The first failure sticks: every later field is a no-op.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  template <typename T>
  void num(T& v) {
    using Word = decltype(to_wire(v));
    if (const std::uint8_t* p = take(sizeof(Word), "frame payload")) {
      if constexpr (std::is_same_v<T, double>) {
        v = std::bit_cast<double>(load_le<Word>(p));
      } else {
        v = static_cast<T>(load_le<Word>(p));  // bool: any nonzero is true.
      }
    }
  }

  void str(std::string& s, std::size_t max_bytes, const char* what) {
    std::uint32_t len = 0;
    num(len);
    if (ok() && len > max_bytes) {
      fail(Status::InvalidArgument(std::string(what) + " exceeds " +
                                   std::to_string(max_bytes) + " bytes"));
    }
    if (const std::uint8_t* p = take(len, what)) {
      s.assign(reinterpret_cast<const char*>(p), len);
    }
  }

  template <typename T, typename Each>
  void list(std::vector<T>& items, std::size_t min_item_bytes,
            std::size_t max_count, const char* what, Each each) {
    std::uint32_t count = 0;
    num(count);
    if (ok() && count > max_count) {
      fail(Status::InvalidArgument(std::string(what) + " count " +
                                   std::to_string(count) + " exceeds " +
                                   std::to_string(max_count)));
    }
    if (ok() && std::uint64_t{count} * min_item_bytes > remaining()) {
      fail(Status::DataLoss(std::string(what) + " count exceeds buffer"));
    }
    if (!ok()) {
      return;
    }
    items.clear();
    items.reserve(count);
    for (std::uint32_t i = 0; i < count && ok(); ++i) {
      each(items.emplace_back());
    }
  }

  void pattern(layout::SquishPattern& p) {
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    num(rows);
    num(cols);
    // Cells (1 byte each) plus deltas (8 bytes each) must fit in what is
    // actually left.
    const std::uint64_t cell_count = std::uint64_t{rows} * cols;
    if (ok() && cell_count + 8ULL * (std::uint64_t{rows} + cols) >
                    remaining()) {
      fail(Status::DataLoss("pattern dimensions exceed buffer"));
    }
    const std::uint8_t* cells = take(cell_count, "topology cells");
    if (cells == nullptr) {
      return;
    }
    geometry::BinaryGrid grid(rows, cols);
    for (std::uint32_t r = 0; r < rows; ++r) {
      for (std::uint32_t c = 0; c < cols; ++c) {
        const std::uint8_t cell = *cells++;
        if (cell > 1) {
          return fail(Status::DataLoss("topology cell is not 0/1"));
        }
        grid.set(r, c, cell);
      }
    }
    p.topology = std::move(grid);
    p.dx.assign(cols, 0);
    for (geometry::Coord& c : p.dx) {
      num(c);
    }
    p.dy.assign(rows, 0);
    for (geometry::Coord& c : p.dy) {
      num(c);
    }
  }

  void status(Status& s) {
    std::uint16_t code = 0;
    num(code);
    if (ok() && code >= common::kStatusCodeCount) {
      fail(Status::InvalidArgument("unknown status code " +
                                   std::to_string(code)));
    }
    std::string message;
    str(message, kMaxMessageBytes, "status message");
    std::int64_t retry_after = 0;
    num(retry_after);
    if (ok()) {
      s = Status(static_cast<common::StatusCode>(code), std::move(message))
              .with_retry_after(retry_after);
    }
  }

  /// The first failure, or DATA_LOSS if payload bytes were left unread.
  Status finish() {
    if (ok() && pos_ != size_) {
      fail(Status::DataLoss("trailing bytes inside frame payload"));
    }
    return status_;
  }

 private:
  bool ok() const { return status_.ok(); }
  std::size_t remaining() const { return size_ - pos_; }

  void fail(Status s) {
    if (ok()) {
      status_ = std::move(s);
    }
  }

  /// Consumes `n` bytes and returns where they start, or nullptr (and
  /// fails) if the reader already failed or fewer than `n` are left.
  const std::uint8_t* take(std::uint64_t n, const char* what) {
    if (!ok()) {
      return nullptr;
    }
    if (n > remaining()) {
      fail(Status::DataLoss(std::string("truncated ") + what + " at byte " +
                            std::to_string(pos_)));
      return nullptr;
    }
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  Status status_;
};

// -- payload layouts: one field list per message --

constexpr std::size_t kUncapped = std::numeric_limits<std::uint32_t>::max();

template <typename Io>
void fields(Io& io, service::GenerateStats& s) {
  io.num(s.topologies_requested);
  io.num(s.topologies_admitted);
  io.num(s.degraded);
  io.num(s.prefilter_rejected);
  io.num(s.solver_rejected);
  io.num(s.solver_rounds);
  io.num(s.sampling_seconds);
  io.num(s.solving_seconds);
  io.num(s.fused_batch_slots);
  io.num(s.sampling_stride);
  io.num(s.steps_run);
  io.num(s.net_evals);
}

template <typename Io>
void patterns(Io& io, std::vector<layout::SquishPattern>& items) {
  // Every pattern needs at least its 8-byte dimension header.
  io.list(items, 8, kUncapped, "pattern", [&](auto& p) { io.pattern(p); });
}

template <typename Io>
void message(Io& io, service::GenerateRequest& r) {
  io.str(r.model, kMaxNameBytes, "model name");
  io.num(r.count);
  io.num(r.geometries_per_topology);
  io.str(r.rule_set, kMaxNameBytes, "rule set name");
  io.num(r.seed);
  io.num(r.priority);
  io.num(r.deadline_ms);
  io.num(r.allow_degrade);
  io.num(r.sampling.steps);
  io.num(r.sampling.stride);
}

template <typename Io>
void message(Io& io, service::GenerateResult& r) {
  patterns(io, r.patterns);
  fields(io, r.stats);
}

template <typename Io>
void message(Io& io, service::StreamedPattern& slot) {
  io.num(slot.index);
  io.num(slot.legal);
  io.num(slot.prefiltered);
  patterns(io, slot.patterns);
}

template <typename Io>
void message(Io& io, StatusFrame& frame) {
  io.status(frame.status);
}

template <typename Io>
void message(Io& io, WorkerHealth& h) {
  io.str(h.worker, kMaxNameBytes, "worker name");
  io.num(h.admission_pending);
  io.num(h.fused_fill_ratio);
}

template <typename Io>
void message(Io& io, StreamEnd& end) {
  io.status(end.status);
  fields(io, end.stats);
}

/// The health probe's payload is empty.
struct HealthProbe {};

template <typename Io>
void message(Io& /*io*/, HealthProbe& /*probe*/) {}

// -- frames --

template <typename T>
Bytes encode(MessageType type, const T& value) {
  Bytes out;
  Writer writer(out);
  writer.num(kWireMagic);
  writer.num(kWireVersion);
  writer.num(static_cast<std::uint16_t>(type));
  writer.num(std::uint32_t{0});  // Payload length, patched below.
  message(writer, const_cast<T&>(value));  // Writer only reads fields.
  store_le(out.data() + 8,
           static_cast<std::uint32_t>(out.size() - kFrameHeaderBytes));
  return out;
}

/// Validates the frame header at `frame[offset]` and returns its type. On
/// success the payload length it declares fits in `frame`.
Result<MessageType> check_header(const Bytes& frame, std::size_t offset) {
  if (frame.size() - offset < kFrameHeaderBytes) {
    return Status::DataLoss("frame shorter than header");
  }
  const std::uint8_t* header = frame.data() + offset;
  const auto version = load_le<std::uint16_t>(header + 4);
  const auto raw_type = load_le<std::uint16_t>(header + 6);
  if (load_le<std::uint32_t>(header) != kWireMagic) {
    return Status::DataLoss("bad frame magic");
  }
  if (version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version " +
                                   std::to_string(version));
  }
  if (raw_type < static_cast<std::uint16_t>(MessageType::kGenerateRequest) ||
      raw_type > static_cast<std::uint16_t>(MessageType::kStreamEnd)) {
    return Status::InvalidArgument("unknown message type " +
                                   std::to_string(raw_type));
  }
  if (load_le<std::uint32_t>(header + 8) >
      frame.size() - offset - kFrameHeaderBytes) {
    return Status::DataLoss("payload length exceeds buffer");
  }
  return static_cast<MessageType>(raw_type);
}

/// Header plus payload bytes of the validated frame at `frame[offset]`.
std::size_t frame_size(const Bytes& frame, std::size_t offset) {
  return kFrameHeaderBytes + load_le<std::uint32_t>(frame.data() + offset + 8);
}

/// Decodes `frame`, which must be exactly one frame of an `accepted` type.
template <typename T>
Result<T> decode(const Bytes& frame,
                 std::initializer_list<MessageType> accepted) {
  const auto type = check_header(frame, 0);
  if (!type.ok()) {
    return type.status();
  }
  if (std::find(accepted.begin(), accepted.end(), *type) == accepted.end()) {
    return Status::InvalidArgument(
        "wrong frame type " +
        std::to_string(static_cast<std::uint16_t>(*type)) + ", want " +
        std::to_string(static_cast<std::uint16_t>(*accepted.begin())));
  }
  if (frame_size(frame, 0) != frame.size()) {
    return Status::DataLoss("trailing bytes after frame payload");
  }
  Reader reader(frame.data() + kFrameHeaderBytes,
                frame.size() - kFrameHeaderBytes);
  T value;
  message(reader, value);
  if (Status s = reader.finish(); !s.ok()) {
    return s;
  }
  return value;
}

}  // namespace

WorkerHealth health_from_counters(const std::string& worker,
                                  const common::ServiceCounters& counters) {
  return WorkerHealth{worker, counters.admission_pending,
                      counters.fused_fill_ratio};
}

Bytes encode_generate_request(const service::GenerateRequest& request,
                              MessageType type) {
  return encode(type, request);
}

Bytes encode_generate_result(const service::GenerateResult& result) {
  return encode(MessageType::kGenerateResult, result);
}

Bytes encode_streamed_pattern(const service::StreamedPattern& slot) {
  return encode(MessageType::kStreamedPattern, slot);
}

Bytes encode_status(const common::Status& status) {
  return encode(MessageType::kStatus, StatusFrame{status});
}

Bytes encode_worker_health(const WorkerHealth& health) {
  return encode(MessageType::kWorkerHealth, health);
}

Bytes encode_health_probe() {
  return encode(MessageType::kHealthProbe, HealthProbe{});
}

Bytes encode_stream_end(const common::Status& status,
                        const service::GenerateStats& stats) {
  return encode(MessageType::kStreamEnd, StreamEnd{status, stats});
}

common::Result<MessageType> peek_type(const Bytes& frame) {
  return check_header(frame, 0);
}

common::Result<std::vector<Bytes>> split_frames(const Bytes& buffer) {
  std::vector<Bytes> frames;
  std::size_t offset = 0;
  while (offset < buffer.size()) {
    if (auto type = check_header(buffer, offset); !type.ok()) {
      return type.status();
    }
    const std::size_t frame_bytes = frame_size(buffer, offset);
    frames.emplace_back(buffer.begin() + static_cast<std::ptrdiff_t>(offset),
                        buffer.begin() +
                            static_cast<std::ptrdiff_t>(offset + frame_bytes));
    offset += frame_bytes;
  }
  return frames;
}

common::Result<service::GenerateRequest> decode_generate_request(
    const Bytes& frame) {
  // Blocking and streaming requests share one payload shape; accept either
  // tag so the worker can peek first and dispatch.
  return decode<service::GenerateRequest>(
      frame, {MessageType::kGenerateRequest,
              MessageType::kGenerateStreamRequest});
}

common::Result<service::GenerateResult> decode_generate_result(
    const Bytes& frame) {
  return decode<service::GenerateResult>(frame,
                                         {MessageType::kGenerateResult});
}

common::Result<service::StreamedPattern> decode_streamed_pattern(
    const Bytes& frame) {
  return decode<service::StreamedPattern>(frame,
                                          {MessageType::kStreamedPattern});
}

common::Result<StatusFrame> decode_status(const Bytes& frame) {
  return decode<StatusFrame>(frame, {MessageType::kStatus});
}

common::Result<WorkerHealth> decode_worker_health(const Bytes& frame) {
  return decode<WorkerHealth>(frame, {MessageType::kWorkerHealth});
}

common::Result<StreamEnd> decode_stream_end(const Bytes& frame) {
  return decode<StreamEnd>(frame, {MessageType::kStreamEnd});
}

}  // namespace diffpattern::dist

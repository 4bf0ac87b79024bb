// Socket transport: the dist::Channel seam over real TCP / Unix-domain
// sockets.
//
// The wire bytes (dist/wire.h frames) cross the socket wrapped in one
// outer frame per call: a 12-byte header — u32 payload length (LE) + u64
// FNV-1a checksum of the payload — followed by the payload itself. The
// checksum is what turns in-flight byte corruption into a typed DATA_LOSS
// instead of a silently wrong answer; the length bound is what keeps a
// hostile peer from driving an allocation (lengths above the configured
// cap answer DATA_LOSS before any buffer grows, mirroring wire.cpp's
// decoder limits).
//
// Authenticated mode (optional, pre-shared key): the top bit of the
// length word marks the frame as authenticated and an 8-byte keyed tag —
// FNV-1a composed over (key, length+checksum header, payload, key) —
// follows the checksum. A peer whose mode disagrees is detected the
// moment the 4-byte length word completes (missing/unexpected tag), and a
// wrong key the moment the body completes (tag mismatch); both answer a
// typed PERMISSION_DENIED before any wire-level decode. The unkeyed
// checksum is verified first, so in-flight corruption still reads as
// DATA_LOSS, never as an auth failure.
//
// Addressing goes through getaddrinfo: hostnames, IPv4 literals and
// bracketed IPv6 literals ("tcp:[::1]:7070") all resolve, and a dial
// walks every resolved record (each under the per-attempt connect
// deadline) before giving up. Unresolvable names answer a typed
// INVALID_ARGUMENT.
//
// Division of labor (per ROADMAP): timeouts and reconnect policy live
// HERE — every call carries explicit connect/read/write deadlines, and a
// torn connection reconnects lazily under capped exponential backoff with
// deterministic jitter. Each channel keeps a small pool of connections
// (`max_connections`) so concurrent callers overlap on the wire instead
// of serializing behind one fd; backoff state stays per-endpoint.
// Down-marking, cooldowns, and failover stay in the ReplicaRouter, which
// only sees this transport's typed statuses:
//   UNAVAILABLE        connect refused/reset, peer closed before answering,
//                      or a reconnect attempt still inside its backoff
//                      window (retry_after_ms carries the remaining wait);
//   DEADLINE_EXCEEDED  the call deadline expired (stalled peer, or no
//                      pooled connection freed up in time);
//   DATA_LOSS          torn mid-frame read, checksum mismatch, or a frame
//                      above the size bound;
//   PERMISSION_DENIED  the peer's frame failed authentication (wrong key,
//                      or one side framing plaintext at an authed peer).
// No call ever hangs past its deadline and no failure surfaces untyped.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "dist/transport.h"
#include "dist/wire.h"

namespace diffpattern::dist {

/// Outer framing: [u32 payload length][u64 FNV-1a of payload][payload].
inline constexpr std::size_t kSocketFrameHeaderBytes = 12;
/// Authenticated framing inserts an 8-byte keyed tag after the checksum.
inline constexpr std::size_t kSocketAuthTagBytes = 8;
inline constexpr std::size_t kSocketAuthFrameHeaderBytes =
    kSocketFrameHeaderBytes + kSocketAuthTagBytes;
/// Top bit of the length word: set iff the frame carries an auth tag.
/// Frame lengths are bounded far below 2^31, so the bit is never payload
/// length.
inline constexpr std::uint32_t kSocketFrameAuthFlag = 0x80000000U;
/// Default per-message size bound (requests and responses). Generous for
/// pattern payloads, small enough that a hostile length can never matter.
inline constexpr std::size_t kDefaultMaxFrameBytes = 64ULL << 20;

/// FNV-1a 64-bit over a byte range (the outer-frame checksum).
std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size);

/// Keyed tag of authenticated framing: FNV-1a composed over
/// (key, 12-byte length+checksum header, payload, key). HMAC-style
/// key-envelope composition — the key mixes in both before and after the
/// message so neither prefix nor suffix extension reproduces the tag.
std::uint64_t socket_frame_tag(const std::string& key,
                               const std::uint8_t* header12,
                               const std::uint8_t* payload,
                               std::size_t payload_size);

/// Wraps one wire-level message in the outer socket frame. A non-empty
/// `auth_key` produces the authenticated layout (flag bit + keyed tag).
Bytes frame_payload(const Bytes& payload, const std::string& auth_key = "");

/// Incremental reassembly of one outer frame from arbitrarily torn reads.
/// feed() accepts any split of the byte stream (the every-prefix sweep in
/// tests/test_socket_transport.cpp drives every boundary); a hostile
/// length is rejected the moment the 4-byte length word completes —
/// before any body allocation — an auth-mode mismatch at the same moment,
/// and a checksum/tag mismatch the moment the body does. Once
/// complete(), take() yields the payload and resets the assembler for the
/// next frame.
class FrameAssembler {
 public:
  explicit FrameAssembler(std::size_t max_frame_bytes = kDefaultMaxFrameBytes,
                          std::string auth_key = "");

  /// Consumes `size` bytes of stream. DATA_LOSS on a hostile length or a
  /// checksum mismatch; PERMISSION_DENIED on an auth-mode mismatch or a
  /// keyed-tag mismatch. Feeding more bytes than want() (i.e. past the
  /// end of the current frame) is a protocol violation and also
  /// DATA_LOSS.
  common::Status feed(const std::uint8_t* data, std::size_t size);

  /// True once a full, checksum-verified (and, in auth mode, tag-verified)
  /// frame is buffered.
  bool complete() const { return complete_; }
  /// True while no byte of the next frame has arrived yet (readers use
  /// this to tell a clean close between frames from a torn mid-frame one).
  bool empty() const { return header_filled_ == 0 && !complete_; }
  /// Bytes still needed to finish the current parse stage (readers bound
  /// their recv() with this so they never consume the start of the next
  /// frame).
  std::size_t want() const;
  /// Returns the completed payload and resets for the next frame.
  Bytes take();

 private:
  std::size_t header_size() const {
    return auth_key_.empty() ? kSocketFrameHeaderBytes
                             : kSocketAuthFrameHeaderBytes;
  }

  std::size_t max_frame_bytes_;
  std::string auth_key_;
  std::uint8_t header_[kSocketAuthFrameHeaderBytes] = {};
  std::size_t header_filled_ = 0;
  std::size_t expected_ = 0;
  std::uint64_t checksum_ = 0;
  std::uint64_t tag_ = 0;
  Bytes body_;
  bool complete_ = false;
};

/// Parsed endpoint address. Accepted specs:
///   "tcp:HOST:PORT"    hostname or IPv4 literal + port
///   "tcp:[V6]:PORT"    bracketed IPv6 literal + port (e.g. tcp:[::1]:7070)
///   "unix:/path"       Unix-domain socket path
/// Hostnames resolve through getaddrinfo at dial/bind time; an
/// unresolvable name is a typed INVALID_ARGUMENT there, not here.
struct SocketAddress {
  enum class Kind { kTcp, kUnix };
  Kind kind = Kind::kUnix;
  std::string host;         ///< TCP only (no brackets, even for IPv6).
  std::uint16_t port = 0;   ///< TCP only.
  std::string path;         ///< Unix only.
  std::string to_string() const;  ///< IPv6 hosts re-bracketed.
};

/// INVALID_ARGUMENT on malformed specs (unknown scheme, bad port,
/// unterminated bracket, overlong Unix path).
common::Result<SocketAddress> parse_socket_address(const std::string& spec);

/// A bound, listening socket plus the address it actually landed on
/// ("tcp:host:port" with the real port when asked for port 0). Used by
/// SocketServer and by the test-support chaos proxy
/// (tests/support/fault_injection.h), so both speak the same resolver
/// grammar.
struct ListenSocket {
  int fd = -1;
  std::string bound_address;
  std::string unix_path;  ///< Non-empty for unix sockets; unlink on close.
};

/// Resolves (getaddrinfo, passive), binds and listens. INVALID_ARGUMENT
/// when the host does not resolve, UNAVAILABLE when bind/listen fails.
common::Result<ListenSocket> bind_and_listen(const SocketAddress& address,
                                             int backlog = 64);

struct SocketTransportConfig {
  /// Per-attempt connect deadline — each resolved address record gets its
  /// own attempt under this deadline before the dial falls back to the
  /// next record.
  std::int64_t connect_timeout_ms = 1000;
  /// Whole-call deadline: lease (or connect) + write + read must finish
  /// inside it; expiry answers DEADLINE_EXCEEDED and drops the connection.
  std::int64_t call_timeout_ms = 10000;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Connection pool per endpoint: up to this many concurrent exchanges
  /// overlap on separate connections; extra callers wait (bounded by the
  /// call deadline) for a lease. 1 reproduces the old strictly-serialized
  /// behavior.
  std::size_t max_connections = 4;
  /// Reconnect backoff after a failed connect: base << consecutive
  /// failures, capped, plus deterministic jitter in [0, delay/4).
  std::int64_t backoff_base_ms = 10;
  std::int64_t backoff_max_ms = 2000;
  /// Seed of the jitter RNG (mixed with the endpoint address so channels
  /// to different endpoints never share a jitter stream).
  std::uint64_t jitter_seed = 0;
  /// Pre-shared key for authenticated framing; empty = plaintext frames.
  /// Must match the server's key byte-for-byte.
  std::string auth_key;
};

/// Channel factory over real sockets. connect() is lazy — sockets are
/// dialed on first use, pooled per endpoint, and re-dialed (under
/// backoff) whenever a connection drops — matching how a router is
/// configured before its workers come up.
class SocketTransport {
 public:
  explicit SocketTransport(SocketTransportConfig config = {});

  /// Returns a channel to `address` ("tcp:HOST:PORT", "tcp:[V6]:PORT" or
  /// "unix:/path"). Malformed addresses still return a channel; its calls
  /// fail with the parse error so the router's failover machinery sees a
  /// typed status.
  std::shared_ptr<Channel> connect(const std::string& address);

 private:
  SocketTransportConfig config_;
};

struct SocketServerConfig {
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Deadline for finishing a partially received request frame and for
  /// writing a response; a peer that stalls mid-frame is disconnected.
  std::int64_t io_timeout_ms = 10000;
  /// Accept-side cap on concurrently served connections; a connection
  /// accepted past the cap is closed immediately (counted as shed) so a
  /// flood can never exhaust fds/threads before admission control sees a
  /// request. 0 = unlimited.
  std::size_t max_connections = 256;
  /// Pre-shared key for authenticated framing; empty = plaintext. A peer
  /// whose frames fail authentication is answered with a typed
  /// PERMISSION_DENIED status frame and disconnected — its payload is
  /// never decoded.
  std::string auth_key;
};

template <class Cells = common::PlainCells>
struct SocketServerCountersT {
  using Counter = typename Cells::Counter;
  Counter connections{};       ///< Accepted + admitted connections.
  Counter connections_shed{};  ///< Closed at accept (cap exceeded).
  Counter requests{};          ///< Handler invocations.
  Counter read_errors{};       ///< Connections dropped on bad input.
  Counter auth_failures{};     ///< Frames failing the keyed tag.

  template <class F, class... S>
  static void fields(F&& f, S&... s) {
    f("connections", s.connections...);
    f("connections_shed", s.connections_shed...);
    f("requests", s.requests...);
    f("read_errors", s.read_errors...);
    f("auth_failures", s.auth_failures...);
  }
  std::string to_json() const { return common::counters_json(*this); }
};
using SocketServerCounters = SocketServerCountersT<>;

/// Listening side of the transport: accepts connections on a TCP or Unix
/// socket and serves length-delimited request/response exchanges through a
/// WireHandler (one thread per connection; connections are reused for any
/// number of sequential calls). Finished connection threads are reaped as
/// the accept loop runs, so a long-lived server's live handle count stays
/// bounded by its concurrency, not its history. shutdown() is graceful:
/// the listener closes first, idle connections drop, and in-flight
/// requests run to completion — their responses are written before the
/// connection closes.
class SocketServer {
 public:
  explicit SocketServer(SocketServerConfig config = {});
  ~SocketServer();  // Implies shutdown().
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds + listens on `address` and starts accepting. INVALID_ARGUMENT
  /// on a malformed address or unresolvable host, UNAVAILABLE when the
  /// bind/listen fails.
  common::Status start(const std::string& address, WireHandler handler);

  /// Resolved address actually bound ("tcp:host:port" with the real port
  /// when started with port 0, the Unix path otherwise). Empty before
  /// start().
  const std::string& bound_address() const { return bound_address_; }

  /// Stops accepting, drains in-flight requests, joins every connection
  /// thread. Idempotent.
  void shutdown();

  SocketServerCounters counters() const;

  /// Connection threads currently tracked (serving or awaiting reap).
  /// The reaping regression asserts this stays bounded while thousands of
  /// short-lived connections come and go.
  std::size_t live_connection_threads() const;

 private:
  struct Impl;
  void accept_loop();

  SocketServerConfig config_;
  std::string bound_address_;
  std::shared_ptr<Impl> impl_;
  std::thread accept_thread_;
};

}  // namespace diffpattern::dist

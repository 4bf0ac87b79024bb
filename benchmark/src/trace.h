// In-memory span recorder for the traced replay.
//
// A span is (layer, start, end, parent span, request id). Spans are kept in
// memory and written out once, at the end of the run, as a Chrome trace
// (load it in chrome://tracing or ui.perfetto.dev). Recording is
// single-threaded: the replay that uses it runs on one thread. A disabled
// tracer records nothing, so the same replay code yields the untraced wall
// time the tracing overhead is measured against.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dpbench {

struct Span {
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< Index into the span list, -1 for roots.
  std::int64_t request = -1;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  static std::int64_t now_ns();

  /// RAII span around one call into a layer; nests under the innermost
  /// open span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* layer, std::int64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int64_t index_ = -1;
  };

  /// Records an already-finished span under the innermost open span (used
  /// for sampler rounds, whose boundaries come from the RoundHook).
  void record(const char* layer, std::int64_t start_ns, std::int64_t end_ns,
              std::int64_t request);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-layer self time in seconds: a span's duration minus the part its
  /// child spans cover.
  std::map<std::string, double> self_seconds() const;
  /// Per-layer span count.
  std::map<std::string, std::int64_t> counts() const;

  /// Writes the spans as Chrome trace-event JSON. Returns false on I/O
  /// failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

}  // namespace dpbench

#include "trace.h"

#include <fstream>

namespace dpbench {

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* layer, std::int64_t request)
    : tracer_(tracer) {
  if (!tracer_.enabled_) {
    return;
  }
  index_ = static_cast<std::int64_t>(tracer_.spans_.size());
  Span span;
  span.layer = layer;
  span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  span.request = request;
  tracer_.spans_.push_back(std::move(span));
  tracer_.open_.push_back(index_);
  tracer_.spans_.back().start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) {
    return;
  }
  tracer_.spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  tracer_.open_.pop_back();
}

void Tracer::record(const char* layer, std::int64_t start_ns,
                    std::int64_t end_ns, std::int64_t request) {
  if (!enabled_) {
    return;
  }
  Span span;
  span.layer = layer;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(std::move(span));
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].layer] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

std::map<std::string, std::int64_t> Tracer::counts() const {
  std::map<std::string, std::int64_t> out;
  for (const auto& span : spans_) {
    ++out[span.layer];
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.layer
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns - origin) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace dpbench

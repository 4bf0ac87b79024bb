#include "common/counters.h"

namespace diffpattern::common {

std::ostream& CounterWriter::key(const char* name) {
  if (json_) {
    out_ << (first_ ? "{\"" : ",\"") << name << "\":";
  } else {
    // Values start in one column; longer names get a single space.
    const std::string label = std::string(name) + ":";
    out_ << "  " << label
         << std::string(label.size() < 20 ? 20 - label.size() : 1, ' ');
  }
  first_ = false;
  return out_;
}

void CounterWriter::operator()(const char* name, std::int64_t value) {
  key(name) << value << (json_ ? "" : "\n");
}

void CounterWriter::operator()(const char* name, double value) {
  key(name) << value << (json_ ? "" : "\n");
}

void CounterWriter::operator()(const char* name, const std::string& value) {
  if (json_) {
    key(name) << '"' << value << '"';
  } else {
    key(name) << value << "\n";
  }
}

void CounterWriter::operator()(const char* name,
                               const CodeCounts<std::int64_t>& counts) {
  auto& out = key(name);
  if (json_) {
    out << "{";
  } else {
    out << count_total(counts) << "\n";
  }
  bool first = true;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) {
      continue;
    }
    const char* code = common::to_string(static_cast<StatusCode>(i));
    if (json_) {
      out << (first ? "\"" : ",\"") << code << "\":" << counts[i];
    } else {
      out << "    " << code << ": " << counts[i] << "\n";
    }
    first = false;
  }
  if (json_) {
    out << "}";
  }
}

std::string CounterWriter::finish() {
  if (json_) {
    out_ << (first_ ? "{}" : "}");
  }
  return out_.str();
}

}  // namespace diffpattern::common

#include "spans.hpp"

#include <fstream>
#include <stdexcept>

#include "json.hpp"

namespace parcel::perf {

std::int64_t SpanRecorder::since_origin(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
}

void SpanRecorder::charge_parent(const Span& s) {
  if (s.parent != kNoParent) {
    spans_[static_cast<std::size_t>(s.parent)].child_ns += s.end_ns - s.start_ns;
  }
}

int SpanRecorder::open(const char* name, std::uint64_t op, int parent) {
  const std::int64_t now = since_origin(Clock::now());
  spans_.push_back(Span{name, now, now, 0, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = since_origin(Clock::now());
  charge_parent(s);
}

int SpanRecorder::add(const char* name, std::uint64_t op, int parent,
                      Clock::time_point start, Clock::time_point end) {
  spans_.push_back(Span{name, since_origin(start), since_origin(end), 0, parent, op});
  charge_parent(spans_.back());
  return static_cast<int>(spans_.size() - 1);
}

double SpanRecorder::duration_ms(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open trace file " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  std::string line;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    line.clear();
    line += "{\"name\": ";
    json::quote_to(line, s.name);
    line += ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": ";
    json::number_to(line, static_cast<double>(s.start_ns) / 1e3);
    line += ", \"dur\": ";
    json::number_to(line, static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    line += ", \"args\": {\"id\": " + std::to_string(i) +
            ", \"parent\": " + std::to_string(s.parent) +
            ", \"op\": " + std::to_string(s.op) + ", \"self_us\": ";
    json::number_to(line, static_cast<double>(s.end_ns - s.start_ns - s.child_ns) / 1e3);
    line += i + 1 < spans_.size() ? "}},\n" : "}}\n";
    out << line;
  }
  out << "]}\n";
  out.flush();
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

}  // namespace parcel::perf

// In-memory span recorder for traced runs. Spans carry {name, start, end,
// parent, op id}; they are written once, at exit, as Chrome trace-event
// JSON (load it in chrome://tracing or Perfetto), each event carrying its
// self time: its duration minus the time its child spans cover. On this
// single thread children never overlap, so that is a plain subtraction.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace parcel::perf {

using Clock = std::chrono::steady_clock;

class SpanRecorder {
 public:
  static constexpr int kNoParent = -1;

  SpanRecorder() : origin_(Clock::now()) {}

  /// Opens a span starting now; returns its id.
  int open(const char* name, std::uint64_t op, int parent = kNoParent);
  void close(int id);
  /// Records an already measured interval, so a traced op span is the very
  /// clock reading an untraced run takes.
  int add(const char* name, std::uint64_t op, int parent, Clock::time_point start,
          Clock::time_point end);

  [[nodiscard]] double duration_ms(int id) const;

  /// Writes {"traceEvents": [...]} to `path`; throws std::runtime_error
  /// when the file cannot be written.
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t child_ns;
    int parent;
    std::uint64_t op;
  };
  [[nodiscard]] std::int64_t since_origin(Clock::time_point t) const;
  void charge_parent(const Span& s);

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, std::uint64_t op,
             int parent = SpanRecorder::kNoParent)
      : rec_(rec), id_(rec.open(name, op, parent)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { rec_.close(id_); }
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace parcel::perf

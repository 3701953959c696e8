// Fixture: the suppression idiom for code that times the host on purpose —
// a deliberately wall-clock alias, suppressed with a reason on the
// standalone line above it. No file under bench/ may use it.
#include <chrono>

// parcel-lint: allow(nondet-time) wall-clock is the measurement in a throughput bench
using Clock = std::chrono::steady_clock;

double elapsed(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

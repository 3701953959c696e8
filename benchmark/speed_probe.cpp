#include "speed_probe.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <memory_resource>
#include <string>
#include <unordered_map>

namespace parcel::perf {

namespace {

constexpr std::size_t kKeys = 20000;
constexpr std::size_t kMapKeys = 4000;
constexpr int kStrings = 3000;
constexpr int kRepeats = 4;
// One repeat's map nodes, bucket arrays and string growth take about
// 200 KiB; the rest is headroom.
constexpr std::size_t kArenaBytes = std::size_t{1} << 20;

std::atomic<std::uint64_t> g_probe_sink{0};

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

SpeedProbe::SpeedProbe() : keys_(kKeys), arena_(kArenaBytes) {}

double SpeedProbe::sample_ms() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (auto& k : keys_) k = xorshift(x);
    std::sort(keys_.begin(), keys_.end());
    // A fresh resource over the same arena rewinds it. With no upstream,
    // running out throws instead of falling back to the process heap.
    std::pmr::monotonic_buffer_resource pool(arena_.data(), arena_.size(),
                                             std::pmr::null_memory_resource());
    std::pmr::unordered_map<std::uint64_t, std::uint64_t> map(&pool);
    for (std::size_t i = 0; i < kMapKeys; ++i) map[keys_[i * 5]] = i;
    for (std::uint64_t k : keys_) sink += map.count(k);
    std::pmr::string text(&pool);
    char digits[8];
    for (int i = 0; i < kStrings; ++i) {
      const std::uint64_t v = keys_[static_cast<std::size_t>(i)] % 1000;
      text.append(digits, std::to_chars(digits, digits + sizeof digits, v).ptr);
    }
    sink += text.size();
  }
  g_probe_sink.store(sink, std::memory_order_relaxed);
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

void SpeedScale::start() {
  open_ms_ = probe_.sample_ms();
  samples_.push_back(open_ms_);
}

double SpeedScale::close_segment() {
  const double close_ms = probe_.sample_ms();
  samples_.push_back(close_ms);
  const double factor = SpeedProbe::kReferenceMs / (0.5 * (open_ms_ + close_ms));
  open_ms_ = close_ms;
  return factor;
}

}  // namespace parcel::perf

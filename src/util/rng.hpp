// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component takes an explicit Rng (or a seed) so that a
// whole experiment round can be replayed bit-for-bit. The paper controls
// variability by replaying page snapshots and filtering for comparable
// signal; we control it by seeding.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

namespace parcel::util {

/// std::mt19937_64, word for word, with lazy seeding and a one-word twist
/// per draw (DESIGN.md §5). The standard engine seeds all 312 state words
/// and twists the whole block before its first output; most Rng streams
/// here are forked, drawn a handful of times and dropped, so that fixed
/// cost dominated them. Output k of a block needs state words k, k+1 and
/// k+156 (mod 312) only, so the first block seeds just far enough ahead of
/// the draw: fork plus first draw costs 157 seed steps. The recurrence is
/// the standard's, so every output, and every distribution, fork() and
/// shuffle built on it, is unchanged.
class Mt64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt64(result_type seed) { x_[0] = seed; }
  // Words at and past seeded_ are never read, so copies skip them.
  Mt64(const Mt64& other) { *this = other; }
  Mt64& operator=(const Mt64& other) {
    if (this != &other) {
      std::copy_n(other.x_, other.seeded_, x_);
      next_ = other.next_;
      seeded_ = other.seeded_;
    }
    return *this;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::size_t k = next_;
    if (seeded_ < kN) seed_through(k < kN - kM ? k + kM : k + 1);
    const std::size_t k1 = k + 1 == kN ? 0 : k + 1;
    const std::size_t km = k < kN - kM ? k + kM : k - (kN - kM);
    const result_type y = (x_[k] & kUpper) | (x_[k1] & kLower);
    result_type z = x_[km] ^ (y >> 1) ^ ((y & 1) != 0 ? kA : 0);
    x_[k] = z;
    next_ = k1;
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr result_type kA = 0xb5026f5aa96619e9ULL;
  static constexpr result_type kUpper = ~result_type{0} << 31;
  static constexpr result_type kLower = ~kUpper;

  /// Seed words up to and including index `last` (capped at the block).
  /// Only the first block seeds: word i reads seed word i-1, which no
  /// draw has overwritten yet because draws stay 156 words behind.
  void seed_through(std::size_t last) {
    const std::size_t end = last < kN ? last + 1 : kN;
    for (; seeded_ < end; ++seeded_) {
      const result_type prev = x_[seeded_ - 1];
      x_[seeded_] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + seeded_;
    }
  }

  result_type x_[kN];
  std::size_t next_ = 0;    // state word the next draw replaces
  std::size_t seeded_ = 1;  // seed words written so far (kN once done)
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Derive an independent child stream; used to give each subsystem its
  /// own stream so adding draws in one place does not perturb another.
  [[nodiscard]] Rng fork() { return Rng{engine_()}; }

  double uniform(double lo, double hi) {
    std::uniform_real_distribution<double> d(lo, hi);
    return d(engine_);
  }

  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    std::uniform_int_distribution<std::int64_t> d(lo, hi);
    return d(engine_);
  }

  bool bernoulli(double p) {
    std::bernoulli_distribution d(p);
    return d(engine_);
  }

  double exponential(double mean) {
    std::exponential_distribution<double> d(1.0 / mean);
    return d(engine_);
  }

  double lognormal(double mu, double sigma) {
    std::lognormal_distribution<double> d(mu, sigma);
    return d(engine_);
  }

  double normal(double mean, double stdev) {
    std::normal_distribution<double> d(mean, stdev);
    return d(engine_);
  }

  double pareto(double scale, double shape) {
    // Inverse-CDF sampling; u in (0,1].
    double u = 1.0 - uniform(0.0, 1.0);
    return scale / std::pow(u, 1.0 / shape);
  }

  /// Pick an index in [0, weights.size()) proportionally to weights.
  std::size_t weighted_index(std::span<const double> weights);

  template <typename T>
  const T& choice(std::span<const T> items) {
    return items[static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(items.size()) - 1))];
  }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    std::shuffle(items.begin(), items.end(), engine_);
  }

  std::uint64_t next_u64() { return engine_(); }

 private:
  Mt64 engine_;
};

}  // namespace parcel::util

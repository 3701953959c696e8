#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "util/fifo.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace parcel::util {
namespace {

TEST(Units, DurationConstructionAndArithmetic) {
  EXPECT_DOUBLE_EQ(Duration::seconds(1.5).sec(), 1.5);
  EXPECT_DOUBLE_EQ(Duration::millis(250).sec(), 0.25);
  EXPECT_DOUBLE_EQ(Duration::micros(500).ms(), 0.5);
  Duration d = Duration::seconds(2) + Duration::millis(500);
  EXPECT_DOUBLE_EQ(d.sec(), 2.5);
  EXPECT_DOUBLE_EQ((d - Duration::seconds(1)).sec(), 1.5);
  EXPECT_DOUBLE_EQ((d * 2.0).sec(), 5.0);
  EXPECT_DOUBLE_EQ((d / 2.0).sec(), 1.25);
  EXPECT_DOUBLE_EQ(d / Duration::millis(500), 5.0);
  EXPECT_LT(Duration::millis(1), Duration::millis(2));
  EXPECT_TRUE(Duration::zero().is_zero());
  EXPECT_FALSE(Duration::infinity().is_finite());
}

TEST(Units, TimePointArithmetic) {
  TimePoint t = TimePoint::origin() + Duration::seconds(3);
  EXPECT_DOUBLE_EQ(t.sec(), 3.0);
  EXPECT_DOUBLE_EQ((t - TimePoint::at_seconds(1)).sec(), 2.0);
  EXPECT_DOUBLE_EQ((t - Duration::seconds(1)).sec(), 2.0);
  EXPECT_LT(TimePoint::at_seconds(1), t);
}

TEST(Units, BitRateTransmitTime) {
  BitRate r = BitRate::mbps(8);  // 1 MB/s
  EXPECT_DOUBLE_EQ(r.bytes_per_sec(), 1e6);
  EXPECT_NEAR(r.transmit_time(1'000'000).sec(), 1.0, 1e-12);
  EXPECT_NEAR((r * 0.5).transmit_time(500'000).sec(), 1.0, 1e-12);
}

TEST(Units, EnergyFromPowerAndTime) {
  Energy e = Power::watts(2.0) * Duration::seconds(3.0);
  EXPECT_DOUBLE_EQ(e.j(), 6.0);
  EXPECT_DOUBLE_EQ((e + Energy::joules(1)).j(), 7.0);
  EXPECT_DOUBLE_EQ(e / Energy::joules(3), 2.0);
}

TEST(Units, ByteHelpers) {
  EXPECT_EQ(kib(1), 1024);
  EXPECT_EQ(mib(2), 2 * 1024 * 1024);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, ForkIsIndependentOfParentDrawCount) {
  Rng a(7);
  Rng child = a.fork();
  double first = child.uniform(0, 1);
  Rng b(7);
  Rng child2 = b.fork();
  EXPECT_DOUBLE_EQ(child2.uniform(0, 1), first);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(1);
  const double weights[] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.weighted_index(weights), 1u);
  }
  EXPECT_THROW(rng.weighted_index({}), std::invalid_argument);
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(3);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

// --- Mt64 is std::mt19937_64, word for word ----------------------------

static_assert(std::uniform_random_bit_generator<Mt64>);
static_assert(Mt64::min() == std::mt19937_64::min());
static_assert(Mt64::max() == std::mt19937_64::max());

TEST(Mt64, MatchesStdEngineOverThreeBlocks) {
  const std::uint64_t seeds[] = {0,
                                 1,
                                 5489,
                                 std::numeric_limits<std::uint64_t>::max(),
                                 0x9e3779b97f4a7c15ULL,
                                 0xd1b54a32d192ed03ULL};
  for (std::uint64_t seed : seeds) {
    Mt64 ours(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(ours(), ref()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(Mt64, StandardTenThousandthDraw) {
  Mt64 engine(5489);
  for (int i = 0; i < 9999; ++i) engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

TEST(Mt64, CopiesAtBlockEdgesContinueTheStream) {
  for (int at : {0, 1, 155, 156, 157, 311, 312, 313}) {
    Mt64 ours(2014);
    std::mt19937_64 ref(2014);
    for (int i = 0; i < at; ++i) ASSERT_EQ(ours(), ref());
    Mt64 copy(ours);
    Mt64 assigned(99);
    for (int i = 0; i < 400; ++i) assigned();  // fully seeded, stale words
    assigned = ours;
    std::mt19937_64 ref_copy(ref);
    for (int i = 0; i < 700; ++i) {
      const std::uint64_t want = ref_copy();
      ASSERT_EQ(copy(), want) << "copied at " << at << " draw " << i;
      ASSERT_EQ(assigned(), want) << "assigned at " << at << " draw " << i;
    }
    // The original is untouched by its copies.
    for (int i = 0; i < 700; ++i) ASSERT_EQ(ours(), ref());
  }
}

/// Rng's members re-derived on std::mt19937_64 from the same standard
/// distributions, to drive both engines side by side.
struct StdRng {
  std::mt19937_64 engine;
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine);
  }
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine);
  }
};

TEST(Mt64, EveryRngMemberMatchesTheStdEngine) {
  for (std::uint64_t seed : {0ULL, 7ULL, 2014ULL}) {
    Rng ours(seed);
    StdRng ref{std::mt19937_64(seed)};
    std::vector<int> items_ours(40), items_ref(40);
    std::iota(items_ours.begin(), items_ours.end(), 0);
    std::iota(items_ref.begin(), items_ref.end(), 0);
    const double weights[] = {0.5, 2.0, 0.0, 1.25};
    const int choices[] = {3, 1, 4, 1, 5, 9, 2, 6};
    // 120 rounds of ~12 draws cross several block boundaries.
    for (int round = 0; round < 120; ++round) {
      ASSERT_EQ(ours.uniform(-2.0, 3.0), ref.uniform(-2.0, 3.0));
      ASSERT_EQ(ours.uniform_int(-5, 1000), ref.uniform_int(-5, 1000));
      ASSERT_EQ(ours.bernoulli(0.3),
                std::bernoulli_distribution(0.3)(ref.engine));
      ASSERT_EQ(ours.exponential(2.5),
                std::exponential_distribution<double>(1.0 / 2.5)(ref.engine));
      ASSERT_EQ(ours.lognormal(0.2, 0.7),
                std::lognormal_distribution<double>(0.2, 0.7)(ref.engine));
      ASSERT_EQ(ours.normal(1.0, 3.0),
                std::normal_distribution<double>(1.0, 3.0)(ref.engine));
      const double u = 1.0 - ref.uniform(0.0, 1.0);
      ASSERT_EQ(ours.pareto(2.0, 1.5), 2.0 / std::pow(u, 1.0 / 1.5));
      // weighted_index draws uniform(0, total) and walks the prefix sums.
      const double x = ref.uniform(0.0, 3.75);
      std::size_t want = 0;
      double acc = weights[0];
      while (!(x < acc) && want + 1 < std::size(weights)) {
        acc += weights[++want];
      }
      ASSERT_EQ(ours.weighted_index(weights), want);
      ASSERT_EQ(ours.choice(std::span<const int>(choices)),
                choices[ref.uniform_int(0, 7)]);
      ours.shuffle(items_ours);
      std::shuffle(items_ref.begin(), items_ref.end(), ref.engine);
      ASSERT_EQ(items_ours, items_ref);
      Rng child = ours.fork();
      std::mt19937_64 ref_child(ref.engine());
      ASSERT_EQ(child.next_u64(), ref_child());
      ASSERT_EQ(child.uniform(0.0, 1.0),
                std::uniform_real_distribution<double>(0.0, 1.0)(ref_child));
      ASSERT_EQ(ours.next_u64(), ref.engine());
    }
  }
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(Stats, MedianOfUnsorted) {
  std::vector<double> v{9, 1, 5};
  EXPECT_DOUBLE_EQ(median(v), 5.0);
}

TEST(Stats, MeanAndStdev) {
  std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_NEAR(stdev(v), 2.138, 1e-3);
}

TEST(Stats, CoefficientOfVariation) {
  std::vector<double> v{1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(coeff_of_variation(v), 0.0);
}

TEST(Stats, PearsonCorrelationPerfectAndInverse) {
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
  std::vector<double> z{8, 6, 4, 2};
  EXPECT_NEAR(pearson_correlation(x, z), -1.0, 1e-12);
  EXPECT_THROW(pearson_correlation(x, std::vector<double>{1}), std::invalid_argument);
}

TEST(Stats, CdfQuantileAndAt) {
  Cdf cdf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(cdf.at(5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(10), 1.0);
  EXPECT_NEAR(cdf.quantile(0.5), 5.5, 1e-9);
  EXPECT_FALSE(cdf.to_table().empty());
}

TEST(Stats, SummaryAccumulates) {
  Summary s;
  for (double x : {3.0, 1.0, 2.0}) s.add(x);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
}

TEST(Fifo, KeepsOrderAcrossWraparoundAndGrowth) {
  Fifo<int> q;
  EXPECT_TRUE(q.empty());
  int next_in = 0;
  int next_out = 0;
  // Push and pop in uneven steps so the ring wraps before and after each
  // doubling.
  for (int step = 0; step < 40; ++step) {
    for (int i = 0; i < 1 + step % 5; ++i) q.push_back(int{next_in++});
    for (int i = 0; i < 1 + step % 3 && !q.empty(); ++i) {
      EXPECT_EQ(q.front(), next_out++);
      q.pop_front();
    }
    EXPECT_EQ(q.size(), static_cast<std::size_t>(next_in - next_out));
  }
  while (!q.empty()) {
    EXPECT_EQ(q.front(), next_out++);
    q.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(Fifo, HoldsMoveOnlyElementsAndDestroysEachOnce) {
  auto alive = std::make_shared<int>(0);
  struct Counted {
    std::unique_ptr<int> id;
    std::shared_ptr<int> alive;
    Counted(int i, std::shared_ptr<int> a)
        : id(std::make_unique<int>(i)), alive(std::move(a)) {
      ++*alive;
    }
    Counted(Counted&&) noexcept = default;
    ~Counted() {
      if (id) --*alive;
    }
  };
  {
    Fifo<Counted> q;
    for (int i = 0; i < 9; ++i) q.emplace_back(i, alive);  // grows twice
    EXPECT_EQ(*alive, 9);
    EXPECT_EQ(*q.front().id, 0);
    q.pop_front();
    EXPECT_EQ(*alive, 8);
    Fifo<Counted> moved = std::move(q);
    EXPECT_TRUE(q.empty());  // NOLINT(bugprone-use-after-move): the contract
    EXPECT_EQ(moved.size(), 8u);
    EXPECT_EQ(*moved.front().id, 1);
    EXPECT_EQ(*alive, 8);
  }
  EXPECT_EQ(*alive, 0);  // the rest died with the queue
}

TEST(Strings, TrimAndSplit) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim(""), "");
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, CaseInsensitiveHelpers) {
  EXPECT_TRUE(iequals("Content-Type", "content-type"));
  EXPECT_FALSE(iequals("a", "ab"));
  EXPECT_TRUE(starts_with_ignore_case("<SCRIPT src>", "<script"));
  EXPECT_EQ(ifind("xxFooBar", "foobar"), 2u);
  EXPECT_EQ(ifind("abc", "zzz"), std::string_view::npos);
  EXPECT_EQ(ifind("abc", "", 3), 3u);
  EXPECT_EQ(ifind("abc", "", 4), std::string_view::npos);
  EXPECT_EQ(ifind("abc", "b", 4), std::string_view::npos);
  EXPECT_EQ(ifind("ab", "abc"), std::string_view::npos);
  EXPECT_EQ(ifind("x</SCRIPT>y</script>", "</script>", 2), 11u);
  EXPECT_EQ(to_lower("AbC"), "abc");
}

/// Reference ifind: a std::tolower compare at every offset from `pos`.
/// The candidate-jumping ifind must agree with it on every input.
std::size_t ifind_brute_force(std::string_view hay, std::string_view needle,
                              std::size_t pos) {
  if (needle.empty()) return pos <= hay.size() ? pos : std::string_view::npos;
  for (std::size_t i = pos; i <= hay.size() && hay.size() - i >= needle.size();
       ++i) {
    bool match = true;
    for (std::size_t j = 0; j < needle.size() && match; ++j) {
      match = std::tolower(static_cast<unsigned char>(hay[i + j])) ==
              std::tolower(static_cast<unsigned char>(needle[j]));
    }
    if (match) return i;
  }
  return std::string_view::npos;
}

TEST(Strings, IfindMatchesBruteForce) {
  // A small alphabet (both cases, markup bytes, non-ASCII) makes partial
  // and full matches frequent.
  const std::string alphabet = "aAbBsScC<>/= \x80\xC1";
  Rng rng(2014);
  auto random_string = [&](std::size_t len) {
    std::string out;
    for (std::size_t i = 0; i < len; ++i) {
      out += alphabet[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(alphabet.size()) - 1))];
    }
    return out;
  };
  auto flip_case = [&](std::string s) {
    for (char& c : s) {
      if (rng.bernoulli(0.5)) {
        c = static_cast<char>(std::isupper(static_cast<unsigned char>(c))
                                  ? std::tolower(static_cast<unsigned char>(c))
                                  : std::toupper(static_cast<unsigned char>(c)));
      }
    }
    return s;
  };
  for (int trial = 0; trial < 4000; ++trial) {
    const std::string hay =
        random_string(static_cast<std::size_t>(rng.uniform_int(0, 40)));
    std::string needle;
    switch (trial % 4) {
      case 0:  // a case-flipped slice of the haystack: a match exists
        if (!hay.empty()) {
          const auto from = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(hay.size()) - 1));
          const auto len = static_cast<std::size_t>(rng.uniform_int(
              1, static_cast<std::int64_t>(hay.size() - from)));
          needle = flip_case(hay.substr(from, len));
        }
        break;
      case 1:  // short random needle
        needle = random_string(static_cast<std::size_t>(rng.uniform_int(1, 3)));
        break;
      case 2:  // longer than the haystack
        needle = random_string(hay.size() + 1 +
                               static_cast<std::size_t>(rng.uniform_int(0, 3)));
        break;
      default:  // empty needle
        break;
    }
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, 3 + static_cast<std::int64_t>(hay.size())));
    SCOPED_TRACE("hay='" + hay + "' needle='" + needle +
                 "' pos=" + std::to_string(pos));
    EXPECT_EQ(ifind(hay, needle, pos), ifind_brute_force(hay, needle, pos));
  }
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KB");
  EXPECT_EQ(format_bytes(3 * 1024 * 1024), "3.00 MB");
}

TEST(Strings, Ssprintf) {
  EXPECT_EQ(ssprintf("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(ssprintf("%s", ""), "");
}

}  // namespace
}  // namespace parcel::util

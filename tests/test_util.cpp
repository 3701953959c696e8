#include <gtest/gtest.h>

#include <cctype>
#include <string>

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

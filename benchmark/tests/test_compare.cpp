#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "compare.hpp"
#include "json.hpp"
#include "report.hpp"

namespace parcel::perf {
namespace {

namespace fs = std::filesystem;

const MetricSpec kLatency{"op_wall_ms_p50", "ms", false, 0.05};
const MetricSpec kRate{"ops_per_s", "op/s", true, 0.05};

SeededValues seeded(std::vector<double> values) {
  SeededValues out;
  for (std::size_t i = 0; i < values.size(); ++i) out.emplace_back(i + 1, values[i]);
  return out;
}

TEST(Judge, WorseBeyondTheBound) {
  const SeededValues parent = seeded({1.00, 1.01, 0.99, 1.00, 1.00});
  EXPECT_EQ(judge(kLatency, parent, seeded({1.10, 1.11, 1.09, 1.10, 1.10})), Verdict::kWorse);
  EXPECT_EQ(judge(kRate, parent, seeded({0.90, 0.91, 0.89, 0.90, 0.90})), Verdict::kWorse);
}

TEST(Judge, SameWithinTheBound) {
  const SeededValues parent = seeded({1.00, 1.01, 0.99, 1.00, 1.00});
  EXPECT_EQ(judge(kLatency, parent, seeded({1.02, 1.03, 1.01, 1.02, 1.02})), Verdict::kSame);
  EXPECT_EQ(judge(kLatency, parent, parent), Verdict::kSame);
}

TEST(Judge, BetterNeedsSpreadAndPairWins) {
  const SeededValues parent = seeded({1.00, 1.01, 0.99, 1.00, 1.00});
  EXPECT_EQ(judge(kLatency, parent, seeded({0.90, 0.91, 0.89, 0.90, 0.90})), Verdict::kBetter);
  EXPECT_EQ(judge(kRate, parent, seeded({1.10, 1.11, 1.09, 1.10, 1.10})), Verdict::kBetter);
  // A clear median gain, but the change loses two of ten seed pairs.
  const SeededValues ten = seeded({1.00, 1.01, 0.99, 1.00, 1.00, 1.00, 1.01, 0.99, 1.00, 1.00});
  EXPECT_EQ(judge(kLatency, ten, seeded({0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 1.02, 1.02})),
            Verdict::kSame);
  EXPECT_EQ(judge(kLatency, ten, seeded({0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 1.02})),
            Verdict::kBetter);
}

TEST(Judge, UnresolvedWhenSpreadExceedsTheBound) {
  const SeededValues noisy = seeded({0.8, 1.2, 1.0, 0.9, 1.1});
  EXPECT_EQ(judge(kLatency, noisy, seeded({1.0, 1.3, 0.9, 1.1, 1.2})), Verdict::kUnresolved);
  // ... unless every change run beats every parent run.
  EXPECT_EQ(judge(kLatency, noisy, seeded({0.5, 0.7, 0.6, 0.55, 0.65})), Verdict::kBetter);
  EXPECT_EQ(judge(kLatency, noisy, {}), Verdict::kUnresolved);
}

TEST(Judge, ZeroParentMedian) {
  const SeededValues zero = seeded({0.0, 0.0, 0.0});
  EXPECT_EQ(judge(kLatency, zero, zero), Verdict::kSame);
  EXPECT_EQ(judge(kLatency, zero, seeded({0.1, 0.1, 0.1})), Verdict::kWorse);
}

void write(const fs::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

/// A result file as parcel_bench --out writes it.
void write_run(const fs::path& dir, std::uint64_t seed, double wall_ms,
               const std::string& digest) {
  RunReport rep;
  rep.workload = "paper-grid";
  rep.seed = seed;
  rep.attempted = 10;
  rep.digest = digest;
  rep.e2e.push_back(Metric{"op_wall_ms_p50", wall_ms, "ms"});
  rep.e2e.push_back(Metric{"ops_per_s", 1000.0 / wall_ms, "op/s"});
  write(dir / ("paper-grid-" + std::to_string(seed) + ".json"), rep.to_json().dump());
}

class CompareFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(PARCEL_BENCH_TMPDIR) /
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(root_);
    fs::create_directories(root_ / "parent");
    fs::create_directories(root_ / "change");
    write(root_ / "BENCHMARK.json",
          R"({"end_to_end": [
               {"name": "op_wall_ms_p50", "unit": "ms", "better": "lower", "bound": 0.05},
               {"name": "ops_per_s", "unit": "op/s", "better": "higher", "bound": 0.05}]})");
  }

  int compare() {
    std::FILE* sink = std::fopen((root_ / "compare.txt").c_str(), "w");
    const int rc = run_compare((root_ / "parent").string(), (root_ / "change").string(),
                               (root_ / "BENCHMARK.json").string(), sink);
    std::fclose(sink);
    return rc;
  }

  fs::path root_;
};

TEST_F(CompareFiles, SameBuildPasses) {
  for (std::uint64_t s = 1; s <= 5; ++s) {
    write_run(root_ / "parent", s, 1.0 + 0.001 * static_cast<double>(s), "0xaa");
    write_run(root_ / "change", s, 1.0 + 0.001 * static_cast<double>(6 - s), "0xaa");
  }
  EXPECT_EQ(compare(), 0);
}

TEST_F(CompareFiles, WorseExitsOne) {
  for (std::uint64_t s = 1; s <= 5; ++s) {
    write_run(root_ / "parent", s, 1.0, "0xaa");
    write_run(root_ / "change", s, 1.2, "0xaa");
  }
  EXPECT_EQ(compare(), 1);
}

TEST_F(CompareFiles, DigestMismatchExitsOne) {
  for (std::uint64_t s = 1; s <= 5; ++s) {
    write_run(root_ / "parent", s, 1.0, "0xaa");
    write_run(root_ / "change", s, 1.0, s == 3 ? "0xbb" : "0xaa");
  }
  EXPECT_EQ(compare(), 1);
}

TEST_F(CompareFiles, UnreadableInputExitsTwo) {
  write(root_ / "parent" / "broken.json", "{\"workload\": ");
  EXPECT_EQ(compare(), 2);
}

TEST(Json, RoundTrip) {
  const json::Value v = json::parse(
      R"({"a": [1, 2.5, -3e-2, true, null], "b": {"c": "x\"yA"}, "d": 18446744073709})");
  EXPECT_EQ(v.dump(),
            R"({"a": [1, 2.5, -0.03, true, null], "b": {"c": "x\"yA"}, "d": 18446744073709})");
  EXPECT_THROW((void)json::parse("{} x"), std::invalid_argument);
  EXPECT_THROW((void)json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW((void)json::parse("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW((void)json::parse("nan"), std::invalid_argument);
}

}  // namespace
}  // namespace parcel::perf

// The bench report path: every BENCH_*.json goes through
// bench::write_json / bench::read_json, and every committed one must parse.
// Also the parts of bench::parse_options that every bench and
// parcel_figures share.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/common.hpp"

namespace {

using namespace parcel;
namespace json = bench::json;
namespace fs = std::filesystem;

TEST(BenchReport, EveryCommittedBenchJsonParses) {
  int files = 0;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(PARCEL_REPO_ROOT)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0 || entry.path().extension() != ".json") {
      continue;
    }
    ++files;
    SCOPED_TRACE(name);
    json::Value doc;
    ASSERT_NO_THROW(doc = bench::read_json(entry.path().string()));
    EXPECT_TRUE(doc.is_object());
  }
  EXPECT_GE(files, 4);
}

TEST(BenchReport, WriteJsonRoundTripsANestedDocument) {
  const json::Value doc{json::Value::Object{
      {"plan", "loss=0.02 \"quoted\" back\\slash\ttab\nline"},
      {"quick", false},
      {"max_exact", std::uint64_t{1} << 53},
      {"ratio", 0.1},
      {"levels", json::Value::Array{1, 2, 4}},
      {"nested", json::Value::Object{{"ok", true},
                                     {"empty", json::Value::Object{}},
                                     {"none", json::Value()}}},
  }};
  const std::string path =
      (fs::temp_directory_path() / "parcel_bench_report_roundtrip.json")
          .string();
  ASSERT_TRUE(bench::write_json(path, doc));
  const json::Value back = bench::read_json(path);
  fs::remove(path);
  EXPECT_EQ(back.dump(), doc.dump());
  EXPECT_EQ(back.at("max_exact").as_number(), 9007199254740992.0);
  EXPECT_EQ(back.at("plan").as_string(),
            "loss=0.02 \"quoted\" back\\slash\ttab\nline");
}

TEST(BenchReport, WriteJsonReportsAnUnwritablePath) {
  const fs::path dir = fs::temp_directory_path() / "parcel_no_such_dir";
  fs::remove_all(dir);
  EXPECT_FALSE(bench::write_json((dir / "BENCH_x.json").string(),
                                 json::Value::Object{{"a", 1}}));
}

TEST(BenchReport, ReadJsonRejectsMissingAndMalformedFiles) {
  const fs::path dir = fs::temp_directory_path();
  EXPECT_THROW((void)bench::read_json((dir / "parcel_no_such.json").string()),
               std::invalid_argument);
  const std::string bad = (dir / "parcel_bench_report_bad.json").string();
  std::ofstream(bad) << "{\"a\": 1} trailing";
  EXPECT_THROW((void)bench::read_json(bad), std::invalid_argument);
  fs::remove(bad);
}

TEST(BenchCli, QuickKeepsExplicitPagesAndRoundsInEitherOrder) {
  std::string prog = "bench", pages = "--pages", three = "3",
              rounds = "--rounds", two = "2", quick = "--quick";
  char* quick_last[] = {prog.data(),   pages.data(), three.data(),
                        rounds.data(), two.data(),   quick.data()};
  char* quick_first[] = {prog.data(),  quick.data(),  pages.data(),
                         three.data(), rounds.data(), two.data()};
  for (char** argv : {quick_last, quick_first}) {
    const bench::BenchOptions opts = bench::parse_options(6, argv);
    EXPECT_TRUE(opts.quick);
    EXPECT_EQ(opts.pages, 3);
    EXPECT_EQ(opts.rounds, 2);
  }
  char* quick_only[] = {prog.data(), quick.data()};
  const bench::BenchOptions opts = bench::parse_options(2, quick_only);
  EXPECT_EQ(opts.pages, 10);
  EXPECT_EQ(opts.rounds, 1);
}

TEST(BenchCli, PositionalArgumentsAreCollectedBetweenFlags) {
  std::string prog = "parcel_figures", fig = "fig7b", jobs = "--jobs",
              four = "4", all = "all";
  char* argv[] = {prog.data(), fig.data(), jobs.data(), four.data(),
                  all.data()};
  std::vector<std::string> ids;
  EXPECT_EQ(bench::parse_options(5, argv, &ids).jobs, 4);
  EXPECT_EQ(ids, (std::vector<std::string>{"fig7b", "all"}));
  // Without a place to put them, positional arguments stay usage errors.
  EXPECT_EXIT(bench::parse_options(5, argv), ::testing::ExitedWithCode(2),
              "error: unknown flag fig7b");
}

}  // namespace

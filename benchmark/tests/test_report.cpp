#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "json.hpp"
#include "report.hpp"

namespace parcel::perf {
namespace {

json::Value benchmark_json() {
  std::ifstream in(PARCEL_BENCHMARK_JSON);
  std::ostringstream text;
  text << in.rdbuf();
  return json::parse(text.str());
}

std::vector<std::string> names(const json::Value& list) {
  std::vector<std::string> out;
  for (const json::Value& m : list.as_array()) out.push_back(m.at("name").as_string());
  return out;
}

// The binary's summary line must carry exactly the metrics BENCHMARK.json
// declares, so the two lists are one decision kept in two places.
TEST(Report, MetricListsMatchBenchmarkJson) {
  const json::Value doc = benchmark_json();
  EXPECT_EQ(names(doc.at("end_to_end")), end_to_end_names());
  EXPECT_EQ(names(doc.at("per_layer")), per_layer_names());
  for (const json::Value& m : doc.at("end_to_end").as_array()) {
    EXPECT_LE(m.at("bound").as_number(), 0.25) << m.at("name").as_string();
    EXPECT_GT(m.at("bound").as_number(), 0.0) << m.at("name").as_string();
  }
  const auto valid_name = [](const std::string& n) {
    const auto ok = [](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '.' || c == '-';
    };
    return !n.empty() && n.size() <= 64 && std::isalnum(static_cast<unsigned char>(n[0])) != 0 &&
           std::all_of(n.begin(), n.end(), ok);
  };
  for (const auto& list : {end_to_end_names(), per_layer_names()}) {
    for (const std::string& n : list) EXPECT_TRUE(valid_name(n)) << n;
  }
}

TEST(Report, SummaryLineCarriesExactlyTheListedMetrics) {
  RunReport rep;
  rep.attempted = 3;
  for (const std::string& n : end_to_end_names()) rep.e2e.push_back(Metric{n, 1.5, "s"});
  rep.e2e.push_back(Metric{"op_wall_ms_p99", 2.0, "ms"});
  const json::Value line = json::parse(rep.summary_line());
  EXPECT_TRUE(line.at("correct").as_bool());
  EXPECT_EQ(line.at("attempted").as_number(), 3.0);
  EXPECT_EQ(line.at("failed").as_number(), 0.0);
  EXPECT_EQ(line.at("metrics").as_object().size(), end_to_end_names().size());
  EXPECT_EQ(line.at("metrics").at("setup_s").at("value").as_number(), 1.5);

  rep.traced = true;
  EXPECT_THROW((void)rep.summary_line(), std::logic_error);  // no per-layer metrics
  rep.hang = "op 7";
  EXPECT_FALSE(json::parse(rep.summary_line()).at("correct").as_bool());
}

TEST(Report, DigestMismatchIsIncorrect) {
  RunReport rep;
  rep.attempted = 1;
  EXPECT_TRUE(rep.correct());
  rep.digest_check = "mismatch";
  EXPECT_FALSE(rep.correct());
  rep.digest_check = "match";
  rep.determinism = "mismatch";
  EXPECT_FALSE(rep.correct());
}

}  // namespace
}  // namespace parcel::perf

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>

#include "cli.hpp"

namespace parcel::perf {
namespace {

Options parse(std::vector<std::string> args) { return parse_cli(args); }

TEST(Cli, ParsesARun) {
  const Options o = parse({"--workload", "live-faults", "--seed", "260", "--seconds", "5",
                           "--out", "r.json", "--trace", "t.json"});
  EXPECT_FALSE(o.compare);
  EXPECT_EQ(o.workload, "live-faults");
  EXPECT_EQ(o.seed, 260u);
  EXPECT_EQ(o.seconds, 5);
  EXPECT_EQ(o.out, "r.json");
  EXPECT_EQ(o.trace, "t.json");
  EXPECT_EQ(parse({"--workload", "paper-grid"}).seed, kDefaultSeed);
  EXPECT_EQ(parse({"--workload", "paper-grid", "--seed", "9007199254740992"}).seed, kMaxSeed);
}

TEST(Cli, ParsesCompare) {
  const Options o = parse({"--compare", "a", "b"});
  EXPECT_TRUE(o.compare);
  EXPECT_EQ(o.parent_dir, "a");
  EXPECT_EQ(o.change_dir, "b");
}

TEST(Cli, RejectsGarbage) {
  EXPECT_THROW(parse({}), UsageError);
  EXPECT_THROW(parse({"--workload", "paper_grid"}), UsageError);
  EXPECT_THROW(parse({"--workload"}), UsageError);
  // Above 2^53 a seed would not survive the result file's JSON number.
  for (const char* seed : {"", "-1", "+1", " 1", "1x", "0x10", "1.5", "9007199254740993",
                           "18446744073709551615", "99999999999999999999"}) {
    EXPECT_THROW(parse({"--workload", "paper-grid", "--seed", seed}), UsageError) << seed;
  }
  for (const char* secs : {"0", "-3", "3600x", "3601", "1e2"}) {
    EXPECT_THROW(parse({"--workload", "paper-grid", "--seconds", secs}), UsageError) << secs;
  }
  EXPECT_THROW(parse({"--workload", "paper-grid", "extra"}), UsageError);
  EXPECT_THROW(parse({"--workload", "paper-grid", "--frobnicate"}), UsageError);
  EXPECT_THROW(parse({"--compare", "a"}), UsageError);
  EXPECT_THROW(parse({"--compare", "a", "b", "--workload", "paper-grid"}), UsageError);
}

int exit_code(const std::string& args) {
  const std::string cmd = std::string(PARCEL_BENCH_BIN) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(Cli, BinaryExitsTwoOnUsageErrors) {
  EXPECT_EQ(exit_code("--workload nope"), 2);
  EXPECT_EQ(exit_code("--workload paper-grid --seed 12abc"), 2);
  EXPECT_EQ(exit_code("--workload paper-grid --seed 1 junk"), 2);
  EXPECT_EQ(exit_code(""), 2);
}

TEST(Cli, BinaryRefusesKillSwitches) {
  for (const char* var : {"PARCEL_ARENA", "PARCEL_PARSE_CACHE", "PARCEL_CTRL",
                          "PARCEL_FAULT_SEED"}) {
    const std::string cmd = std::string("env ") + var + "=1 " + PARCEL_BENCH_BIN +
                            " --workload paper-grid --seconds 1 >/dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << var;
    EXPECT_EQ(WEXITSTATUS(status), 2) << var;
  }
}

}  // namespace
}  // namespace parcel::perf

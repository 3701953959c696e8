// parcel_bench: one workload per process, closed-loop on one simulation
// thread plus an idle stall watchdog. See README.md for the workloads, the
// metrics and how to compare two builds.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "compare.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "watchdog.hpp"
#include "workloads.hpp"

namespace {

using namespace parcel::perf;

// Longer than any single op takes (a faulted live load is ~10 ms), short
// enough that a hung run still ends well inside three minutes.
constexpr std::chrono::seconds kStallLimit{60};

constexpr const char* kUsage =
    "usage: parcel_bench --workload paper-grid|fresh-pages|live-faults|fleet-stream\n"
    "                    [--seed N] [--seconds S] [--out FILE.json] [--trace FILE]\n"
    "       parcel_bench --compare PARENT_DIR CHANGE_DIR\n";

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.flush();
  return static_cast<bool>(out);
}

/// Reports the op that stopped returning and ends the process: exit 3,
/// with the hung op and the ops that never ran counted as failed.
[[noreturn]] void on_stall(const Options& opts, const Progress& progress,
                           std::chrono::milliseconds idle) {
  const Progress::Snapshot s = progress.snapshot();
  std::fprintf(stderr,
               "parcel_bench: no op completed for %.0f s; hung at workload=%s op=%llu "
               "page=%s scheme=%s run_seed=%llu faults=%s\n",
               static_cast<double>(idle.count()) / 1e3, s.workload.c_str(),
               static_cast<unsigned long long>(s.op), s.page.c_str(), s.scheme.c_str(),
               static_cast<unsigned long long>(s.run_seed), s.faults.c_str());
  RunReport rep;
  rep.workload = opts.workload;
  rep.seed = opts.seed;
  rep.seconds = opts.seconds;
  rep.traced = !opts.trace.empty();
  rep.hardware_threads = std::thread::hardware_concurrency();
  rep.attempted = s.attempted + 1;
  rep.failed = s.failed + 1;
  rep.hang = "op " + std::to_string(s.op) + " " + s.scheme + " " + s.page + " run_seed " +
             std::to_string(s.run_seed) + " faults " + s.faults;
  if (!opts.out.empty()) (void)write_text(opts.out, rep.to_json().dump() + "\n");
  std::printf("%s\n", rep.summary_line().c_str());
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(3);
}

int run(const Options& opts) {
  Progress progress;
  Watchdog watchdog(kStallLimit, [&](std::chrono::milliseconds idle) {
    on_stall(opts, progress, idle);
  });
  progress.attach(&watchdog);

  std::optional<SpanRecorder> spans;
  if (!opts.trace.empty()) spans.emplace();
  const RunReport rep = run_workload(opts, progress, spans ? &*spans : nullptr);

  int status = rep.correct() ? 0 : 1;
  if (spans) {
    try {
      spans->write_chrome_trace(opts.trace);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      status = 1;
    }
  }
  if (!opts.out.empty() && !write_text(opts.out, rep.to_json().dump() + "\n")) {
    std::fprintf(stderr, "error: cannot write %s\n", opts.out.c_str());
    status = 1;
  }
  rep.print(stdout);
  std::printf("%s\n", rep.summary_line().c_str());
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  try {
    opts = parse_cli(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), kUsage);
    return 2;
  }
  if (opts.compare) {
    return run_compare(opts.parent_dir, opts.change_dir, "BENCHMARK.json", stdout);
  }
  const std::vector<std::string> env = forbidden_env();
  if (!env.empty()) {
    std::fprintf(stderr,
                 "error: %s is set; the benchmark measures the default build only, "
                 "unset it and rerun\n",
                 env.front().c_str());
    return 2;
  }
  try {
    return run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

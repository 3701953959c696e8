// Fault-recovery tracking bench.
//
// Runs a PARCEL(IND) + DIR grid under a canonical fault plan (loss +
// blackout + mid-load proxy crash) and asserts the robustness contract:
// every run completes inside the capture window, the crash actually
// triggers the degradation ladder (direct-to-origin fetches > 0), and
// the faulted grid is bitwise identical across jobs=1 and jobs=4.
// Results go to stdout and BENCH_faults.json so recovery latency and
// retransmission cost are machine-trackable across PRs.
//
// --faults SPEC substitutes the canonical plan; a `seed=N` term in it
// reseeds the plan.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"

namespace {

using namespace parcel;
namespace json = bench::json;

// Mid-load crash: late enough that the proxy has started pushing,
// early enough that most corpus pages are still incomplete.
const char* kCanonicalPlan = "loss=0.02,blackout=3+0.8,crash=1.2,seed=7";

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::parse_options(argc, argv);
  bench::print_header("Fault recovery",
                      "loss + blackout + proxy crash; completion, fallback, "
                      "determinism");

  sim::FaultPlan plan = opts.faults.enabled()
                            ? opts.faults
                            : sim::FaultPlan::parse(kCanonicalPlan);
  const std::string spec = plan.str();
  std::printf("fault plan: %s\n", spec.c_str());

  const int pages = opts.quick ? 4 : std::min(opts.pages, 8);
  bench::Corpus corpus = bench::build_corpus(pages);

  std::vector<core::ExperimentTask> tasks;
  const std::vector<core::Scheme> schemes{core::Scheme::kParcelInd,
                                          core::Scheme::kDir};
  for (std::size_t p = 0; p < corpus.replayed.size(); ++p) {
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      core::RunConfig cfg = bench::replay_run_config(1 + 101ULL * p + 7ULL * s);
      cfg.testbed.faults = plan;
      tasks.push_back(core::ExperimentTask{schemes[s], corpus.replayed[p],
                                           cfg});
    }
  }

  std::vector<core::RunResult> serial = core::run_experiments(tasks, 1);
  std::vector<core::RunResult> fanned = core::run_experiments(tasks, 4);
  const bool identical = bench::same_results(serial, fanned);

  bool all_completed = true;
  std::size_t degraded_runs = 0, direct_fetches = 0;
  std::uint64_t retransmits = 0, drops = 0, deferrals = 0;
  double recovery_sum = 0.0;
  std::size_t recovery_n = 0;
  for (const core::RunResult& r : serial) {
    all_completed = all_completed && r.ok;
    degraded_runs += r.degraded ? 1 : 0;
    direct_fetches += r.direct_fetches;
    retransmits += r.retransmits;
    drops += r.fault_drops;
    deferrals += r.fault_deferrals;
    if (r.recovery > util::Duration::zero()) {
      recovery_sum += r.recovery.sec();
      ++recovery_n;
    }
  }
  const double mean_recovery = recovery_n ? recovery_sum / static_cast<double>(recovery_n) : 0.0;
  const bool crash_planned = plan.proxy_crash_at.has_value();
  const bool fallback_exercised = !crash_planned || direct_fetches > 0;

  std::printf("runs: %zu (%d pages x %zu schemes)\n", serial.size(), pages,
              schemes.size());
  std::printf("all completed:        %s\n", all_completed ? "yes" : "NO");
  std::printf("degraded runs:        %zu\n", degraded_runs);
  std::printf("direct fetches:       %zu%s\n", direct_fetches,
              fallback_exercised ? "" : "  (EXPECTED > 0)");
  std::printf("tcp retransmits:      %llu\n",
              static_cast<unsigned long long>(retransmits));
  std::printf("bursts dropped:       %llu, deferred: %llu\n",
              static_cast<unsigned long long>(drops),
              static_cast<unsigned long long>(deferrals));
  std::printf("mean recovery:        %.3fs over %zu faulted runs\n",
              mean_recovery, recovery_n);
  std::printf("jobs=1 == jobs=4:     %s\n",
              identical ? "yes" : "NO — DETERMINISM BROKEN");

  const json::Value report{json::Value::Object{
      {"plan", spec},
      {"pages", pages},
      {"runs", serial.size()},
      {"all_completed", all_completed},
      {"degraded_runs", degraded_runs},
      {"direct_fetches", direct_fetches},
      {"retransmits", retransmits},
      {"fault_drops", drops},
      {"fault_deferrals", deferrals},
      {"mean_recovery_sec", mean_recovery},
      {"deterministic_across_jobs", identical},
  }};
  if (!bench::write_json("BENCH_faults.json", report)) return 1;
  std::printf("\nwrote BENCH_faults.json\n");

  return (all_completed && fallback_exercised && identical) ? 0 : 1;
}

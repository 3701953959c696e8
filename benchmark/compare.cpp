#include "compare.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "cli.hpp"
#include "stats.hpp"

namespace parcel::perf {

namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument("cannot read " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

struct RunFile {
  std::uint64_t seed = 0;
  std::string digest;
  json::Value e2e;
};

/// workload -> untraced runs in `dir`. Traced result files carry no
/// end-to-end metrics and are skipped.
std::map<std::string, std::vector<RunFile>> load_runs(const std::string& dir) {
  std::map<std::string, std::vector<RunFile>> runs;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    try {
      const json::Value doc = json::parse(read_file(path));
      const json::Value& e2e = doc.at("e2e");
      if (e2e.as_object().empty()) continue;
      RunFile run;
      run.seed = static_cast<std::uint64_t>(doc.at("seed").as_number());
      run.digest = doc.at("digest").as_string();
      run.e2e = e2e;
      runs[doc.at("workload").as_string()].push_back(std::move(run));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(path.string() + ": " + e.what());
    }
  }
  return runs;
}

SeededValues values_of(const std::vector<RunFile>& runs, const std::string& metric) {
  SeededValues out;
  for (const RunFile& run : runs) {
    if (const json::Value* m = run.e2e.find(metric)) {
      out.emplace_back(run.seed, m->at("value").as_number());
    }
  }
  return out;
}

std::vector<double> plain(const SeededValues& v) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const auto& [seed, value] : v) out.push_back(value);
  return out;
}

}  // namespace

std::string_view to_string(Verdict v) {
  switch (v) {
    case Verdict::kBetter: return "better";
    case Verdict::kSame: return "same";
    case Verdict::kWorse: return "worse";
    case Verdict::kUnresolved: return "unresolved";
  }
  return "?";
}

Verdict judge(const MetricSpec& spec, const SeededValues& parent, const SeededValues& change) {
  if (parent.empty() || change.empty()) return Verdict::kUnresolved;
  const auto better = [&](double a, double b) {
    return spec.higher_is_better ? a > b : a < b;
  };
  bool every_change_beats_every_parent = true;
  for (const auto& [cs, c] : change) {
    for (const auto& [ps, p] : parent) {
      if (!better(c, p)) every_change_beats_every_parent = false;
    }
  }
  const Quartiles qp = quartiles(plain(parent));
  const Quartiles qc = quartiles(plain(change));
  if (std::max(qp.spread(), qc.spread()) > spec.bound) {
    return every_change_beats_every_parent ? Verdict::kBetter : Verdict::kUnresolved;
  }

  // Signed worsening of the change's median, as a share of the parent's.
  double worse_by = 0.0;
  if (qp.median != 0.0) {
    const double delta = spec.higher_is_better ? qp.median - qc.median : qc.median - qp.median;
    worse_by = delta / std::fabs(qp.median);
  } else if (qc.median != qp.median) {
    worse_by = better(qc.median, qp.median) ? -std::numeric_limits<double>::infinity()
                                            : std::numeric_limits<double>::infinity();
  }
  if (worse_by > spec.bound) return Verdict::kWorse;

  // A gain needs the medians apart by more than the parent's own spread,
  // and the change winning 9 of 10 runs paired by seed (ties win nothing).
  std::size_t pairs = 0;
  std::size_t wins = 0;
  for (const auto& [cs, c] : change) {
    for (const auto& [ps, p] : parent) {
      if (cs != ps) continue;
      ++pairs;
      if (better(c, p)) ++wins;
    }
  }
  const bool wins_pairs = pairs == 0 ? every_change_beats_every_parent
                                     : static_cast<double>(wins) >= 0.9 * static_cast<double>(pairs);
  if (-worse_by > qp.spread() && wins_pairs) return Verdict::kBetter;
  return Verdict::kSame;
}

std::vector<MetricSpec> read_metric_specs(const json::Value& benchmark) {
  std::vector<MetricSpec> specs;
  for (const json::Value& entry : benchmark.at("end_to_end").as_array()) {
    MetricSpec spec;
    spec.name = entry.at("name").as_string();
    spec.unit = entry.at("unit").as_string();
    const std::string& better = entry.at("better").as_string();
    if (better != "higher" && better != "lower") {
      throw std::invalid_argument("metric " + spec.name + ": better must be higher or lower");
    }
    spec.higher_is_better = better == "higher";
    spec.bound = entry.at("bound").as_number();
    specs.push_back(std::move(spec));
  }
  return specs;
}

int run_compare(const std::string& parent_dir, const std::string& change_dir,
                const std::string& benchmark_json, std::FILE* out) {
  std::vector<MetricSpec> specs;
  std::map<std::string, std::vector<RunFile>> parent;
  std::map<std::string, std::vector<RunFile>> change;
  try {
    specs = read_metric_specs(json::parse(read_file(benchmark_json)));
    parent = load_runs(parent_dir);
    change = load_runs(change_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: --compare: %s\n", e.what());
    return 2;
  }

  bool any_worse = false;
  bool digest_mismatch = false;
  std::fprintf(out, "%-13s %-17s %-34s %-34s %7s %6s  %s\n", "workload", "metric",
               "parent median [q1, q3]", "change median [q1, q3]", "ratio", "bound",
               "verdict");
  for (const std::string& workload : workload_names()) {
    const auto p = parent.find(workload);
    const auto c = change.find(workload);
    if (p == parent.end() && c == change.end()) continue;
    if (p == parent.end() || c == change.end()) {
      std::fprintf(out, "%-13s no %s runs: unresolved\n", workload.c_str(),
                   p == parent.end() ? "parent" : "change");
      continue;
    }
    for (const RunFile& pr : p->second) {
      for (const RunFile& cr : c->second) {
        if (pr.seed == cr.seed && pr.digest != cr.digest) {
          std::fprintf(out, "%-13s seed %llu: digest %s (parent) != %s (change)\n",
                       workload.c_str(), static_cast<unsigned long long>(pr.seed),
                       pr.digest.c_str(), cr.digest.c_str());
          digest_mismatch = true;
        }
      }
    }
    for (const MetricSpec& spec : specs) {
      const SeededValues pv = values_of(p->second, spec.name);
      const SeededValues cv = values_of(c->second, spec.name);
      const Verdict v = judge(spec, pv, cv);
      any_worse = any_worse || v == Verdict::kWorse;
      const Quartiles qp = quartiles(plain(pv));
      const Quartiles qc = quartiles(plain(cv));
      char left[64];
      char right[64];
      std::snprintf(left, sizeof left, "%.6g [%.6g, %.6g]", qp.median, qp.q1, qp.q3);
      std::snprintf(right, sizeof right, "%.6g [%.6g, %.6g]", qc.median, qc.q1, qc.q3);
      std::fprintf(out, "%-13s %-17s %-34s %-34s %7.4f %6.3f  %s\n", workload.c_str(),
                   spec.name.c_str(), left, right,
                   qp.median == 0.0 ? 0.0 : qc.median / qp.median, spec.bound,
                   std::string(to_string(v)).c_str());
    }
  }
  if (digest_mismatch) std::fprintf(out, "digests differ: the two sides simulate different things\n");
  return any_worse || digest_mismatch ? 1 : 0;
}

}  // namespace parcel::perf

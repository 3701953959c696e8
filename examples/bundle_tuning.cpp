// Bundle tuning: use the §6 analytical model to pick a PARCEL(X)
// threshold for your page and network, then verify the prediction in the
// simulator. Demonstrates AnalyticalModel alongside the live system.
#include <cstdio>

#include "core/analysis.hpp"
#include "core/session.hpp"
#include "core/testbed.hpp"
#include "lte/energy.hpp"
#include "replay/replay_store.hpp"
#include "web/generator.hpp"

using namespace parcel;

namespace {

struct SweepPoint {
  double threshold_kb;
  double olt_sec;
  double radio_j;
};

SweepPoint run_threshold(const web::WebPage& page, util::Bytes threshold,
                         std::uint64_t seed) {
  core::Testbed testbed{core::TestbedConfig{}};
  testbed.host_page(page);
  core::ParcelSessionConfig cfg;
  cfg.proxy.bundle.threshold = threshold;
  core::ParcelSession session(testbed.network(), cfg, util::Rng(seed));
  SweepPoint point{static_cast<double>(threshold) / 1024.0, 0, 0};
  core::ParcelSession::Callbacks cbs;
  cbs.on_onload = [&](util::TimePoint t) { point.olt_sec = t.sec(); };
  session.load(page.main_url(), std::move(cbs));
  testbed.scheduler().run_until(util::TimePoint::at_seconds(60));
  lte::EnergyAnalyzer analyzer{lte::RrcConfig{}};
  point.radio_j = analyzer.analyze(testbed.client_trace(), true).total.j();
  return point;
}

}  // namespace

int main() {
  // A hefty page where bundling actually matters (paper Fig 9c: > 2 MB).
  web::PageSpec spec;
  spec.site = "tuning.example.com";
  spec.object_count = 180;
  spec.total_bytes = util::mib(3);
  spec.seed = 7;
  web::WebPage live = web::PageGenerator::generate(spec);
  replay::ReplayStore store;
  store.record(live);
  const web::WebPage& page = *store.find(live.main_url().str());

  // Model the trade-off first.
  core::ModelParams params;
  params.onload_bytes = page.onload_bytes();
  params.download_bytes_per_sec = 6e6 / 8.0;  // expected LTE goodput
  params.proxy_onload = util::Duration::seconds(1.5);
  core::AnalyticalModel model(params);
  std::printf("page onload bytes: %.2f MB\n",
              static_cast<double>(params.onload_bytes) / 1048576.0);
  std::printf("alpha=%.3f  ->  analytic optimal bundle b* = %.0f KB "
              "(n* = %.1f)\n\n",
              model.alpha(),
              static_cast<double>(model.optimal_bundle_bytes()) / 1024.0,
              model.optimal_bundle_count());

  std::printf("%14s %10s %12s\n", "threshold(KB)", "OLT(s)", "radio(J)");
  for (util::Bytes x : {util::kib(128), util::kib(256), util::kib(512),
                        util::mib(1), util::mib(2), util::mib(4)}) {
    SweepPoint p = run_threshold(page, x, 5);
    std::printf("%14.0f %10.2f %12.2f\n", p.threshold_kb, p.olt_sec,
                p.radio_j);
  }
  std::printf("\nsmaller bundles: lower OLT; larger bundles: fewer radio\n"
              "wakes. Pick by which side of the trade-off your users feel.\n");
  return 0;
}

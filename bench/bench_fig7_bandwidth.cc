// Reproduces Fig 7: bandwidth consumption of the client (7a) and the origin
// server (7b) during a sustained SBR attack -- m requests per second for 30
// seconds against a 1000 Mbps origin uplink, m = 1..15.
//
// The per-request byte costs are measured on the same Cloudflare-profile
// testbed the paper used (10 MB target resource); the time domain comes from
// the processor-sharing uplink model (sim/attack_load.h).
// Observability (both OFF by default; neither changes a single CSV byte):
//   RANGEAMP_TRACE=1    trace the per-request cost measurement, write
//                       fig7_trace.jsonl,
//   RANGEAMP_METRICS=1  project the origin-out time series onto sim-clock
//                       sampled gauges, write fig7_metrics_series.csv.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/rangeamp.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace rangeamp;

int main() {
  constexpr std::uint64_t kTarget = 10 * (1u << 20);

  obs::Tracer tracer;
  obs::Tracer* trace = std::getenv("RANGEAMP_TRACE") ? &tracer : nullptr;
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* metrics =
      std::getenv("RANGEAMP_METRICS") ? &registry : nullptr;

  // Per-request costs, measured once on the byte-exact testbed.
  const core::SbrMeasurement unit =
      core::measure_sbr(cdn::Vendor::kCloudflare, kTarget, {}, trace);
  if (trace) {
    core::write_file("fig7_trace.jsonl", trace->to_jsonl());
    std::printf("RANGEAMP_TRACE: %zu spans written to fig7_trace.jsonl\n",
                trace->spans().size());
  }
  std::printf("Per-request costs (Cloudflare, 10 MB target): origin sends "
              "%llu B, client receives %llu B (AF %.0f)\n\n",
              static_cast<unsigned long long>(unit.origin_response_bytes),
              static_cast<unsigned long long>(unit.client_response_bytes),
              unit.amplification);

  core::Table summary({"m (req/s)", "origin out mean Mbps", "origin out peak Mbps",
                       "client in peak Kbps", "origin saturated"});

  // Full time series for the CSV (one column per m).
  std::vector<std::vector<sim::BandwidthSample>> all;
  for (int m = 1; m <= 15; ++m) {
    sim::AttackLoadConfig config;
    config.requests_per_second = m;
    config.origin_response_bytes = unit.origin_response_bytes;
    config.client_response_bytes = unit.client_response_bytes;
    const auto series = sim::simulate_attack_load(config);
    const auto stats = sim::summarize(config, series);
    summary.add_row({std::to_string(m), core::fixed(stats.mean_origin_out_mbps, 1),
                     core::fixed(stats.peak_origin_out_mbps, 1),
                     core::fixed(stats.peak_client_in_kbps, 1),
                     stats.saturated ? "YES" : "no"});
    all.push_back(series);
  }

  std::printf("Fig 7 -- bandwidth consumption vs attack rate m\n\n%s\n",
              summary.to_markdown().c_str());

  std::vector<std::string> header{"t_s"};
  for (int m = 1; m <= 15; ++m) header.push_back("m=" + std::to_string(m));
  core::Table fig7a(header), fig7b(header);
  for (std::size_t t = 0; t < all[0].size(); ++t) {
    std::vector<std::string> row_a{std::to_string(t)};
    std::vector<std::string> row_b{std::to_string(t)};
    for (const auto& series : all) {
      row_a.push_back(core::fixed(series[t].client_in_kbps, 2));
      row_b.push_back(core::fixed(series[t].origin_out_mbps, 2));
    }
    fig7a.add_row(row_a);
    fig7b.add_row(row_b);
  }
  core::write_file("fig7a_client_in_kbps.csv", fig7a.to_csv());
  core::write_file("fig7b_origin_out_mbps.csv", fig7b.to_csv());
  std::printf("Time series written to fig7a_client_in_kbps.csv / "
              "fig7b_origin_out_mbps.csv\n\n");

  if (metrics) {
    // The same series through the metrics pipeline: one gauge per attack
    // rate, sampled at each simulated second.
    std::vector<obs::Gauge*> gauges;
    for (int m = 1; m <= 15; ++m) {
      gauges.push_back(&registry.gauge(
          "fig7_origin_out_mbps{m=\"" + std::to_string(m) + "\"}",
          "origin uplink egress during a sustained SBR campaign"));
    }
    for (std::size_t t = 0; t < all[0].size(); ++t) {
      for (std::size_t i = 0; i < gauges.size(); ++i) {
        gauges[i]->set(all[i][t].origin_out_mbps);
      }
      registry.sample(static_cast<double>(t));
    }
    core::write_file("fig7_metrics_series.csv", registry.series_csv());
    std::printf("RANGEAMP_METRICS: %zu samples written to "
                "fig7_metrics_series.csv\n\n",
                registry.sample_count());
  }

  return 0;
}

// Overload-control chaos grid: SBR/OBR deployments against slow and flaky
// origins, with the overload subsystem (watermarks + deadlines + retry
// budgets) swept off / on.
//
// Each run drives a seeded stream of cache-busting range requests through a
// CDN deployment whose origin leg misbehaves on a deterministic schedule:
//
//   slow   every upstream transfer carries 8 s of injected latency -- the
//          stuck-origin shape of the node-exhaustion experiment;
//   flaky  seeded per-transfer coin flips between connection resets and
//          upstream 503s -- the retry-storm shape of docs/fault-model.md.
//
// Four invariants are checked per run; the process exits non-zero on any
// breach (the CI overload gate):
//
//   I1  shed is cheap: with the knobs on, every upstream wire exchange is an
//       accounted attempt (first attempts + granted retries, per node) --
//       watermark-shed and deadline-refused requests never touch the wire;
//   I2  expired legs never store: in slow mode with deadlines on, no origin
//       response byte crosses the wire and every cache stays empty;
//   I3  retries within budget: per node, granted retries never exceed
//       max(min_retries, floor(ratio * first_attempts));
//   I4  off is byte-identical: the knobs-off run replays byte-identically
//       (the committed CSV is further drift-gated by reproduce.sh).
//
// A DES coda projects the deadline knob onto the OBR node-exhaustion model
// (sim::ShieldedLoadConfig.deadline_seconds): cancelled flows must cut the
// origin uplink's pinned-resource time against the unprotected baseline.
// Everything is seeded and clock-driven; two runs emit byte-identical CSVs
// (overload_ablation.csv).
//
// RANGEAMP_METRICS=1 additionally exports the accumulated overload counter
// catalogue as overload_metrics.prom (validated by scripts/check_metrics.py
// in CI).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "core/rangeamp.h"
#include "obs/metrics.h"
#include "sim/attack_load.h"

using namespace rangeamp;

namespace {

constexpr std::uint64_t kFileSize = 1u << 20;  // 1 MiB resource
constexpr std::string_view kPath = "/asset.bin";
constexpr std::uint64_t kSeeds[] = {0x0AD1, 0x0AD2, 0x0AD3, 0x0AD4};
constexpr double kSlowLatencySeconds = 8.0;
constexpr double kRequestSpacingSeconds = 0.05;

cdn::OverloadPolicy storm_policy() {
  cdn::OverloadPolicy policy;
  policy.watermarks.enabled = true;
  policy.watermarks.window_seconds = 1.0;
  policy.watermarks.queue_low = 8;
  policy.watermarks.queue_high = 14;
  policy.watermarks.retry_after_seconds = 15;
  policy.deadline.enabled = true;
  policy.deadline.default_budget_seconds = 5.0;
  policy.deadline.per_hop_min_seconds = 0.05;
  policy.deadline.propagate = true;
  policy.retry_budget.enabled = true;
  policy.retry_budget.ratio = 0.25;
  policy.retry_budget.min_retries = 3;
  policy.retry_budget.window_seconds = 1e9;  // covers the whole run
  policy.retry_budget.count_chain_attempts = true;
  return policy;
}

void schedule_faults(net::FaultInjector& faults, const std::string& origin_mode,
                     std::uint64_t seed) {
  if (origin_mode == "slow") {
    faults.fail_always(net::FaultSpec::latency(kSlowLatencySeconds));
  } else {  // flaky: seeded mix of resets and upstream 503s
    faults.fail_rate(0.3, seed * 2654435761u + 1, net::FaultSpec::reset());
    faults.fail_rate(0.3, seed * 0x9e3779b9u + 2,
                     net::FaultSpec::status_code(503));
  }
}

struct RunResult {
  int requests = 0;
  std::uint64_t upstream_attempts = 0;  ///< origin-leg wire exchanges
  std::uint64_t first_attempts = 0;     ///< summed over nodes
  std::uint64_t retries_granted = 0;
  std::uint64_t retries_denied = 0;
  std::uint64_t shed = 0;      ///< watermark 503s (high + stale-less band)
  std::uint64_t degraded = 0;  ///< non-admit watermark verdicts
  std::uint64_t deadline_cancelled = 0;  ///< ingress refusals + cut legs
  std::uint64_t chain_attempts = 0;
  std::uint64_t client_request_bytes = 0;
  std::uint64_t client_response_bytes = 0;
  std::uint64_t origin_request_bytes = 0;
  std::uint64_t origin_response_bytes = 0;
  std::uint64_t cancelled_origin_bytes = 0;  ///< DES rows only
  std::uint64_t cached_entries = 0;
  std::vector<std::string> invariant_failures;
};

std::uint64_t real_entries(const cdn::Cache& cache) {
  std::uint64_t n = 0;
  cache.for_each([&](const std::string&, const cdn::CachedEntity& entry) {
    if (entry.content_type == "#negative") return;             // negative cache
    if (entry.entity.empty() && !entry.vary.empty()) return;   // Vary marker
    ++n;
  });
  return n;
}

void collect_node(const std::string& name, cdn::CdnNode& node, bool knobs_on,
                  RunResult& out) {
  const cdn::OverloadStats& stats = node.overload_stats();
  out.first_attempts += stats.attempts.first_attempts;
  out.retries_granted += stats.attempts.retries;
  out.retries_denied += stats.retries_denied;
  out.shed += stats.shed_total();
  out.degraded += stats.degraded + stats.shed_high_watermark;
  out.deadline_cancelled +=
      stats.deadline_rejected_ingress + stats.deadline_cancelled_legs;
  out.chain_attempts += stats.chain_attempts;
  out.cached_entries += real_entries(node.cache());

  if (!knobs_on) return;
  // I1: every wire exchange on this node's upstream segment is an accounted
  // attempt -- shed and deadline-refused requests never touched the wire.
  const std::uint64_t exchanges = node.upstream_traffic().exchange_count();
  const std::uint64_t accounted =
      stats.attempts.first_attempts + stats.attempts.retries;
  if (exchanges != accounted) {
    out.invariant_failures.push_back(
        "I1 unaccounted wire exchanges at " + name + ": " +
        std::to_string(exchanges) + " exchanges vs " +
        std::to_string(accounted) + " accounted attempts");
  }
  // I3: granted retries within the budget the policy advertises.  (Chain
  // attempts consume the same window, so they only shrink what can be
  // granted -- the bound below stays valid with them in flight.)
  const cdn::RetryBudgetPolicy& rb = node.overload().policy().retry_budget;
  const auto allowed = static_cast<std::uint64_t>(std::max(
      rb.min_retries,
      static_cast<int>(rb.ratio *
                       static_cast<double>(stats.attempts.first_attempts))));
  if (stats.attempts.retries > allowed) {
    out.invariant_failures.push_back(
        "I3 retry budget exceeded at " + name + ": " +
        std::to_string(stats.attempts.retries) + " granted > " +
        std::to_string(allowed) + " allowed");
  }
}

// One seeded SBR run: client -> Akamai-profile CDN -> faulted origin leg.
RunResult run_sbr(const std::string& origin_mode, bool knobs_on,
                  std::uint64_t seed, obs::MetricsRegistry* metrics) {
  origin::OriginServer origin;
  origin.resources().add_synthetic(std::string{kPath}, kFileSize);

  cdn::VendorProfile profile = cdn::make_profile(cdn::Vendor::kAkamai);
  profile.traits.resilience.max_retries = 3;
  if (knobs_on) profile.traits.overload = storm_policy();
  cdn::CdnNode cdn(std::move(profile), origin, "cdn-origin");
  if (metrics) cdn.set_metrics(metrics);

  double now = 0;
  cdn.set_clock([&now] { return now; });
  net::FaultInjector faults;
  schedule_faults(faults, origin_mode, seed);
  cdn.set_upstream_fault_injector(&faults);

  net::TrafficRecorder client_traffic("client-cdn");
  net::Wire client_wire(client_traffic, cdn);

  http::Rng rng(seed * 0x51eded1ull + 5);
  RunResult out;
  out.requests = 48;
  for (int i = 0; i < out.requests; ++i) {
    now = i * kRequestSpacingSeconds;
    auto request =
        http::make_get(std::string{core::kDefaultHost},
                       std::string{kPath} + "?cb=" + std::to_string(i));
    const std::uint64_t first = rng.below(kFileSize);
    const std::uint64_t last = std::min(kFileSize - 1, first + rng.below(1024));
    request.headers.add("Range", "bytes=" + std::to_string(first) + "-" +
                                     std::to_string(last));
    client_wire.transfer(request);
  }

  out.upstream_attempts = cdn.upstream_traffic().exchange_count();
  out.client_request_bytes = client_traffic.request_bytes();
  out.client_response_bytes = client_traffic.response_bytes();
  out.origin_request_bytes = cdn.upstream_traffic().request_bytes();
  out.origin_response_bytes = cdn.upstream_traffic().response_bytes();
  collect_node("cdn", cdn, knobs_on, out);
  return out;
}

// One seeded OBR cascade run: client -> Cloudflare-bypass FCDN -> StackPath
// BCDN -> faulted origin leg.  With the knobs on, both hops run the policy,
// so FCDN retries reach the BCDN with attempt-count headers and charge its
// budget (the cross-hop half of the subsystem).
RunResult run_obr(const std::string& origin_mode, bool knobs_on,
                  std::uint64_t seed, obs::MetricsRegistry* metrics) {
  origin::OriginServer origin;
  origin.resources().add_synthetic(std::string{kPath}, kFileSize);

  cdn::ProfileOptions bypass;
  bypass.cloudflare_mode = cdn::ProfileOptions::CloudflareMode::kBypass;
  cdn::VendorProfile fcdn_profile =
      cdn::make_profile(cdn::Vendor::kCloudflare, bypass);
  cdn::VendorProfile bcdn_profile = cdn::make_profile(cdn::Vendor::kStackPath);
  fcdn_profile.traits.resilience.max_retries = 2;
  bcdn_profile.traits.resilience.max_retries = 3;
  if (knobs_on) {
    fcdn_profile.traits.overload = storm_policy();
    bcdn_profile.traits.overload = storm_policy();
  }
  cdn::CdnNode bcdn(std::move(bcdn_profile), origin, "bcdn-origin");
  cdn::CdnNode fcdn(std::move(fcdn_profile), bcdn, "fcdn-bcdn");
  if (metrics) {
    fcdn.set_metrics(metrics);
    bcdn.set_metrics(metrics);
  }

  double now = 0;
  fcdn.set_clock([&now] { return now; });
  bcdn.set_clock([&now] { return now; });
  net::FaultInjector faults;
  schedule_faults(faults, origin_mode, seed);
  bcdn.set_upstream_fault_injector(&faults);

  net::TrafficRecorder client_traffic("client-fcdn");
  net::Wire client_wire(client_traffic, fcdn);

  http::Rng rng(seed * 0x9e3779b9u + 11);
  RunResult out;
  out.requests = 32;
  for (int i = 0; i < out.requests; ++i) {
    now = i * kRequestSpacingSeconds;
    auto request =
        http::make_get(std::string{core::kDefaultHost},
                       std::string{kPath} + "?cb=" + std::to_string(i));
    const std::size_t n = 2 + rng.below(5);
    std::string ranges = "bytes=";
    for (std::size_t k = 0; k < n; ++k) {
      if (k != 0) ranges += ",";
      ranges += std::to_string(rng.below(kFileSize / 4)) + "-";
    }
    request.headers.add("Range", ranges);
    client_wire.transfer(request);
  }

  out.upstream_attempts = bcdn.upstream_traffic().exchange_count();
  out.client_request_bytes = client_traffic.request_bytes();
  out.client_response_bytes = client_traffic.response_bytes();
  out.origin_request_bytes = bcdn.upstream_traffic().request_bytes();
  out.origin_response_bytes = bcdn.upstream_traffic().response_bytes();
  collect_node("fcdn", fcdn, knobs_on, out);
  collect_node("bcdn", bcdn, knobs_on, out);
  return out;
}

void check_run_invariants(const std::string& scenario,
                          const std::string& origin_mode, bool knobs_on,
                          std::uint64_t seed, RunResult& r) {
  // I2: slow origin + deadlines on -- every leg is cut at the budget before
  // the response crosses, and a deadline-expired leg never stores.
  if (knobs_on && origin_mode == "slow") {
    if (r.origin_response_bytes != 0) {
      r.invariant_failures.push_back(
          "I2 origin response bytes crossed a deadline-bound leg: " +
          std::to_string(r.origin_response_bytes));
    }
    if (r.cached_entries != 0) {
      r.invariant_failures.push_back(
          "I2 deadline-expired fetches were stored: " +
          std::to_string(r.cached_entries) + " entries");
    }
  }
  for (const auto& failure : r.invariant_failures) {
    std::fprintf(stderr, "INVARIANT VIOLATION [%s %s %s seed=%llu]: %s\n",
                 scenario.c_str(), origin_mode.c_str(),
                 knobs_on ? "on" : "off",
                 static_cast<unsigned long long>(seed), failure.c_str());
  }
}

void add_row(core::Table& table, const std::string& scenario,
             const std::string& origin_mode, bool knobs_on, std::uint64_t seed,
             const RunResult& r, double busy_seconds = 0) {
  table.add_row(
      {scenario, origin_mode, knobs_on ? "on" : "off", std::to_string(seed),
       std::to_string(r.requests), std::to_string(r.upstream_attempts),
       std::to_string(r.first_attempts), std::to_string(r.retries_granted),
       std::to_string(r.retries_denied), std::to_string(r.shed),
       std::to_string(r.degraded), std::to_string(r.deadline_cancelled),
       std::to_string(r.chain_attempts),
       std::to_string(r.client_request_bytes),
       std::to_string(r.client_response_bytes),
       std::to_string(r.origin_request_bytes),
       std::to_string(r.origin_response_bytes),
       std::to_string(r.cancelled_origin_bytes),
       std::to_string(r.cached_entries), core::fixed(busy_seconds, 3)});
}

// DES coda: the deadline knob projected onto the OBR node-exhaustion model.
// 20 x 10 MiB fetches per second against a 1000 Mbps uplink for 15 s -- a
// backlog the unprotected origin drains long after the attack stops.
sim::ShieldedLoadResult run_exhaustion(double deadline_seconds) {
  sim::ShieldedLoadConfig config;
  config.base.requests_per_second = 20;
  config.base.origin_response_bytes = 10u << 20;
  config.base.client_response_bytes = 822;
  config.base.origin_uplink_mbps = 1000.0;
  config.base.duration_s = 15.0;
  config.base.drain_s = 45.0;
  config.shed_response_bytes = 500;
  config.deadline_seconds = deadline_seconds;
  return sim::simulate_attack_load_shielded(config);
}

}  // namespace

int main() {
  core::Table table(
      {"scenario", "origin_mode", "overload", "seed", "requests",
       "upstream_attempts", "first_attempts", "retries_granted",
       "retries_denied", "shed", "degraded", "deadline_cancelled",
       "chain_attempts", "client_request_bytes", "client_response_bytes",
       "origin_request_bytes", "origin_response_bytes",
       "cancelled_origin_bytes", "cached_entries", "busy_seconds"});

  obs::MetricsRegistry metrics;
  bool clean = true;
  for (const std::string scenario : {"sbr-single", "obr-cascade"}) {
    for (const std::string origin_mode : {"slow", "flaky"}) {
      for (const bool knobs_on : {false, true}) {
        for (const std::uint64_t seed : kSeeds) {
          RunResult r = scenario == "sbr-single"
                            ? run_sbr(origin_mode, knobs_on, seed, &metrics)
                            : run_obr(origin_mode, knobs_on, seed, &metrics);
          if (!knobs_on) {
            // I4: the knobs-off world is deterministic and untouched by the
            // subsystem -- an identical replay must be byte-identical.
            const RunResult again =
                scenario == "sbr-single"
                    ? run_sbr(origin_mode, knobs_on, seed, nullptr)
                    : run_obr(origin_mode, knobs_on, seed, nullptr);
            if (again.client_request_bytes != r.client_request_bytes ||
                again.client_response_bytes != r.client_response_bytes ||
                again.origin_response_bytes != r.origin_response_bytes ||
                again.upstream_attempts != r.upstream_attempts) {
              r.invariant_failures.push_back("I4 knobs-off replay diverged");
            }
          }
          check_run_invariants(scenario, origin_mode, knobs_on, seed, r);
          if (!r.invariant_failures.empty()) clean = false;
          add_row(table, scenario, origin_mode, knobs_on, seed, r);
        }
      }
    }
  }

  // Node-exhaustion coda: pinned-resource time with and without deadlines.
  const sim::ShieldedLoadResult baseline = run_exhaustion(0);
  const sim::ShieldedLoadResult guarded = run_exhaustion(2.0);
  {
    RunResult base_row;
    base_row.requests = 20 * 15;
    base_row.upstream_attempts = baseline.origin_fetches;
    base_row.shed = baseline.shed;
    base_row.cancelled_origin_bytes =
        static_cast<std::uint64_t>(baseline.cancelled_origin_bytes);
    add_row(table, "des-exhaustion", "slow", false, 0, base_row,
            baseline.busy_seconds(1000.0));

    RunResult guard_row;
    guard_row.requests = 20 * 15;
    guard_row.upstream_attempts = guarded.origin_fetches;
    guard_row.shed = guarded.shed;
    guard_row.deadline_cancelled = guarded.deadline_cancelled;
    guard_row.cancelled_origin_bytes =
        static_cast<std::uint64_t>(guarded.cancelled_origin_bytes);
    if (guarded.deadline_cancelled == 0 ||
        guarded.busy_seconds(1000.0) >= baseline.busy_seconds(1000.0)) {
      guard_row.invariant_failures.push_back(
          "DES deadline failed to cut pinned-resource time");
      std::fprintf(stderr,
                   "INVARIANT VIOLATION [des-exhaustion]: busy %0.3f s with "
                   "deadlines vs %0.3f s baseline\n",
                   guarded.busy_seconds(1000.0), baseline.busy_seconds(1000.0));
      clean = false;
    }
    add_row(table, "des-exhaustion", "slow", true, 0, guard_row,
            guarded.busy_seconds(1000.0));
  }

  std::printf("# Overload-control storm grid\n\n%s\n",
              table.to_markdown().c_str());
  std::printf(
      "node exhaustion: busy %0.3f s -> %0.3f s with 2 s deadlines "
      "(%llu flows cancelled)\n",
      baseline.busy_seconds(1000.0), guarded.busy_seconds(1000.0),
      static_cast<unsigned long long>(guarded.deadline_cancelled));

  if (!core::write_file("overload_ablation.csv", table.to_csv())) {
    std::fprintf(stderr, "failed to write overload_ablation.csv\n");
    return EXIT_FAILURE;
  }
  std::printf("wrote overload_ablation.csv (%zu rows)\n", table.row_count());

  if (const char* env = std::getenv("RANGEAMP_METRICS");
      env && std::string_view{env} == "1") {
    if (!core::write_file("overload_metrics.prom", metrics.to_prometheus())) {
      std::fprintf(stderr, "failed to write overload_metrics.prom\n");
      return EXIT_FAILURE;
    }
    std::printf("wrote overload_metrics.prom (%zu metrics)\n",
                metrics.metric_count());
  }

  if (!clean) {
    std::fprintf(stderr,
                 "overload invariant violations detected -- see above\n");
    return EXIT_FAILURE;
  }
  std::printf("all overload invariants held across %zu seeds\n",
              std::size(kSeeds));
  return EXIT_SUCCESS;
}

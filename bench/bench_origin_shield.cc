// Origin-shield ablation: what each shielding defense buys back against the
// paper's range-amplification campaigns.
//
// The paper measures attacks against an undefended CDN; this bench re-runs
// them against the origin-shielding layer (CDN-Loop, request coalescing,
// circuit breaking + admission control) with each defense toggled
// separately, so the CSV reads as an ablation:
//
//   1. request coalescing: a same-key burst against a pass-through (no-store)
//      edge collapses N misses into one origin fetch, and a cache-busting
//      SBR campaign with partial key reuse drops its AF by the burst factor;
//   2. circuit breaker: a sustained SBR campaign against a faulty origin
//      (truncate-late, the retry-amplification worst case) is capped at the
//      trip threshold plus one probe per open window, instead of paying the
//      full entity per attempt for the whole campaign;
//   3. admission control: slow-origin pile-up is shed at the connection cap
//      with local 503s that never touch the origin;
//   4. CDN-Loop: a forwarding cascade still works with the defense on (the
//      header costs a few bytes), while an FCDN->BCDN->FCDN cycle -- the
//      paper's OBR topology bent into a loop -- terminates with 508 after a
//      bounded number of forwards, and forged CDN-Loop chains at ingress are
//      cut off at the hop cap;
//   5. Fig 7 projection: the shielded DES run shows the origin uplink
//      staying unsaturated under a load that pins the undefended one.
//
// Everything is seeded and clock-driven: two runs emit byte-identical CSVs.
#include <cstdio>
#include <cstdlib>

#include "core/rangeamp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/attack_load.h"

using namespace rangeamp;

namespace {

constexpr std::uint64_t kFileSize = 1u << 20;  // 1 MiB entity
constexpr std::string_view kPath = "/payload.bin";

struct Cell {
  int requests = 0;
  std::uint64_t origin_transfers = 0;
  std::uint64_t client_response_bytes = 0;
  std::uint64_t origin_response_bytes = 0;
  int ok_responses = 0;
  int unavailable_responses = 0;  ///< 5xx to the client (shed or degraded)
  cdn::ShieldStats stats;

  double af() const {
    return client_response_bytes == 0
               ? 0.0
               : static_cast<double>(origin_response_bytes) /
                     static_cast<double>(client_response_bytes);
  }
};

struct CampaignSpec {
  cdn::OriginShieldPolicy shield;
  bool disable_cache = false;  ///< pass-through edge: every request is a miss
  int requests = 160;
  int burst = 1;        ///< consecutive requests sharing one cache-busting key
  double rps = 16.0;    ///< campaign clock: request i is sent at i/rps
  int retries = 0;
  net::FaultInjector* faults = nullptr;
};

// A single-node SBR campaign (Range: bytes=0-0, key rotation per burst)
// against a Deletion-policy profile with the given shield settings.
Cell run_shielded_campaign(const CampaignSpec& spec) {
  cdn::VendorProfile profile = cdn::make_profile(cdn::Vendor::kAkamai);
  profile.traits.shield = spec.shield;
  profile.traits.cache_enabled = !spec.disable_cache;
  profile.traits.resilience.max_retries = spec.retries;

  core::SingleCdnTestbed bed(std::move(profile));
  bed.origin().resources().add_synthetic(std::string{kPath}, kFileSize);
  if (spec.faults) bed.set_origin_fault_injector(spec.faults);

  double now = 0.0;
  bed.cdn().set_clock([&now] { return now; });

  Cell out;
  out.requests = spec.requests;
  for (int i = 0; i < spec.requests; ++i) {
    now = static_cast<double>(i) / spec.rps;
    auto request = http::make_get(
        std::string{core::kDefaultHost},
        std::string{kPath} + "?cb=" + std::to_string(i / spec.burst));
    request.headers.add("Range", "bytes=0-0");
    const auto response = bed.send(request);
    if (response.status >= 500) {
      ++out.unavailable_responses;
    } else {
      ++out.ok_responses;
    }
  }
  out.origin_transfers = bed.origin_traffic().exchange_count();
  out.client_response_bytes = bed.client_traffic().response_bytes();
  out.origin_response_bytes = bed.origin_traffic().response_bytes();
  out.stats = bed.cdn().shield_stats();
  return out;
}

void add_row(core::Table& table, const std::string& scenario,
             const std::string& defense, const std::string& config,
             const Cell& c, const std::string& note = "") {
  table.add_row({scenario, defense, config, std::to_string(c.requests),
                 std::to_string(c.origin_transfers),
                 std::to_string(c.client_response_bytes),
                 std::to_string(c.origin_response_bytes), core::fixed(c.af(), 2),
                 std::to_string(c.stats.coalesced_hits),
                 std::to_string(c.stats.shed_total()),
                 std::to_string(c.stats.loop_rejects_total()), note});
}

cdn::OriginShieldPolicy coalescing_on() {
  cdn::OriginShieldPolicy shield;
  shield.coalescing.enabled = true;
  return shield;
}

cdn::OriginShieldPolicy breaker_on(int trip, int max_connections = 0) {
  cdn::OriginShieldPolicy shield;
  shield.breaker.enabled = true;
  shield.breaker.consecutive_failures_trip = trip;
  shield.breaker.max_connections = max_connections;
  return shield;
}

}  // namespace

int main() {
  core::Table table({"scenario", "defense", "config", "requests",
                     "origin_transfers", "client_response_bytes",
                     "origin_response_bytes", "af", "coalesced", "shed",
                     "loop_rejects", "note"});

  // ---- 1. request coalescing --------------------------------------------
  // Acceptance shape first: a burst of N same-key misses against a no-store
  // edge becomes exactly one origin fetch.
  {
    CampaignSpec spec;
    spec.disable_cache = true;
    spec.requests = 16;
    spec.burst = 16;  // one key for the whole burst
    const Cell off = run_shielded_campaign(spec);
    spec.shield = coalescing_on();
    const Cell on = run_shielded_campaign(spec);
    add_row(table, "same-key-burst", "none", "n=16 no-store", off);
    add_row(table, "same-key-burst", "coalescing", "n=16 no-store", on,
            "burst collapsed to " + std::to_string(on.origin_transfers) +
                " fetch");
    std::printf("same-key burst of 16 misses -> %llu origin fetch(es) "
                "with coalescing (%llu without)\n\n",
                static_cast<unsigned long long>(on.origin_transfers),
                static_cast<unsigned long long>(off.origin_transfers));
  }
  // Campaign grid: cache-busting rotation with partial key reuse.  With
  // burst=1 every key is fresh and the fill lock has nothing to collapse --
  // coalescing cannot defend against full cache-busting, only against
  // concurrent same-key misses.
  for (const int burst : {1, 8}) {
    for (const bool on : {false, true}) {
      CampaignSpec spec;
      spec.disable_cache = true;
      spec.burst = burst;
      if (on) spec.shield = coalescing_on();
      const Cell c = run_shielded_campaign(spec);
      add_row(table, "sbr-rotation", on ? "coalescing" : "none",
              "burst=" + std::to_string(burst) + " no-store", c);
    }
  }

  // ---- 2. circuit breaker under origin faults ---------------------------
  // Truncate-late faults on every upstream transfer: the origin pays the
  // full entity per attempt while the CDN retries.  The breaker trips after
  // 5 consecutive failures and re-probes once per open window.
  for (const bool on : {false, true}) {
    net::FaultInjector faults;
    faults.fail_always(net::FaultSpec::truncate(kFileSize - 1));
    CampaignSpec spec;
    spec.requests = 200;
    spec.rps = 1.0;  // 200 s campaign: several 30 s open windows
    spec.retries = 2;
    spec.faults = &faults;
    if (on) spec.shield = breaker_on(/*trip=*/5);
    const Cell c = run_shielded_campaign(spec);
    add_row(table, "faulty-origin", on ? "breaker" : "none",
            "p=1.00 truncate-late retries=2", c,
            on ? std::to_string(c.stats.breaker_trips) + " trips, " +
                     std::to_string(c.stats.half_open_probes) + " probes"
               : "");
  }

  // ---- 3. admission control under a slow origin -------------------------
  // Every origin transfer takes 2 s; at 10 requests/s the in-flight count
  // piles up.  A connection cap of 4 sheds the excess locally.
  for (const bool on : {false, true}) {
    net::FaultInjector faults;
    faults.fail_always(net::FaultSpec::latency(2.0));
    CampaignSpec spec;
    spec.disable_cache = true;
    spec.requests = 200;
    spec.rps = 10.0;
    spec.faults = &faults;
    if (on) spec.shield = breaker_on(/*trip=*/1000, /*max_connections=*/4);
    const Cell c = run_shielded_campaign(spec);
    add_row(table, "slow-origin", on ? "admission" : "none",
            "latency=2s cap=4", c);
  }

  // ---- 4. CDN-Loop ------------------------------------------------------
  cdn::OriginShieldPolicy loop_on;
  loop_on.loop.enabled = true;

  // 4a. A legitimate OBR cascade keeps working with the defense on; the
  // CDN-Loop/Via lines cost a few forwarded bytes, nothing else changes.
  for (const bool on : {false, true}) {
    cdn::ProfileOptions bypass;
    bypass.cloudflare_mode = cdn::ProfileOptions::CloudflareMode::kBypass;
    cdn::VendorProfile fcdn = cdn::make_profile(cdn::Vendor::kCloudflare, bypass);
    cdn::VendorProfile bcdn = cdn::make_profile(cdn::Vendor::kAkamai);
    if (on) {
      fcdn.traits.shield = loop_on;
      bcdn.traits.shield = loop_on;
    }
    core::CascadeTestbed bed(std::move(fcdn), std::move(bcdn),
                             core::obr_origin_config());
    bed.origin().resources().add_synthetic(std::string{core::kObrPath}, 1024);

    Cell c;
    c.requests = 20;
    const auto range = core::obr_range_case(cdn::Vendor::kCloudflare, 16);
    for (int i = 0; i < c.requests; ++i) {
      auto request = http::make_get(std::string{core::kObrHost},
                                    std::string{core::kObrPath} +
                                        "?cb=" + std::to_string(i));
      request.headers.add("Range", range.to_string());
      const auto response = bed.send(request);
      if (response.status >= 500) {
        ++c.unavailable_responses;
      } else {
        ++c.ok_responses;
      }
    }
    c.origin_transfers = bed.fcdn_bcdn_traffic().exchange_count();
    c.client_response_bytes = bed.client_traffic().response_bytes();
    c.origin_response_bytes = bed.fcdn_bcdn_traffic().response_bytes();
    c.stats = bed.fcdn().shield_stats();
    add_row(table, "obr-cascade", on ? "cdn-loop" : "none", "n=16", c,
            std::to_string(c.ok_responses) + "/20 served");
  }

  // 4b. The cascade bent into a cycle: FCDN -> BCDN -> FCDN.  Undefended
  // this recurses without bound (which is why it cannot be run); with
  // CDN-Loop on both hops the FCDN recognises its own token on re-entry and
  // the request dies with 508 after two inter-CDN forwards.
  {
    cdn::ProfileOptions bypass;
    bypass.cloudflare_mode = cdn::ProfileOptions::CloudflareMode::kBypass;
    cdn::VendorProfile fcdn_profile =
        cdn::make_profile(cdn::Vendor::kCloudflare, bypass);
    cdn::VendorProfile bcdn_profile = cdn::make_profile(cdn::Vendor::kAkamai);
    fcdn_profile.traits.shield = loop_on;
    bcdn_profile.traits.shield = loop_on;

    net::LateBoundHandler loopback;
    cdn::CdnNode bcdn(std::move(bcdn_profile), loopback, "bcdn-fcdn");
    cdn::CdnNode fcdn(std::move(fcdn_profile), bcdn, "fcdn-bcdn");
    loopback.bind(&fcdn);

    net::TrafficRecorder client("client-fcdn");
    net::Wire wire(client, fcdn);

    Cell c;
    c.requests = 20;
    for (int i = 0; i < c.requests; ++i) {
      auto request = http::make_get(std::string{core::kObrHost},
                                    std::string{core::kObrPath} +
                                        "?cb=" + std::to_string(i));
      request.headers.add("Range", "bytes=0-0");
      const auto response = wire.transfer(request);
      if (response.status >= 500) {
        ++c.unavailable_responses;
      } else {
        ++c.ok_responses;
      }
    }
    c.origin_transfers =
        fcdn.upstream_traffic().exchange_count() +
        bcdn.upstream_traffic().exchange_count();
    c.client_response_bytes = client.response_bytes();
    c.origin_response_bytes = fcdn.upstream_traffic().response_bytes() +
                              bcdn.upstream_traffic().response_bytes();
    c.stats = fcdn.shield_stats();
    const auto& bstats = bcdn.shield_stats();
    c.stats.loop_rejected += bstats.loop_rejected;
    c.stats.hop_cap_rejected += bstats.hop_cap_rejected;
    add_row(table, "fcdn-bcdn-loop", "cdn-loop", "cycle", c,
            std::to_string(c.origin_transfers / c.requests) +
                " forwards per request, then 508");
  }

  // 4c. Forged chains at ingress: an attacker pre-seeds CDN-Loop with k
  // entries to probe the hop cap (H=8).  At k >= H the edge refuses before
  // any upstream byte moves.
  for (const std::size_t seeded : {std::size_t{4}, std::size_t{8}}) {
    cdn::VendorProfile profile = cdn::make_profile(cdn::Vendor::kAkamai);
    profile.traits.shield = loop_on;  // max_hops defaults to 8
    core::SingleCdnTestbed bed(std::move(profile));
    bed.origin().resources().add_synthetic(std::string{kPath}, kFileSize);

    std::string chain;
    for (std::size_t i = 0; i < seeded; ++i) {
      if (!chain.empty()) chain += ", ";
      chain += "forged-cdn-" + std::to_string(i);
    }
    Cell c;
    c.requests = 10;
    for (int i = 0; i < c.requests; ++i) {
      auto request = http::make_get(
          std::string{core::kDefaultHost},
          std::string{kPath} + "?cb=" + std::to_string(i));
      request.headers.add("Range", "bytes=0-0");
      request.headers.add("CDN-Loop", chain);
      const auto response = bed.send(request);
      if (response.status >= 500) {
        ++c.unavailable_responses;
      } else {
        ++c.ok_responses;
      }
    }
    c.origin_transfers = bed.origin_traffic().exchange_count();
    c.client_response_bytes = bed.client_traffic().response_bytes();
    c.origin_response_bytes = bed.origin_traffic().response_bytes();
    c.stats = bed.cdn().shield_stats();
    add_row(table, "forged-chain", "cdn-loop",
            "seeded=" + std::to_string(seeded) + " cap=8", c);
  }

  // ---- 5. Fig 7 projection: shielded origin uplink ----------------------
  // The paper's saturation load (full-entity pulls at 50 req/s against a
  // 1000 Mbps uplink) with the shield's knobs applied in the DES engine.
  {
    sim::ShieldedLoadConfig base;
    base.base.requests_per_second = 50;
    base.base.duration_s = 30;
    base.base.origin_response_bytes = 10u << 20;
    base.base.client_response_bytes = 400;
    base.same_key_burst = 8;

    core::Table fig7({"defense", "peak_origin_mbps", "mean_origin_mbps",
                      "saturated", "origin_fetches", "coalesced", "shed"});
    const auto fig7_row = [&](const std::string& name,
                              sim::ShieldedLoadConfig config) {
      const auto run = sim::simulate_attack_load_shielded(config);
      const auto summary = sim::summarize(config.base, run.series);
      fig7.add_row({name, core::fixed(summary.peak_origin_out_mbps, 0),
                    core::fixed(summary.mean_origin_out_mbps, 0),
                    summary.saturated ? "yes" : "no",
                    std::to_string(run.origin_fetches),
                    std::to_string(run.coalesced), std::to_string(run.shed)});
      Cell c;
      c.requests = base.base.requests_per_second *
                   static_cast<int>(base.base.duration_s);
      c.origin_transfers = run.origin_fetches;
      c.stats.coalesced_hits = run.coalesced;
      c.stats.shed_breaker_open = run.shed;
      add_row(table, "fig7-saturation", name,
              "50rps x 10MiB burst=8", c,
              "peak=" + core::fixed(summary.peak_origin_out_mbps, 0) +
                  "Mbps saturated=" + (summary.saturated ? "yes" : "no"));
    };
    fig7_row("none", base);
    sim::ShieldedLoadConfig coalesced = base;
    coalesced.coalesce = true;
    fig7_row("coalescing", coalesced);
    sim::ShieldedLoadConfig capped = base;
    capped.max_pending = 8;
    capped.shed_response_bytes = 400;
    fig7_row("admission", capped);
    std::printf("Fig 7 with an origin shield (50 req/s x 10 MiB, "
                "1000 Mbps uplink)\n\n%s\n",
                fig7.to_markdown().c_str());
  }

  // ---- 6. end-to-end campaign integration -------------------------------
  // The cluster campaign driver with shield knobs: a pass-through edge
  // (Cloudflare bypass) under partial key reuse, unshielded vs coalescing.
  // RANGEAMP_TRACE / RANGEAMP_METRICS (both off by default, no CSV byte
  // changes) attach the observability hooks to the shielded run and write
  // shield_campaign_trace.jsonl / shield_campaign_metrics.prom.
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  for (const bool on : {false, true}) {
    cdn::ProfileOptions options;
    options.cloudflare_mode = cdn::ProfileOptions::CloudflareMode::kBypass;
    cdn::OriginShieldPolicy shield;
    shield.coalescing.enabled = on;
    // Observe only the shielded run: the interesting spans are the
    // fill_lock=coalesced-hit annotations.
    obs::Tracer* trace =
        on && std::getenv("RANGEAMP_TRACE") ? &tracer : nullptr;
    obs::MetricsRegistry* metrics =
        on && std::getenv("RANGEAMP_METRICS") ? &registry : nullptr;
    const auto config = core::SbrCampaignConfig::Builder()
                            .vendor(cdn::Vendor::kCloudflare)
                            .options(options)
                            .file_size(kFileSize)
                            .requests_per_second(16)
                            .duration_s(10)
                            .same_key_burst(8)
                            .shield(shield)
                            .tracer(trace)
                            .metrics(metrics)
                            .build();
    const auto r = core::run_sbr_campaign(config);
    if (trace) {
      core::write_file("shield_campaign_trace.jsonl", trace->to_jsonl());
      std::printf("RANGEAMP_TRACE: %zu spans written to "
                  "shield_campaign_trace.jsonl\n",
                  trace->spans().size());
    }
    if (metrics) {
      core::write_file("shield_campaign_metrics.prom",
                       metrics->to_prometheus());
      std::printf("RANGEAMP_METRICS: %zu metric families written to "
                  "shield_campaign_metrics.prom\n",
                  metrics->metric_count());
    }
    Cell c;
    c.requests = config.requests_per_second * config.duration_s;
    c.client_response_bytes = r.attacker.response_bytes;
    c.origin_response_bytes = r.origin.response_bytes;
    c.origin_transfers = r.shield_stats.fill_fetches;
    c.stats = r.shield_stats;
    add_row(table, "cluster-campaign", on ? "coalescing" : "none",
            "cloudflare-bypass burst=8", c,
            "nodes_touched=" + std::to_string(r.nodes_touched));
  }

  std::printf("%s\n", table.to_markdown().c_str());
  core::write_file("origin_shield_ablation.csv", table.to_csv());
  return 0;
}

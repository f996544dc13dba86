#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <utility>

#include "cdn/gossip.h"
#include "core/rangeamp.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

using namespace rangeamp;

constexpr std::size_t kShards = 64;

// ---------------------------------------------------------------------------
// Fingerprint text: "key=value " pairs, doubles with every digit.
// ---------------------------------------------------------------------------

class Fingerprint {
 public:
  Fingerprint& add(const char* key, std::uint64_t value) {
    return put(key, std::to_string(value));
  }
  Fingerprint& add(const char* key, std::int64_t value) {
    return put(key, std::to_string(value));
  }
  Fingerprint& add(const char* key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return put(key, buf);
  }
  Fingerprint& add(const char* key, bool value) { return put(key, value ? "1" : "0"); }
  Fingerprint& add(const char* key, const std::vector<std::uint64_t>& values) {
    std::string joined;
    for (const std::uint64_t v : values) {
      if (!joined.empty()) joined += ',';
      joined += std::to_string(v);
    }
    return put(key, joined);
  }
  std::string str() const { return text_; }

 private:
  Fingerprint& put(const char* key, const std::string& value) {
    if (!text_.empty()) text_ += ' ';
    text_ += key;
    text_ += '=';
    text_ += value;
    return *this;
  }
  std::string text_;
};

void add_bandwidth(Fingerprint& fp, const sim::AttackLoadSummary& bw, std::size_t series) {
  fp.add("peak_origin_mbps", bw.peak_origin_out_mbps)
      .add("mean_origin_mbps", bw.mean_origin_out_mbps)
      .add("peak_client_kbps", bw.peak_client_in_kbps)
      .add("saturated", bw.saturated)
      .add("series", static_cast<std::uint64_t>(series));
}

std::string fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

/// The value of `key` in a fingerprint text ("" when absent).
std::string field_of(const std::string& fingerprint, const std::string& key) {
  const std::string text = " " + fingerprint + " ";
  const std::string needle = " " + key + "=";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + needle.size();
  return text.substr(begin, text.find(' ', begin) - begin);
}

template <class Fn>
double time_call(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return seconds_between(start, Clock::now());
}

/// Cache lookups summed over a set of nodes.
void add_cache_counts(Counts& counts, const cdn::CdnNode& node) {
  counts.cache_hits += node.cache().hits();
  counts.cache_misses += node.cache().misses();
}

/// Runs `fn(shard)` for every shard of `plan` on `threads` workers, timing
/// each shard, and fills the shard timings of `run`.
void run_timed_shards(const core::ShardPlan& plan, int threads,
                      const std::function<void(const core::Shard&)>& fn, ShardedRun& run) {
  std::vector<Clock::time_point> start(plan.size());
  std::vector<Clock::time_point> stop(plan.size());
  core::run_shards(plan, static_cast<std::size_t>(threads), [&](const core::Shard& shard) {
    start[shard.index] = Clock::now();
    fn(shard);
    stop[shard.index] = Clock::now();
  });
  run.threads = threads;
  run.shard_busy_s.clear();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    run.shard_busy_s.push_back(seconds_between(start[i], stop[i]));
  }
  run.shards_s = seconds_between(*std::min_element(start.begin(), start.end()),
                                 *std::max_element(stop.begin(), stop.end()));
}

// ---------------------------------------------------------------------------
// sbr_flood: run_sbr_campaign, Cloudflare, 64 KiB, 8 round-robin nodes.
// ---------------------------------------------------------------------------

/// An origin behind an EdgeCluster, wired as the SBR and gossip campaigns
/// wire theirs, with a client transport and timing decorators between the
/// client transport and the cluster and between the cluster and the origin.
struct ClusterBed {
  ClusterBed(const std::function<cdn::VendorProfile()>& profile, std::size_t nodes,
             cdn::NodeSelection selection, const net::TransportSpec& transport, Ledger& ledger)
      : timed_origin(ledger, Layer::kOrigin, origin),
        cluster(profile, nodes, timed_origin, selection, transport),
        timed_cluster(ledger, Layer::kCdnFront, cluster),
        client_traffic("clients"),
        client_wire(net::make_transport(transport, client_traffic, timed_cluster)) {
    cluster.set_clock([this] { return sim_now; });
    client_traffic.set_keep_log(false);
  }
  ClusterBed(const ClusterBed&) = delete;
  ClusterBed& operator=(const ClusterBed&) = delete;

  origin::OriginServer origin;
  TimedHandler timed_origin;
  cdn::EdgeCluster cluster;
  TimedHandler timed_cluster;
  net::TrafficRecorder client_traffic;
  std::unique_ptr<net::Transport> client_wire;
  double sim_now = 0;
};

/// One shard's testbed as run_sbr_campaign builds it.
std::unique_ptr<ClusterBed> make_sbr_bed(const core::SbrCampaignConfig& config, Ledger& ledger) {
  auto bed = std::make_unique<ClusterBed>(
      [&config] {
        cdn::VendorProfile profile = cdn::make_profile(config.vendor, config.options);
        profile.traits.shield = config.shield;
        return profile;
      },
      config.edge_nodes, config.selection, config.transport, ledger);
  bed->origin.resources().add_synthetic("/target.bin", config.file_size);
  return bed;
}

struct SbrBlock {
  net::TrafficTotals attacker;
  std::uint64_t attacker_truncated = 0;
  std::uint64_t origin_response_bytes = 0;
  std::vector<std::uint64_t> per_node_upstream_bytes;
  std::vector<std::uint64_t> per_node_ingress_exchanges;
  std::vector<core::DetectorSample> samples;
  std::vector<double> exchange_s;
  Counts counts;
  double testbed_s = 0;
  double loop_s = 0;
};

std::string sbr_fingerprint(const core::SbrCampaignResult& r) {
  Fingerprint fp;
  fp.add("attacker_req", r.attacker.request_bytes)
      .add("attacker_resp", r.attacker.response_bytes)
      .add("attacker_truncated", r.attacker_truncated)
      .add("origin_resp", r.origin.response_bytes)
      .add("amplification", r.amplification)
      .add("nodes_touched", static_cast<std::uint64_t>(r.nodes_touched))
      .add("per_node_upstream", r.per_node_upstream_bytes)
      .add("alarmed", r.detector_alarmed)
      .add("detector_samples", static_cast<std::uint64_t>(r.detector_stats.samples))
      .add("asymmetry", r.detector_stats.asymmetry)
      .add("tiny_fraction", r.detector_stats.tiny_fraction)
      .add("miss_fraction", r.detector_stats.miss_fraction);
  add_bandwidth(fp, r.bandwidth, r.series.size());
  return fp.str();
}

class SbrFlood final : public Workload {
 public:
  SbrFlood(Scale scale, int threads)
      : threads_(threads),
        base_(core::SbrCampaignConfig::Builder()
                  .vendor(cdn::Vendor::kCloudflare)
                  .file_size(64u << 10)
                  .requests_per_second(scale == Scale::kFull ? 2000 : 20)
                  .duration_s(10)
                  .edge_nodes(8)
                  .selection(cdn::NodeSelection::kRoundRobin)),
        config_(base_.build()),
        plan_(core::sbr_plan(config_.vendor, config_.file_size)),
        scale_(scale) {}

  std::uint64_t exchanges() const override {
    return static_cast<std::uint64_t>(config_.requests_per_second) *
           static_cast<std::uint64_t>(config_.duration_s);
  }

  CampaignRun campaign(bool sharded) override {
    core::SbrCampaignConfig::Builder builder = base_;
    if (sharded) builder.shards(kShards).threads(threads_);
    return run(builder.build());
  }

  double sinks_wall(bool attached) override {
    core::SbrCampaignConfig::Builder builder = base_;
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    if (attached) builder.tracer(&tracer).metrics(&metrics);
    return run(builder.build()).wall_s;
  }

  double setup() override {
    const core::ShardPlan plan(exchanges(), kShards);
    Ledger ledger;
    std::vector<std::unique_ptr<ClusterBed>> beds;
    beds.reserve(plan.size());
    return time_call([&] {
      for (std::size_t i = 0; i < plan.size(); ++i) {
        beds.push_back(make_sbr_bed(config_, ledger));
      }
    });
  }

  TracedRun traced() override {
    TracedRun run;
    const Clock::time_point start = Clock::now();
    std::vector<SbrBlock> blocks;
    blocks.push_back(block(0, exchanges(), run.ledger));
    run.fingerprint = finish(blocks, run.phases);
    run.wall_s = seconds_between(start, Clock::now());
    SbrBlock& b = blocks.front();
    run.loop_s = b.loop_s;
    run.phases.testbed_s = b.testbed_s;
    run.exchange_s = std::move(b.exchange_s);
    run.counts = b.counts;
    return run;
  }

  ShardedRun traced_sharded() override {
    ShardedRun run;
    const Clock::time_point start = Clock::now();
    const core::ShardPlan plan(exchanges(), kShards);
    std::vector<SbrBlock> blocks(plan.size());
    run_timed_shards(
        plan, threads_,
        [&](const core::Shard& shard) {
          Ledger ledger;
          blocks[shard.index] = block(shard.begin, shard.end, ledger);
        },
        run);
    run.fingerprint = finish(blocks, run.phases);
    run.wall_s = seconds_between(start, Clock::now());
    return run;
  }

  std::string range_header() const override { return plan_.range.to_string(); }
  std::uint64_t range_resource_bytes() const override { return config_.file_size; }

  std::string check_reference(const std::string& fingerprint) override {
    if (scale_ != Scale::kFull) return {};
    // The seed code's serial result for this exact configuration.
    static const char* const kReference =
        "attacker_req=1688890 attacker_resp=16340000 attacker_truncated=0 "
        "origin_resp=1316000000 amplification=80.538555691554464 nodes_touched=8 "
        "per_node_upstream=164500000,164500000,164500000,164500000,164500000,"
        "164500000,164500000,164500000 alarmed=1 detector_samples=50 "
        "asymmetry=80.538555691554464 tiny_fraction=1 miss_fraction=1 "
        "peak_origin_mbps=1000 mean_origin_mbps=1000 peak_client_kbps=13072 "
        "saturated=1 series=20";
    if (fingerprint == kReference) return {};
    return "sbr_flood reference mismatch:\n  got      " + fingerprint + "\n  expected " +
           kReference;
  }

 private:
  static CampaignRun run(const core::SbrCampaignConfig& config) {
    core::SbrCampaignResult result;
    const double wall = time_call([&] { result = core::run_sbr_campaign(config); });
    return {sbr_fingerprint(result), wall};
  }

  SbrBlock block(std::uint64_t begin, std::uint64_t end, Ledger& ledger) {
    SbrBlock out;
    std::unique_ptr<ClusterBed> bed;
    out.testbed_s = time_call([&] { bed = make_sbr_bed(config_, ledger); });
    const double rps = static_cast<double>(config_.requests_per_second);
    const std::string range = plan_.range.to_string();
    const std::uint64_t selected = core::selected_bytes_of(plan_.range, config_.file_size);
    out.samples.reserve(static_cast<std::size_t>(end - begin));
    out.exchange_s.reserve(static_cast<std::size_t>(end - begin));
    std::uint64_t origin_before = 0;
    const Clock::time_point loop_start = Clock::now();
    for (std::uint64_t i = begin; i < end; ++i) {
      bed->sim_now = static_cast<double>(i) / rps;
      bed->cluster.pin(i % config_.edge_nodes);
      http::Request request = http::make_get(std::string{core::kDefaultHost},
                                             "/target.bin?x=" + std::to_string(i));
      request.headers.add("Range", range);
      const net::TrafficTotals client_before = bed->client_traffic.totals();
      ledger.begin(Layer::kNetClient);
      for (int s = 0; s < plan_.sends; ++s) bed->client_wire->transfer(request);
      out.exchange_s.push_back(ledger.end());
      const std::uint64_t origin_after = bed->cluster.total_upstream_response_bytes();
      const net::TrafficTotals client_after = bed->client_traffic.totals();
      out.samples.push_back(core::make_detector_sample(
          selected, config_.file_size,
          {client_after.request_bytes - client_before.request_bytes,
           client_after.response_bytes - client_before.response_bytes},
          {0, origin_after - origin_before}));
      origin_before = origin_after;
    }
    out.loop_s = seconds_between(loop_start, Clock::now());

    out.attacker = bed->client_traffic.totals();
    out.attacker_truncated = bed->client_traffic.truncated_count();
    out.origin_response_bytes = bed->cluster.total_upstream_response_bytes();
    for (std::size_t n = 0; n < bed->cluster.node_count(); ++n) {
      out.per_node_upstream_bytes.push_back(
          bed->cluster.node(n).upstream_traffic().response_bytes());
      out.per_node_ingress_exchanges.push_back(bed->cluster.ingress_traffic(n).exchange_count());
      add_cache_counts(out.counts, bed->cluster.node(n));
    }
    out.counts.exchanges = end - begin;
    out.counts.upstream_fetches = ledger[Layer::kOrigin].calls;
    out.counts.origin_response_bytes = out.origin_response_bytes;
    out.testbed_s += time_call([&] { bed.reset(); });
    return out;
  }

  /// Merge, detector replay and projection, timed as run_sbr_campaign runs
  /// them after the last shard.
  std::string finish(const std::vector<SbrBlock>& blocks, Phases& phases) const {
    core::SbrCampaignResult result;
    std::vector<std::uint64_t> per_node_exchanges(config_.edge_nodes, 0);
    std::vector<core::DetectorSample> samples;
    phases.merge_s = time_call([&] {
      result.per_node_upstream_bytes.assign(config_.edge_nodes, 0);
      for (const SbrBlock& b : blocks) {
        result.attacker += b.attacker;
        result.attacker_truncated += b.attacker_truncated;
        result.origin.response_bytes += b.origin_response_bytes;
        for (std::size_t n = 0; n < config_.edge_nodes; ++n) {
          result.per_node_upstream_bytes[n] += b.per_node_upstream_bytes[n];
          per_node_exchanges[n] += b.per_node_ingress_exchanges[n];
        }
        samples.insert(samples.end(), b.samples.begin(), b.samples.end());
      }
    });
    phases.replay_s = time_call([&] {
      core::RangeAmpDetector detector;
      for (const core::DetectorSample& sample : samples) detector.observe(sample);
      result.detector_alarmed = detector.alarmed();
      result.detector_stats = detector.stats();
    });
    result.amplification = net::amplification_factor(result.origin, result.attacker);
    result.nodes_touched = static_cast<std::size_t>(
        std::count_if(per_node_exchanges.begin(), per_node_exchanges.end(),
                      [](std::uint64_t n) { return n > 0; }));
    phases.projection_s = time_call([&] {
      sim::AttackLoadConfig load;
      load.origin_uplink_mbps = config_.origin_uplink_mbps;
      load.requests_per_second = config_.requests_per_second;
      load.duration_s = config_.duration_s;
      load.origin_response_bytes = result.origin.response_bytes / exchanges();
      load.client_response_bytes = result.attacker.response_bytes / exchanges();
      result.series = sim::simulate_attack_load(load);
      result.bandwidth = sim::summarize(load, result.series);
    });
    return sbr_fingerprint(result);
  }

  int threads_;
  core::SbrCampaignConfig::Builder base_;
  core::SbrCampaignConfig config_;
  core::SbrPlan plan_;
  Scale scale_;
};

// ---------------------------------------------------------------------------
// obr_cascade: run_obr_campaign, Cloudflare (Bypass) -> Akamai, 1 KiB.
// ---------------------------------------------------------------------------

cdn::VendorProfile obr_fcdn_profile(cdn::Vendor vendor) {
  cdn::ProfileOptions options;
  if (vendor == cdn::Vendor::kCloudflare) {
    options.cloudflare_mode = cdn::ProfileOptions::CloudflareMode::kBypass;
  }
  return cdn::make_profile(vendor, options);
}

/// The cascade run_obr_campaign builds per shard (core::CascadeTestbed's
/// wiring), with timing decorators in front of the FCDN, the BCDN and the
/// origin.
struct ObrBed {
  ObrBed(const core::ObrCampaignConfig& config, Ledger& ledger)
      : origin(core::obr_origin_config()),
        timed_origin(ledger, Layer::kOrigin, origin),
        bcdn(cdn::make_profile(config.bcdn), timed_origin, "bcdn-origin",
             cdn::SegmentFraming::kHttp11, config.transport),
        timed_bcdn(ledger, Layer::kCdnBack, bcdn),
        fcdn(obr_fcdn_profile(config.fcdn), timed_bcdn, "fcdn-bcdn",
             cdn::SegmentFraming::kHttp11, config.transport),
        timed_fcdn(ledger, Layer::kCdnFront, fcdn),
        client_traffic("client-fcdn"),
        client_wire(net::make_transport(config.transport, client_traffic, timed_fcdn)) {
    origin.resources().add_synthetic(std::string{core::kObrPath}, config.resource_size);
  }
  ObrBed(const ObrBed&) = delete;
  ObrBed& operator=(const ObrBed&) = delete;

  origin::OriginServer origin;
  TimedHandler timed_origin;
  cdn::CdnNode bcdn;
  TimedHandler timed_bcdn;
  cdn::CdnNode fcdn;
  TimedHandler timed_fcdn;
  net::TrafficRecorder client_traffic;
  std::unique_ptr<net::Transport> client_wire;
};

struct ObrBlock {
  std::uint64_t fcdn_bcdn_response_bytes = 0;
  std::uint64_t bcdn_origin_response_bytes = 0;
  std::uint64_t attacker_response_bytes = 0;
  std::uint64_t attacker_truncated = 0;
  std::vector<double> exchange_s;
  Counts counts;
  double testbed_s = 0;
  double loop_s = 0;
};

std::string obr_fingerprint(const core::ObrCampaignResult& r) {
  Fingerprint fp;
  fp.add("n", static_cast<std::uint64_t>(r.n))
      .add("fcdn_bcdn_per_request", r.fcdn_bcdn_bytes_per_request)
      .add("bcdn_origin_resp", r.bcdn_origin_response_bytes)
      .add("attacker_resp", r.attacker_response_bytes)
      .add("attacker_truncated", r.attacker_truncated)
      .add("amplification", r.amplification)
      .add("seconds_to_saturation", r.seconds_to_saturation);
  add_bandwidth(fp, r.bandwidth, r.series.size());
  return fp.str();
}

class ObrCascade final : public Workload {
 public:
  ObrCascade(Scale scale, int threads, const std::map<std::string, std::string>& expect)
      : threads_(threads),
        base_(core::ObrCampaignConfig::Builder()
                  .fcdn(cdn::Vendor::kCloudflare)
                  .bcdn(cdn::Vendor::kAkamai)
                  .resource_size(1024)
                  .overlapping_ranges(0)
                  .requests_per_second(scale == Scale::kFull ? 20 : 2)
                  .duration_s(scale == Scale::kFull ? 5 : 2)),
        config_(base_.build()),
        expect_(expect) {
    n_ = discover();
    range_ = core::obr_range_case(config_.fcdn, n_).to_string();
  }

  std::uint64_t exchanges() const override {
    return static_cast<std::uint64_t>(config_.requests_per_second) *
           static_cast<std::uint64_t>(config_.duration_s);
  }

  CampaignRun campaign(bool sharded) override {
    core::ObrCampaignConfig::Builder builder = base_;
    if (sharded) builder.shards(kShards).threads(threads_);
    const core::ObrCampaignConfig config = builder.build();
    core::ObrCampaignResult result;
    const double wall = time_call([&] { result = core::run_obr_campaign(config); });
    return {obr_fingerprint(result), wall};
  }

  /// ObrCampaignConfig has no observability hooks, so both sides of this
  /// comparison are the driver's own serial cascade replay.
  double sinks_wall(bool attached) override {
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    Ledger ledger;
    return time_call([&] {
      block(0, exchanges(), ledger, attached ? &tracer : nullptr, attached ? &metrics : nullptr);
    });
  }

  double setup() override {
    const core::ShardPlan plan(exchanges(), kShards);
    Ledger ledger;
    std::vector<std::unique_ptr<ObrBed>> beds;
    beds.reserve(plan.size());
    return time_call([&] {
      discover();
      for (std::size_t i = 0; i < plan.size(); ++i) {
        beds.push_back(std::make_unique<ObrBed>(config_, ledger));
      }
    });
  }

  TracedRun traced() override {
    TracedRun run;
    const Clock::time_point start = Clock::now();
    std::size_t n = 0;
    run.phases.discovery_s = time_call([&] { n = discover(); });
    std::vector<ObrBlock> blocks;
    blocks.push_back(block(0, exchanges(), run.ledger, nullptr, nullptr));
    run.fingerprint = finish(n, blocks, run.phases);
    run.wall_s = seconds_between(start, Clock::now());
    ObrBlock& b = blocks.front();
    run.loop_s = b.loop_s;
    run.phases.testbed_s = b.testbed_s;
    run.exchange_s = std::move(b.exchange_s);
    run.counts = b.counts;
    return run;
  }

  ShardedRun traced_sharded() override {
    ShardedRun run;
    const Clock::time_point start = Clock::now();
    const std::size_t n = discover();
    const core::ShardPlan plan(exchanges(), kShards);
    std::vector<ObrBlock> blocks(plan.size());
    run_timed_shards(
        plan, threads_,
        [&](const core::Shard& shard) {
          Ledger ledger;
          blocks[shard.index] = block(shard.begin, shard.end, ledger, nullptr, nullptr);
        },
        run);
    run.fingerprint = finish(n, blocks, run.phases);
    run.wall_s = seconds_between(start, Clock::now());
    return run;
  }

  std::string range_header() const override { return range_; }
  std::uint64_t range_resource_bytes() const override { return config_.resource_size; }

  std::string check_reference(const std::string& fingerprint) override {
    // obr_node_exhaustion.csv, row Cloudflare->Akamai: n and MB/request on
    // the fcdn-bcdn segment (the campaign length changes neither).
    const auto n_it = expect_.find("obr.n");
    const auto mb_it = expect_.find("obr.mb_per_request");
    if (n_it == expect_.end() || mb_it == expect_.end()) return {};
    const std::string n = field_of(fingerprint, "n");
    const std::string mb =
        fixed(std::stod(field_of(fingerprint, "fcdn_bcdn_per_request")) / 1048576.0, 2);
    if (n == n_it->second && mb == mb_it->second) return {};
    return "obr_cascade reference mismatch: got n=" + n + " " + mb + " MB/request, expected n=" +
           n_it->second + " " + mb_it->second + " MB/request";
  }

 private:
  /// The campaign's plan: the discovered maximum n less its 4-range margin.
  std::size_t discover() const {
    const std::size_t max_n =
        core::measure_obr(config_.fcdn, config_.bcdn, config_.resource_size).max_n;
    if (max_n == 0) throw std::runtime_error("obr_cascade: infeasible cascade");
    return max_n > 4 ? max_n - 4 : max_n;
  }

  ObrBlock block(std::uint64_t begin, std::uint64_t end, Ledger& ledger, obs::Tracer* tracer,
                 obs::MetricsRegistry* metrics) {
    ObrBlock out;
    std::unique_ptr<ObrBed> bed;
    out.testbed_s = time_call([&] { bed = std::make_unique<ObrBed>(config_, ledger); });
    if (tracer) {
      bed->client_wire->set_tracer(tracer);
      bed->fcdn.set_tracer(tracer);
      bed->bcdn.set_tracer(tracer);
    }
    if (metrics) {
      bed->fcdn.set_metrics(metrics);
      bed->bcdn.set_metrics(metrics);
    }
    net::TransferOptions abort_early;
    abort_early.abort_after_body_bytes = 4096;
    out.exchange_s.reserve(static_cast<std::size_t>(end - begin));
    const Clock::time_point loop_start = Clock::now();
    for (std::uint64_t i = begin; i < end; ++i) {
      char query[32];
      std::snprintf(query, sizeof(query), "?x=%06llu", static_cast<unsigned long long>(i));
      http::Request request =
          http::make_get(std::string{core::kObrHost}, std::string{core::kObrPath} + query);
      request.headers.add("Range", range_);
      ledger.begin(Layer::kNetClient);
      bed->client_wire->transfer(request, abort_early);
      out.exchange_s.push_back(ledger.end());
    }
    out.loop_s = seconds_between(loop_start, Clock::now());
    out.fcdn_bcdn_response_bytes = bed->fcdn.upstream_traffic().response_bytes();
    out.bcdn_origin_response_bytes = bed->bcdn.upstream_traffic().response_bytes();
    out.attacker_response_bytes = bed->client_traffic.response_bytes();
    out.attacker_truncated = bed->client_traffic.truncated_count();
    add_cache_counts(out.counts, bed->fcdn);
    add_cache_counts(out.counts, bed->bcdn);
    out.counts.exchanges = end - begin;
    out.counts.upstream_fetches = ledger[Layer::kCdnBack].calls;
    out.counts.origin_response_bytes = out.bcdn_origin_response_bytes;
    out.testbed_s += time_call([&] { bed.reset(); });
    return out;
  }

  std::string finish(std::size_t n, const std::vector<ObrBlock>& blocks, Phases& phases) const {
    core::ObrCampaignResult result;
    result.n = n;
    std::uint64_t fcdn_bcdn = 0;
    phases.merge_s = time_call([&] {
      for (const ObrBlock& b : blocks) {
        fcdn_bcdn += b.fcdn_bcdn_response_bytes;
        result.bcdn_origin_response_bytes += b.bcdn_origin_response_bytes;
        result.attacker_response_bytes += b.attacker_response_bytes;
        result.attacker_truncated += b.attacker_truncated;
      }
    });
    result.fcdn_bcdn_bytes_per_request = fcdn_bcdn / exchanges();
    result.amplification = result.bcdn_origin_response_bytes == 0
                               ? 0
                               : static_cast<double>(fcdn_bcdn) /
                                     static_cast<double>(result.bcdn_origin_response_bytes);
    phases.projection_s = time_call([&] {
      sim::AttackLoadConfig load;
      load.origin_uplink_mbps = config_.node_uplink_mbps;
      load.requests_per_second = config_.requests_per_second;
      load.duration_s = config_.duration_s;
      load.origin_response_bytes = result.fcdn_bcdn_bytes_per_request;
      load.client_response_bytes = 4096;
      result.series = sim::simulate_attack_load(load);
      result.bandwidth = sim::summarize(load, result.series);
      for (const sim::BandwidthSample& sample : result.series) {
        if (sample.origin_out_mbps >= 0.99 * config_.node_uplink_mbps) {
          result.seconds_to_saturation = sample.second + 1.0;
          break;
        }
      }
    });
    // Every exchange is identical, so the per-request average must divide
    // the total exactly; a remainder means the traced replay diverged.
    if (fcdn_bcdn != result.fcdn_bcdn_bytes_per_request * exchanges()) {
      return obr_fingerprint(result) + " uneven_total=" + std::to_string(fcdn_bcdn);
    }
    return obr_fingerprint(result);
  }

  int threads_;
  core::ObrCampaignConfig::Builder base_;
  core::ObrCampaignConfig config_;
  std::map<std::string, std::string> expect_;
  std::size_t n_ = 0;
  std::string range_;
};

// ---------------------------------------------------------------------------
// mixed_edge: run_gossip_detection_campaign, the fanout-2 row.
// ---------------------------------------------------------------------------

core::GossipDetectionConfig fanout2_config(std::uint64_t seed, Scale scale) {
  // gossip_detection.csv, row fanout-2 (bench_gossip_detection's row_config).
  core::GossipDetectionConfig config;
  config.requests = scale == Scale::kFull ? 40000 : 2000;
  config.attacker_rotation_requests = 8;
  config.detection.enabled = true;
  config.detection.quarantine_enabled = true;
  config.detection.pattern_quarantine = false;
  config.detection.detector.decay_clean_windows = 2;
  config.detection.gossip.enabled = true;
  config.detection.gossip.fanout = 2;
  config.detection.gossip.message_loss_rate = 0;
  config.seed = seed;
  return config;
}

std::string gossip_fingerprint(const core::GossipDetectionResult& r) {
  Fingerprint fp;
  fp.add("legit_requests", static_cast<std::uint64_t>(r.legit_requests))
      .add("attack_requests", static_cast<std::uint64_t>(r.attack_requests))
      .add("legit_quarantined", static_cast<std::uint64_t>(r.legit_quarantined))
      .add("attack_quarantined", static_cast<std::uint64_t>(r.attack_quarantined))
      .add("collateral_rate", r.collateral_rate)
      .add("legit_hit_rate", r.legit_hit_rate)
      .add("convergence_exchange", r.convergence_exchange)
      .add("convergence_rotations", r.convergence_rotations)
      .add("detection_latency_s", r.detection_latency_seconds)
      .add("alarms", r.alarms)
      .add("final_coverage", static_cast<std::uint64_t>(r.final_coverage))
      .add("signatures_expired", r.signatures_expired)
      .add("gossip_rounds", r.gossip.rounds)
      .add("gossip_msgs_sent", r.gossip.messages_sent)
      .add("gossip_msgs_dropped", r.gossip.messages_dropped)
      .add("gossip_sigs_sent", r.gossip.signatures_sent)
      .add("gossip_sigs_accepted", r.gossip.signatures_accepted);
  return fp.str();
}

/// Client identity header value of legit user `user`.
std::string user_key(std::uint32_t user) {
  std::string key = "u";
  key += std::to_string(user);
  return key;
}

/// One scheduled exchange (the campaign's per-index derivation).
struct Exchange {
  std::uint32_t user = 0;
  std::uint32_t object = 0;
  std::uint32_t node = 0;
  bool attack = false;
  bool probe = false;
};

/// The detection-enabled testbed run_gossip_detection_campaign builds.  The
/// campaign calls the cluster directly; this bed adds the client transport.
std::unique_ptr<ClusterBed> make_mixed_bed(const core::GossipDetectionConfig& config,
                                           Ledger& ledger) {
  auto bed = std::make_unique<ClusterBed>(
      [&config] {
        cdn::VendorProfile profile = cdn::make_profile(config.vendor);
        profile.traits.detection = config.detection;
        return profile;
      },
      config.edge_nodes, cdn::NodeSelection::kRoundRobin, net::TransportSpec{}, ledger);
  bed->origin.resources().add_synthetic("/target.bin", config.attack_object_bytes,
                                        "application/octet-stream");
  for (std::size_t i = 0; i < config.catalog_objects; ++i) {
    bed->origin.resources().add_synthetic("/obj/" + std::to_string(i), config.object_bytes,
                                          "application/octet-stream");
  }
  return bed;
}

class MixedEdge final : public Workload {
 public:
  MixedEdge(std::uint64_t seed, Scale scale, int threads,
            const std::map<std::string, std::string>& expect)
      : threads_(threads), scale_(scale), config_(fanout2_config(seed, scale)), expect_(expect) {
    double total = 0;
    for (std::size_t i = 0; i < config_.catalog_objects; ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      zipf_cdf_.push_back(total);
    }
  }

  std::uint64_t exchanges() const override { return config_.requests; }

  CampaignRun campaign(bool sharded) override {
    core::GossipDetectionConfig config = config_;
    if (sharded) {
      config.shards = kShards;
      config.threads = threads_;
    }
    return run(config);
  }

  double sinks_wall(bool attached) override {
    core::GossipDetectionConfig config = config_;
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    if (attached) {
      config.tracer = &tracer;
      config.metrics = &metrics;
    }
    return run(config).wall_s;
  }

  /// One campaign has one testbed; it is built in a batch so the timer
  /// resolves it, and the batch mean is returned.
  double setup() override {
    constexpr int kBatch = 16;
    Ledger ledger;
    std::vector<std::unique_ptr<ClusterBed>> beds;
    beds.reserve(kBatch);
    return time_call([&] {
             for (int i = 0; i < kBatch; ++i) {
               beds.push_back(make_mixed_bed(config_, ledger));
             }
           }) /
           kBatch;
  }

  TracedRun traced() override {
    TracedRun run;
    const Clock::time_point start = Clock::now();
    std::vector<Exchange> schedule(config_.requests);
    const double schedule_s = time_call([&] { fill(schedule, 0, config_.requests); });
    run.fingerprint = replay(schedule, run);
    // Materializing the schedule is driver work outside any layer.
    run.loop_s += schedule_s;
    run.wall_s = seconds_between(start, Clock::now());
    return run;
  }

  ShardedRun traced_sharded() override {
    ShardedRun run;
    const Clock::time_point start = Clock::now();
    std::vector<Exchange> schedule(config_.requests);
    const core::ShardPlan plan(config_.requests, kShards, config_.seed);
    run_timed_shards(
        plan, threads_, [&](const core::Shard& shard) { fill(schedule, shard.begin, shard.end); },
        run);
    // The serial tail is the whole replay: gossip couples the nodes.
    TracedRun replayed;
    run.phases.replay_s = time_call([&] { run.fingerprint = replay(schedule, replayed); });
    run.wall_s = seconds_between(start, Clock::now());
    return run;
  }

  std::string range_header() const override { return "bytes=0-0"; }
  std::uint64_t range_resource_bytes() const override { return config_.attack_object_bytes; }

  std::string check_reference(const std::string&) override {
    // gossip_detection.csv, row fanout-2, is the campaign at seed 2020.
    if (scale_ != Scale::kFull || expect_.empty()) return {};
    core::GossipDetectionConfig config = fanout2_config(2020, scale_);
    const core::GossipDetectionResult r = core::run_gossip_detection_campaign(config);
    const std::pair<const char*, std::string> got[] = {
        {"gossip.legit_requests", std::to_string(r.legit_requests)},
        {"gossip.attack_requests", std::to_string(r.attack_requests)},
        {"gossip.legit_quarantined", std::to_string(r.legit_quarantined)},
        {"gossip.attack_quarantined", std::to_string(r.attack_quarantined)},
        {"gossip.collateral_rate", fixed(r.collateral_rate, 6)},
        {"gossip.legit_hit_rate", fixed(r.legit_hit_rate, 4)},
        {"gossip.convergence_exchange", std::to_string(r.convergence_exchange)},
        {"gossip.alarms", std::to_string(r.alarms)},
        {"gossip.final_coverage", std::to_string(r.final_coverage)},
        {"gossip.signatures_expired", std::to_string(r.signatures_expired)},
        {"gossip.gossip_msgs_sent", std::to_string(r.gossip.messages_sent)},
        {"gossip.gossip_sigs_accepted", std::to_string(r.gossip.signatures_accepted)},
    };
    std::string diff;
    for (const auto& [key, value] : got) {
      const auto it = expect_.find(key);
      if (it == expect_.end() || it->second != value) {
        diff += std::string(" ") + key + "=" + value + " (expected " +
                (it == expect_.end() ? "missing" : it->second) + ")";
      }
    }
    return diff.empty() ? diff : "mixed_edge seed-2020 reference mismatch:" + diff;
  }

 private:
  static CampaignRun run(const core::GossipDetectionConfig& config) {
    core::GossipDetectionResult result;
    const double wall = time_call([&] { result = core::run_gossip_detection_campaign(config); });
    return {gossip_fingerprint(result), wall};
  }

  /// Fills schedule[begin, end) from (seed, index) alone, as the campaign's
  /// fill_gossip_schedule does.
  void fill(std::vector<Exchange>& schedule, std::uint64_t begin, std::uint64_t end) const {
    const std::uint64_t stream = core::splitmix64(config_.seed);
    const std::size_t rotation = std::max<std::size_t>(1, config_.attacker_rotation_requests);
    for (std::uint64_t i = begin; i < end; ++i) {
      Exchange& ex = schedule[i];
      if (config_.attack_every != 0 && i % config_.attack_every == 0) {
        ex.attack = true;
        ex.node = static_cast<std::uint32_t>((i / config_.attack_every / rotation) %
                                             config_.edge_nodes);
        continue;
      }
      http::Rng rng{core::splitmix64(stream ^ i)};
      ex.user = static_cast<std::uint32_t>(rng.below(config_.legit_users));
      ex.node = static_cast<std::uint32_t>(core::splitmix64(ex.user) % config_.edge_nodes);
      ex.probe = rng.chance(config_.probe_fraction);
      if (!ex.probe) {
        const double u =
            static_cast<double>(rng.next() >> 11) * 0x1.0p-53 * zipf_cdf_.back();
        const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
        ex.object = static_cast<std::uint32_t>(
            std::min<std::size_t>(it - zipf_cdf_.begin(), config_.catalog_objects - 1));
      }
    }
  }

  /// Replays the schedule serially through one traced cluster, scoring it
  /// as the campaign does.
  std::string replay(const std::vector<Exchange>& schedule, TracedRun& run) {
    std::unique_ptr<ClusterBed> bed;
    run.phases.testbed_s = time_call([&] { bed = make_mixed_bed(config_, run.ledger); });
    core::GossipDetectionResult result;
    std::size_t legit_hits = 0;
    double first_attack_at = -1;
    const double dt = 1.0 / static_cast<double>(std::max(1, config_.requests_per_second));
    const std::string client_key{cdn::kClientKeyHeader};
    run.exchange_s.reserve(schedule.size());
    const Clock::time_point loop_start = Clock::now();
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      bed->sim_now = static_cast<double>(i) * dt;
      const Exchange& ex = schedule[i];
      bed->cluster.pin(ex.node);
      http::Request request;
      if (ex.attack) {
        request = http::make_get("shop.example.com",
                                 "/target.bin?x=" + std::to_string(i / config_.attack_every));
        request.headers.add("Range", "bytes=0-0");
        request.headers.add(client_key, "attacker");
        if (first_attack_at < 0) first_attack_at = bed->sim_now;
      } else if (ex.probe) {
        request = http::make_get("shop.example.com", "/target.bin");
        request.headers.add("Range", "bytes=0-1");
        request.headers.add(client_key, user_key(ex.user));
      } else {
        request = http::make_get("shop.example.com", "/obj/" + std::to_string(ex.object));
        request.headers.add(client_key, user_key(ex.user));
      }
      const std::uint64_t upstream_before = bed->cluster.total_upstream_response_bytes();
      run.ledger.begin(Layer::kNetClient);
      const http::Response response = bed->client_wire->transfer(request);
      run.exchange_s.push_back(run.ledger.end());
      const bool quarantined = response.status == http::kTooManyRequests;
      if (quarantined) ++run.counts.quarantined;
      if (ex.attack) {
        ++result.attack_requests;
        if (quarantined) ++result.attack_quarantined;
      } else {
        ++result.legit_requests;
        if (quarantined) {
          ++result.legit_quarantined;
        } else if (bed->cluster.total_upstream_response_bytes() == upstream_before) {
          ++legit_hits;
        }
      }
      if (result.convergence_exchange < 0 && config_.attack_every != 0 &&
          bed->cluster.gossip()->coverage("attacker", bed->sim_now) == config_.edge_nodes) {
        result.convergence_exchange = static_cast<std::int64_t>(i);
        result.convergence_rotations =
            static_cast<double>(i / config_.attack_every + 1) /
            static_cast<double>(std::max<std::size_t>(1, config_.attacker_rotation_requests));
        result.detection_latency_seconds = bed->sim_now - first_attack_at;
      }
    }
    run.loop_s = seconds_between(loop_start, Clock::now());

    bed->sim_now = static_cast<double>(schedule.size()) * dt;
    const cdn::GossipFabric& fabric = *bed->cluster.gossip();
    result.final_coverage = fabric.coverage("attacker", bed->sim_now);
    for (std::size_t n = 0; n < bed->cluster.node_count(); ++n) {
      const cdn::CdnNode& node = bed->cluster.node(n);
      if (const cdn::NodeDetection* detection = node.detection()) {
        result.alarms += detection->stats().alarms;
        result.signatures_expired += detection->table().expired_total;
      }
      add_cache_counts(run.counts, node);
    }
    result.gossip = fabric.stats();
    if (result.legit_requests != 0) {
      result.collateral_rate = static_cast<double>(result.legit_quarantined) /
                               static_cast<double>(result.legit_requests);
    }
    const std::size_t served = result.legit_requests - result.legit_quarantined;
    if (served != 0) {
      result.legit_hit_rate = static_cast<double>(legit_hits) / static_cast<double>(served);
    }
    run.counts.exchanges = schedule.size();
    run.counts.upstream_fetches = run.ledger[Layer::kOrigin].calls;
    run.counts.origin_response_bytes = bed->cluster.total_upstream_response_bytes();
    run.counts.gossip_messages_sent = result.gossip.messages_sent;
    run.counts.gossip_signatures_accepted = result.gossip.signatures_accepted;
    run.phases.testbed_s += time_call([&] { bed.reset(); });
    return gossip_fingerprint(result);
  }

  int threads_;
  Scale scale_;
  core::GossipDetectionConfig config_;
  std::map<std::string, std::string> expect_;
  std::vector<double> zipf_cdf_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        Scale scale, int threads,
                                        const std::map<std::string, std::string>& expect) {
  if (name == "sbr_flood") return std::make_unique<SbrFlood>(scale, threads);
  if (name == "obr_cascade") return std::make_unique<ObrCascade>(scale, threads, expect);
  if (name == "mixed_edge") return std::make_unique<MixedEdge>(seed, scale, threads, expect);
  return nullptr;
}

}  // namespace perfbench

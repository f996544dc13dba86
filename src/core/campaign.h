// Sustained attack campaigns and benign workloads.
//
// The practicability experiment of section V-D is a *campaign*: m crafted
// requests per second, sustained, spread across ingress nodes.  This module
// drives such campaigns end-to-end against an EdgeCluster -- rotating
// cache-busting queries, feeding every exchange to the RangeAmpDetector,
// and projecting the byte totals onto the processor-sharing uplink model
// (sim/attack_load.h) for the Fig 7 time series.
//
// It also generates a realistic benign workload (cache-friendly page loads,
// resume-from-offset downloads, multi-threaded segment fetches) used to
// validate the detector's false-positive behaviour.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include <optional>

#include "cdn/cluster.h"
#include "cdn/profiles.h"
#include "core/detector.h"
#include "core/mitigations.h"
#include "net/transport_factory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/attack_load.h"

namespace rangeamp::core {

/// Campaign parameters.  Construct via SbrCampaignConfig::Builder(), which
/// validates at build() time; direct field poking is deprecated (it skips
/// validation and will lose write access when the fields go private).
struct SbrCampaignConfig {
  cdn::Vendor vendor = cdn::Vendor::kCloudflare;
  cdn::ProfileOptions options;
  std::uint64_t file_size = 10 * (1u << 20);
  int requests_per_second = 10;
  int duration_s = 30;
  std::size_t edge_nodes = 8;
  cdn::NodeSelection selection = cdn::NodeSelection::kRoundRobin;
  double origin_uplink_mbps = 1000.0;

  /// Applied to every edge node: run the same campaign against a hardened
  /// deployment to measure a mitigation's effect end-to-end.
  std::optional<Mitigation> mitigation;

  /// Origin-shielding knobs applied to every edge node (all off by default,
  /// so an unshielded campaign replays byte-identically).
  cdn::OriginShieldPolicy shield;

  /// How many consecutive campaign requests reuse one cache-busting URL.
  /// Same-key neighbours land on the same ingress node (as a URL-hashing
  /// load balancer would place them), which is the burst a fill lock can
  /// collapse.  1 = every request busts the cache with a fresh key.
  int same_key_burst = 1;

  /// Sharded execution (src/core/parallel.h, docs/parallel-model.md).
  /// `shards` decomposes the exchange grid into contiguous, burst-aligned
  /// blocks, each run against its own cluster/origin/recorder instances and
  /// merged by a deterministic ordered reduction; `threads` workers execute
  /// the shards.  Results depend only on `shards`, never on `threads` --
  /// shards = 1 (the default) is the exact legacy serial path at any thread
  /// count.  Campaigns whose defenses couple exchanges across key groups
  /// (circuit breaker, overload watermarks) should keep shards = 1; see the
  /// determinism contract in docs/parallel-model.md.
  std::size_t shards = 1;
  int threads = 1;

  /// Observability hooks (non-owning, both null by default so the campaign
  /// replays byte-identically).  With a tracer, every amplification unit
  /// yields an "sbr.request" span tree; with a registry, the cdn_* counters
  /// and the per-vendor amplification histogram are maintained and sampled
  /// once per simulated second.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;

  /// Backend of every HTTP/1.1 segment the campaign builds (attacker wire,
  /// cluster ingress and upstream wires).  In-memory by default; committed
  /// CSVs must never be generated with anything else.
  net::TransportSpec transport;

  /// Fluent constructor with build-time validation (defined below, once the
  /// enclosing struct is complete).
  class Builder;
};

class SbrCampaignConfig::Builder {
 public:
  Builder& vendor(cdn::Vendor v) { config_.vendor = v; return *this; }
  Builder& options(cdn::ProfileOptions o) {
    config_.options = std::move(o);
    return *this;
  }
  Builder& file_size(std::uint64_t bytes) {
    config_.file_size = bytes;
    return *this;
  }
  Builder& requests_per_second(int m) {
    config_.requests_per_second = m;
    return *this;
  }
  Builder& duration_s(int seconds) {
    config_.duration_s = seconds;
    return *this;
  }
  Builder& edge_nodes(std::size_t n) { config_.edge_nodes = n; return *this; }
  Builder& selection(cdn::NodeSelection s) {
    config_.selection = s;
    return *this;
  }
  Builder& origin_uplink_mbps(double mbps) {
    config_.origin_uplink_mbps = mbps;
    return *this;
  }
  Builder& mitigation(Mitigation m) { config_.mitigation = m; return *this; }
  Builder& shield(cdn::OriginShieldPolicy policy) {
    config_.shield = policy;
    return *this;
  }
  Builder& same_key_burst(int burst) {
    config_.same_key_burst = burst;
    return *this;
  }
  Builder& shards(std::size_t n) { config_.shards = n; return *this; }
  Builder& threads(int n) { config_.threads = n; return *this; }
  Builder& tracer(obs::Tracer* t) { config_.tracer = t; return *this; }
  Builder& metrics(obs::MetricsRegistry* m) {
    config_.metrics = m;
    return *this;
  }
  Builder& transport(const net::TransportSpec& spec) {
    config_.transport = spec;
    return *this;
  }

  /// Validates and returns the config; throws std::invalid_argument on an
  /// unrunnable combination (zero-length campaign, empty cluster, ...).
  SbrCampaignConfig build() const;

 private:
  SbrCampaignConfig config_;
};

struct SbrCampaignResult {
  // Byte totals over the whole campaign, per segment end.  The origin side
  // only aggregates response bytes (per-node request counts stay available
  // through the cluster).
  net::TrafficTotals attacker;
  net::TrafficTotals origin;
  /// Client exchanges whose response the attacker cut short (deliberate
  /// aborts / injected truncation), from TrafficRecorder::truncated_count().
  std::uint64_t attacker_truncated = 0;
  double amplification = 0;

  // Edge spread.
  std::size_t nodes_touched = 0;
  std::vector<std::uint64_t> per_node_upstream_bytes;

  // Time-domain projection (Fig 7 shape).
  sim::AttackLoadSummary bandwidth;
  std::vector<sim::BandwidthSample> series;

  // Detection.
  bool detector_alarmed = false;
  RangeAmpDetector::Stats detector_stats;

  // Shielding counters summed across edge nodes (all zero when the
  // campaign's shield knobs are off).
  cdn::ShieldStats shield_stats;
};

/// Runs a full SBR campaign against a fresh cluster testbed.
SbrCampaignResult run_sbr_campaign(const SbrCampaignConfig& config,
                                   const DetectorConfig& detector_config = {});

// ---------------------------------------------------------------------------
// OBR node-exhaustion campaign.
//
// Section V-D: "In an OBR attack, the victims are specific ingress nodes of
// the FCDN and the BCDN.  Due to an ethical concern, we can't launch a real
// attack to verify whether an ingress node is affected."  The simulation
// can: this campaign drives sustained OBR requests through a cascade pinned
// to one BCDN node and projects the fcdn-bcdn byte stream onto a
// capacity-limited inter-CDN link.
// ---------------------------------------------------------------------------

/// OBR campaign parameters.  Construct via ObrCampaignConfig::Builder(),
/// which validates at build() time; direct field poking is deprecated for
/// the same reason as SbrCampaignConfig.
struct ObrCampaignConfig {
  cdn::Vendor fcdn = cdn::Vendor::kCloudflare;
  cdn::Vendor bcdn = cdn::Vendor::kAkamai;
  std::uint64_t resource_size = 1024;
  std::size_t overlapping_ranges = 0;  ///< 0 = use the cascade's max n
  int requests_per_second = 2;
  int duration_s = 10;
  /// Capacity of the targeted node's uplink toward the FCDN.
  double node_uplink_mbps = 1000.0;
  /// Sharded execution: every OBR exchange is independent (each request
  /// busts both caches), so shard blocks run against their own cascade
  /// testbeds and merge to the serial byte totals exactly.  Results depend
  /// only on `shards`, never on `threads`.
  std::size_t shards = 1;
  int threads = 1;
  /// Backend of the cascade's HTTP/1.1 segments (in-memory by default).
  net::TransportSpec transport;

  class Builder;
};

class ObrCampaignConfig::Builder {
 public:
  Builder& fcdn(cdn::Vendor v) { config_.fcdn = v; return *this; }
  Builder& bcdn(cdn::Vendor v) { config_.bcdn = v; return *this; }
  Builder& resource_size(std::uint64_t bytes) {
    config_.resource_size = bytes;
    return *this;
  }
  Builder& overlapping_ranges(std::size_t n) {
    config_.overlapping_ranges = n;
    return *this;
  }
  Builder& requests_per_second(int m) {
    config_.requests_per_second = m;
    return *this;
  }
  Builder& duration_s(int seconds) {
    config_.duration_s = seconds;
    return *this;
  }
  Builder& node_uplink_mbps(double mbps) {
    config_.node_uplink_mbps = mbps;
    return *this;
  }
  Builder& shards(std::size_t n) { config_.shards = n; return *this; }
  Builder& threads(int n) { config_.threads = n; return *this; }
  Builder& transport(const net::TransportSpec& spec) {
    config_.transport = spec;
    return *this;
  }

  /// Validates and returns the config; throws std::invalid_argument on an
  /// unrunnable combination.
  ObrCampaignConfig build() const;

 private:
  ObrCampaignConfig config_;
};

struct ObrCampaignResult {
  std::size_t n = 0;                       ///< overlapping ranges used
  std::uint64_t fcdn_bcdn_bytes_per_request = 0;
  std::uint64_t bcdn_origin_response_bytes = 0;  ///< whole campaign
  std::uint64_t attacker_response_bytes = 0;     ///< whole campaign
  /// Client exchanges cut short by the attacker's deliberate early abort
  /// (every OBR request, when the abort trick is on).
  std::uint64_t attacker_truncated = 0;
  double amplification = 0;
  /// Time-domain projection of the fcdn-bcdn link.
  sim::AttackLoadSummary bandwidth;
  std::vector<sim::BandwidthSample> series;
  /// Seconds of sustained attack until the node's uplink saturates
  /// (<0 when it never does).
  double seconds_to_saturation = -1;
};

ObrCampaignResult run_obr_campaign(const ObrCampaignConfig& config);

/// Benign-workload parameters.  Construct via
/// LegitWorkloadConfig::Builder(); direct field poking is deprecated.
struct LegitWorkloadConfig {
  cdn::Vendor vendor = cdn::Vendor::kCloudflare;
  std::size_t requests = 200;
  std::uint64_t seed = 2020;
  std::size_t edge_nodes = 4;
  /// Sharded execution.  Each shard draws from its own RNG stream
  /// (SplitMix64 of `seed ^ shard_index`, see core/parallel.h) and warms its
  /// own cluster, so a sharded run is NOT sample-identical to the serial one
  /// -- it is a different (equally valid) workload of the same mix, and it
  /// is byte-identical across thread counts whenever `shards` is pinned.
  /// shards = 1 (the default) preserves the legacy single-stream run.
  std::size_t shards = 1;
  int threads = 1;
  /// Backend of the cluster's HTTP/1.1 segments (in-memory by default).
  net::TransportSpec transport;

  class Builder;
};

class LegitWorkloadConfig::Builder {
 public:
  Builder& vendor(cdn::Vendor v) { config_.vendor = v; return *this; }
  Builder& requests(std::size_t n) { config_.requests = n; return *this; }
  Builder& seed(std::uint64_t s) { config_.seed = s; return *this; }
  Builder& edge_nodes(std::size_t n) {
    config_.edge_nodes = n;
    return *this;
  }
  Builder& shards(std::size_t n) { config_.shards = n; return *this; }
  Builder& threads(int n) { config_.threads = n; return *this; }
  Builder& transport(const net::TransportSpec& spec) {
    config_.transport = spec;
    return *this;
  }

  /// Validates and returns the config; throws std::invalid_argument on an
  /// unrunnable combination.
  LegitWorkloadConfig build() const;

 private:
  LegitWorkloadConfig config_;
};

struct LegitWorkloadResult {
  // Byte totals per segment end (response side only for the origin
  // aggregate, as with SbrCampaignResult).
  net::TrafficTotals client;
  net::TrafficTotals origin;
  double cache_hit_rate = 0;
  bool detector_alarmed = false;
  RangeAmpDetector::Stats detector_stats;
};

/// Replays a benign mixed workload (page loads, resumes, segment downloads)
/// through the same cluster + detector pipeline.
LegitWorkloadResult run_legit_workload(const LegitWorkloadConfig& config,
                                       const DetectorConfig& detector_config = {});

// ---------------------------------------------------------------------------
// Cache-pollution campaign (docs/cache-model.md).
//
// The SBR random-query trick does not only bust the cache -- on a vendor
// with a Deletion forward policy every junk request also *inserts* the full
// entity under a fresh key.  This campaign interleaves such a flood with a
// Zipf-distributed legit workload against a byte-budgeted edge node and
// measures what the pollution costs the legit clients (hit-rate collapse)
// and the origin (amplified fill traffic) under each eviction policy.
// ---------------------------------------------------------------------------

struct CachePollutionConfig {
  /// Akamai by default: closed-range requests use the Deletion policy, so
  /// every attack request pulls and caches the full entity (section III-B).
  cdn::Vendor vendor = cdn::Vendor::kAkamai;

  /// Cache engine under test (budget, shards, eviction policy).  The
  /// default -- unbounded -- is the historic edge and the baseline rows.
  cdn::CacheTraits cache;

  /// Legit catalog: `catalog_objects` resources of `object_bytes` each,
  /// requested with Zipf(1) popularity (rank-k weight 1/k).
  std::size_t catalog_objects = 256;
  std::uint64_t object_bytes = 16 * 1024;

  /// The resource the attacker sprays 1-byte ranges at.  Larger than a
  /// catalog object, so every junk insert displaces several legit entries.
  std::uint64_t attack_object_bytes = 256 * 1024;

  /// Legit-only warmup requests (not measured) that populate the cache
  /// before the flood starts, per shard.
  std::size_t warmup_requests = 512;

  /// Measured phase: total interleaved requests across all shards; each is
  /// an attack request with probability `attack_fraction`.
  std::size_t requests = 2048;
  double attack_fraction = 0.5;

  std::uint64_t seed = 2020;

  /// Sharded execution (docs/parallel-model.md): each shard runs its own
  /// origin + node (per-shard cache ownership) over a contiguous block of
  /// the request grid, seeded from SplitMix64(seed ^ shard index).  As with
  /// the legit workload, a sharded run is a different-but-equivalent
  /// workload of the same mix; results depend only on `shards`, never on
  /// `threads`.  shards = 1 (default) is the canonical serial run.
  std::size_t shards = 1;
  int threads = 1;

  /// Optional registry: per-shard registries are merged in shard order, so
  /// the cdn_cache_* metrics of the run land in one place (null = off, no
  /// behaviour change).
  obs::MetricsRegistry* metrics = nullptr;
};

struct CachePollutionResult {
  std::size_t legit_requests = 0;
  std::size_t attack_requests = 0;
  std::size_t legit_hits = 0;  ///< measured-phase legit requests, zero origin bytes
  double legit_hit_rate = 0;

  /// Attacker-facing traffic of the measured phase (request + 1-byte 206s).
  net::TrafficTotals attacker;
  /// Origin response bytes: whole run, and the slice pulled by attack
  /// requests alone (full-entity fills forced by the Deletion policy).
  std::uint64_t origin_response_bytes = 0;
  std::uint64_t attack_origin_response_bytes = 0;
  /// Origin-traffic amplification of the flood: attack-driven origin
  /// response bytes over attacker-received response bytes.
  double attack_amplification = 0;

  /// Peak and final resident cache bytes (max across shards -- each shard's
  /// node must respect its own budget).
  std::uint64_t cache_bytes_peak = 0;
  std::uint64_t cache_bytes_end = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_admission_rejects = 0;
};

/// Runs the interleaved pollution campaign against a fresh per-shard
/// single-node testbed.
CachePollutionResult run_cache_pollution_campaign(
    const CachePollutionConfig& config);

// ---------------------------------------------------------------------------
// Gossip-detection campaign (docs/detection-model.md).
//
// A node-rotating SBR attacker interleaved with a large Zipf legit workload
// against a detection-enabled EdgeCluster.  Measures how many attacker
// rotations pass before the whole cluster quarantines the attack (detection
// latency) and what the signature propagation costs legitimate clients
// (false-positive collateral), across gossip fanout x rotation rate x
// message loss x node churn.
//
// Determinism contract: gossip couples the nodes, so the exchanges execute
// serially against ONE cluster -- but the exchange *schedule* (who sends
// what to which node at which instant) is derived statelessly per global
// index and materialized by `shards` workers.  The schedule -- and therefore
// the whole campaign -- is byte-identical for any shards/threads setting,
// which is what lets gossip_detection.csv sit under the 8-thread drift gate.
// ---------------------------------------------------------------------------

struct GossipDetectionConfig {
  /// Akamai by default: the Deletion forward policy turns every 1-byte
  /// attack range into a full-entity origin fetch, the asymmetry signature
  /// the detector keys on.
  cdn::Vendor vendor = cdn::Vendor::kAkamai;

  std::size_t edge_nodes = 8;

  /// Legit population: `legit_users` distinct client identities (each pinned
  /// to an ingress node by identity hash, as a DNS load balancer would),
  /// requesting `catalog_objects` resources of `object_bytes` with Zipf(1)
  /// popularity.
  std::size_t legit_users = 120000;
  std::size_t catalog_objects = 256;
  std::uint64_t object_bytes = 16 * 1024;

  /// The attack target; larger than a catalog object so the Deletion-policy
  /// origin fetches dominate the asymmetry ratio.
  std::uint64_t attack_object_bytes = 1u << 20;

  /// Fraction of legit requests that are tiny existence probes
  /// (Range: bytes=0-1) against the attack target's URL -- the traffic
  /// pattern-quarantine collateral is measured on.
  double probe_fraction = 0.01;

  /// Total interleaved exchanges; every `attack_every`-th (0 = no attacker)
  /// is the attacker's.  Exchange i happens at sim time i / requests_per_second.
  std::size_t requests = 40000;
  std::size_t attack_every = 40;
  int requests_per_second = 1000;

  /// The attacker pins ingress node (k / rotation) % edge_nodes for its k-th
  /// request: `attacker_rotation_requests` requests per node, then move on
  /// -- the paper's "completely different ingress nodes" spreading trick.
  std::size_t attacker_rotation_requests = 8;

  /// Detection/gossip/quarantine knobs applied to every edge node.
  cdn::DetectionPolicy detection;

  /// Node churn: every period, the next node (round-robin) has its
  /// detection layer restarted -- detector windows and signature table lost.
  /// 0 = no churn.
  double churn_restart_period_seconds = 0;

  std::uint64_t seed = 2020;

  /// Schedule-materialization sharding (see the determinism contract above;
  /// execution is always serial).
  std::size_t shards = 1;
  int threads = 1;

  /// Observability hooks (non-owning, null = off, no behaviour change).
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

struct GossipDetectionResult {
  std::size_t legit_requests = 0;
  std::size_t attack_requests = 0;
  std::size_t legit_quarantined = 0;   ///< legit exchanges answered 429
  std::size_t attack_quarantined = 0;  ///< attacker exchanges answered 429
  /// False-positive collateral: legit_quarantined / legit_requests.
  double collateral_rate = 0;
  double legit_hit_rate = 0;

  /// First exchange index at which every node held an active signature for
  /// the attacker (-1: never happened during the run).
  std::int64_t convergence_exchange = -1;
  /// Attacker rotations completed at that exchange (-1: never converged).
  double convergence_rotations = -1;
  /// Sim seconds from the first attack request to cluster-wide quarantine.
  double detection_latency_seconds = -1;

  /// Detector alarm transitions summed over nodes.
  std::uint64_t alarms = 0;
  /// Nodes holding an active attacker signature when the run ended.
  std::size_t final_coverage = 0;
  /// TTL-expired signatures summed over nodes.
  std::uint64_t signatures_expired = 0;

  cdn::GossipStats gossip;
};

/// Runs the rotating-attacker + Zipf-legit campaign against a fresh
/// detection-enabled cluster testbed.
GossipDetectionResult run_gossip_detection_campaign(
    const GossipDetectionConfig& config);

}  // namespace rangeamp::core

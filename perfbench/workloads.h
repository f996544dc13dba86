// The benchmark's three campaign workloads.
//
// Every workload offers the same operations:
//
//   * campaign(): one call of the public campaign entry point
//     (core::run_sbr_campaign / run_obr_campaign /
//     run_gossip_detection_campaign), untraced, serial or sharded;
//   * sinks_wall(): wall seconds of one serial run with or without an
//     obs::Tracer + obs::MetricsRegistry attached;
//   * setup(): the set-up a sharded campaign pays before its first exchange
//     (every shard's testbed, plus OBR discovery), built from public
//     constructors exactly as the campaign builds it;
//   * traced(): the same campaign replayed through the benchmark's own
//     driver with timing decorators at every hop boundary;
//   * traced_sharded(): the driver's sharded replay, timing each shard and
//     the serial tail after the last one.
//
// Each run yields a fingerprint: a canonical text of every deterministic
// output field, so "same result" is plain string equality.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ledger.h"

namespace perfbench {

enum class Scale { kFull, kTiny };

/// Result of one campaign call through the public entry point.
struct CampaignRun {
  std::string fingerprint;
  double wall_s = 0;
};

/// Driver phases outside the exchange loop (seconds; 0 where the workload
/// has no such phase).
struct Phases {
  double discovery_s = 0;   ///< core::measure_obr
  double testbed_s = 0;     ///< origin + CDN construction and teardown
  double merge_s = 0;       ///< ordered reduction of shard results
  double replay_s = 0;      ///< detector replay of the merged samples
  double projection_s = 0;  ///< sim::simulate_attack_load + summarize
};

/// Exact per-run counts gathered at the hop boundaries.
struct Counts {
  std::uint64_t exchanges = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t upstream_fetches = 0;       ///< ingress tier -> its upstream
  std::uint64_t origin_response_bytes = 0;  ///< bytes the origin served
  std::uint64_t quarantined = 0;            ///< exchanges answered 429
  std::uint64_t gossip_messages_sent = 0;
  std::uint64_t gossip_signatures_accepted = 0;
};

/// One serial traced replay.
struct TracedRun {
  std::string fingerprint;
  double wall_s = 0;
  double loop_s = 0;  ///< the exchange loop, client transfers included
  Phases phases;
  Ledger ledger;
  std::vector<double> exchange_s;  ///< client transfer time per exchange
  Counts counts;
};

/// One sharded traced replay.
struct ShardedRun {
  std::string fingerprint;
  double wall_s = 0;
  double shards_s = 0;  ///< from the first shard start to the last shard end
  std::vector<double> shard_busy_s;
  int threads = 1;
  Phases phases;  ///< serial tail after the last shard
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Exchanges (campaign amplification units) in one campaign call.
  virtual std::uint64_t exchanges() const = 0;

  virtual CampaignRun campaign(bool sharded) = 0;
  virtual double sinks_wall(bool attached) = 0;
  /// Seconds of set-up for one sharded campaign.
  virtual double setup() = 0;
  virtual TracedRun traced() = 0;
  virtual ShardedRun traced_sharded() = 0;

  /// The Range header the workload's attack requests carry and the size of
  /// the resource it targets (for the standalone http parse/sizing probes).
  virtual std::string range_header() const = 0;
  virtual std::uint64_t range_resource_bytes() const = 0;

  /// Checks a reference fingerprint against committed results; returns an
  /// empty string when it matches, else what differed.
  virtual std::string check_reference(const std::string& fingerprint) = 0;
};

/// Builds a workload by name (sbr_flood, obr_cascade, mixed_edge); nullptr
/// for an unknown name.  `expect` holds committed reference values keyed
/// like "obr.n" or "gossip.attack_quarantined" (see run.py).
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        Scale scale, int threads,
                                        const std::map<std::string, std::string>& expect);

}  // namespace perfbench

// Sharded parallel execution for campaign-scale workloads.
//
// Every experiment in this reproduction is an aggregate over many
// *independent* exchanges (the paper's amplification factors are byte ratios
// summed across requests), which parallelizes without changing a single
// result byte -- provided the decomposition is deterministic.  This module
// supplies the pieces the campaign drivers build on:
//
//   * ShardPlan -- splits an exchange grid [0, total) into contiguous,
//     group-aligned shards, each with a deterministically derived RNG seed
//     (SplitMix64 of `seed ^ shard_index`).  The plan is a pure function of
//     (total, shard_count, seed, group): it never consults the thread count,
//     the hardware, or a clock, so the same shard boundaries and seeds come
//     out on every machine and at every parallelism level.
//
//   * run_shards -- runs one task per shard on up to `threads` short-lived
//     std::threads that claim shard indices from one atomic counter.
//     Threads only decide *when* a shard runs, never *what* it computes.
//
//   * run_sharded -- the one campaign driver: plan, run, and hand back the
//     per-shard blocks in shard-index order, with per-shard obs sinks
//     merged into the caller's.  A one-shard run is a single inline block
//     over the whole grid on the caller's own sinks and seeded with the
//     campaign seed itself; every reduction happens on the calling thread
//     after every shard completed, so the result is identical at any
//     thread count.
//
// ## Per-shard ownership rule
//
// Workers share NOTHING mutable.  A shard task must own every piece of
// state it touches:
//
//   * its own origin::OriginServer, cdn::CdnNode / EdgeCluster (and thus its
//     own cdn::Cache maps, ShieldStats, ValidationStats, OverloadStats --
//     all of which are plain per-instance members),
//   * its own net::TrafficRecorder / ExchangeRecord log,
//   * its own obs::Tracer and obs::MetricsRegistry sinks (merged afterwards
//     with Tracer::merge_from / MetricsRegistry::merge_from, in shard
//     order),
//   * its own http::Rng, seeded from Shard::seed -- never a shared stream.
//
// The shard function may read the (const) campaign config and the shard
// descriptor; everything it writes goes into a result slot indexed by
// Shard::index that no other shard touches.  This was audited against the
// library (src/ holds no mutable statics or thread_locals; recorders,
// caches and stats structs are all instance members), and the rule is what
// keeps the ThreadSanitizer CI tier clean.  Cross-shard coupling that the
// decomposition cannot express -- breaker windows spanning key groups,
// overload watermarks fed by global concurrency -- is exactly the state a
// campaign must keep `shards = 1` for; see docs/parallel-model.md.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace rangeamp::core {

/// SplitMix64 (Steele et al.): the canonical seed-spreading finalizer.
/// Adjacent inputs (seed ^ 0, seed ^ 1, ...) map to decorrelated outputs,
/// which is what makes per-shard xorshift streams independent.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Seed of shard `index` under campaign seed `seed`.  Depends only on the
/// pair -- NOT on the shard count -- so pinning the shard count pins every
/// stream, and growing a campaign appends new streams without perturbing
/// the existing ones.
constexpr std::uint64_t shard_seed(std::uint64_t seed,
                                   std::size_t index) noexcept {
  return splitmix64(seed ^ static_cast<std::uint64_t>(index));
}

/// One shard of an exchange grid: the contiguous global-index block
/// [begin, end) plus this shard's derived RNG seed.
struct Shard {
  std::size_t index = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;    ///< past-the-end global exchange index
  std::uint64_t seed = 0;   ///< shard_seed(campaign_seed, index)

  std::uint64_t size() const noexcept { return end - begin; }
};

/// Deterministic decomposition of [0, total) into at most `shard_count`
/// contiguous shards.  Boundaries fall on multiples of `group` (a key-burst
/// group must never straddle a shard: splitting it would turn one shard's
/// cache hit into another shard's miss), block sizes differ by at most one
/// group, and empty shards are never emitted -- the plan clamps the shard
/// count to the group count.
class ShardPlan {
 public:
  ShardPlan(std::uint64_t total, std::size_t shard_count,
            std::uint64_t seed = 0, std::uint64_t group = 1);

  const std::vector<Shard>& shards() const noexcept { return shards_; }
  std::size_t size() const noexcept { return shards_.size(); }
  std::uint64_t total() const noexcept { return total_; }

 private:
  std::uint64_t total_;
  std::vector<Shard> shards_;
};

/// Runs `fn(shard)` for every shard of `plan` on up to `threads` workers
/// and returns once all shards completed.  With `threads <= 1` (or a
/// single-shard plan) the shards run inline on the calling thread, in shard
/// order, and no thread is ever started -- the serial path stays
/// allocation- and syscall-identical to a plain loop.  If any shard throws,
/// the first exception (in shard-index order) is rethrown after all shards
/// finished.
void run_shards(const ShardPlan& plan, std::size_t threads,
                const std::function<void(const Shard&)>& fn);

/// The caller's observability sinks for one campaign; either may be null.
struct ShardSinks {
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// The sharded-campaign driver: runs `block_fn(shard, sinks) -> Block` over
/// the grid [0, total) and returns the blocks in shard-index order for the
/// caller to fold.
///
/// With `shards <= 1` the whole grid is one block, run inline on the
/// caller's own sinks and seeded with `seed` itself (not a derived stream),
/// so a one-shard campaign is exactly its plain serial loop.  Otherwise the
/// grid is split by ShardPlan(total, shards, seed, group) and run on up to
/// `threads` workers; each shard gets a private tracer/registry for every
/// non-null caller sink, merged into the caller's in shard order once all
/// shards completed.
template <class BlockFn,
          class Block = std::invoke_result_t<BlockFn&, const Shard&, ShardSinks>>
std::vector<Block> run_sharded(std::uint64_t total, std::size_t shards,
                               int threads, std::uint64_t seed,
                               std::uint64_t group, ShardSinks sinks,
                               BlockFn&& block_fn) {
  std::vector<Block> blocks;
  if (shards <= 1) {
    blocks.push_back(block_fn(Shard{.begin = 0, .end = total, .seed = seed}, sinks));
    return blocks;
  }
  const ShardPlan plan(total, shards, seed, group);
  blocks.resize(plan.size());
  std::vector<obs::Tracer> tracers(sinks.tracer ? plan.size() : 0);
  std::vector<obs::MetricsRegistry> registries(sinks.metrics ? plan.size() : 0);
  run_shards(plan, static_cast<std::size_t>(std::max(1, threads)),
             [&](const Shard& shard) {
               const std::size_t i = shard.index;
               blocks[i] = block_fn(
                   shard, {sinks.tracer ? &tracers[i] : nullptr,
                           sinks.metrics ? &registries[i] : nullptr});
             });
  for (const obs::Tracer& tracer : tracers) sinks.tracer->merge_from(tracer);
  for (const obs::MetricsRegistry& registry : registries) {
    sinks.metrics->merge_from(registry);
  }
  return blocks;
}

}  // namespace rangeamp::core

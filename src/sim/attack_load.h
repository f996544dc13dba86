// Time-domain SBR attack-load simulation (experiment 4 / Fig 7).
//
// Drives the exact processor-sharing link of sim/des.h with the paper's
// workload: m range requests per second for `duration_s` seconds.  Each
// request costs the origin one back-to-origin response of
// `origin_response_bytes` on its 1000 Mbps uplink, while the client receives
// only a `client_response_bytes` 206 once the CDN has pulled the resource.
// Output is the per-second bandwidth series the paper plots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rangeamp::sim {

struct AttackLoadConfig {
  /// Origin uplink capacity (the paper's testbed: 1000 Mbps).
  double origin_uplink_mbps = 1000.0;

  /// Attack rate: requests sent concurrently at each whole second.
  int requests_per_second = 1;

  /// Attack duration in seconds (paper: 30 s).
  double duration_s = 30.0;

  /// How long to keep simulating after the last request is sent, so
  /// in-flight transfers can drain into the series.
  double drain_s = 10.0;

  /// Bytes the origin sends per attack request (measured on the testbed;
  /// ~ resource size + response headers under a Deletion-policy CDN).
  std::uint64_t origin_response_bytes = 0;

  /// Bytes the client receives per attack request (the tiny 206).
  std::uint64_t client_response_bytes = 0;

  /// Benign cross-traffic sharing the origin uplink (collateral-damage
  /// experiments): full-resource pulls at this rate and size.
  int benign_requests_per_second = 0;
  std::uint64_t benign_response_bytes = 0;

  /// Round-trip network latency added to every reported benign fetch
  /// latency (request travel + first byte back).  Transfer times come from
  /// the PS link; this models the propagation floor.
  double network_rtt_s = 0;
};

struct BandwidthSample {
  double second = 0;            ///< sample interval [second, second+1)
  double origin_out_mbps = 0;   ///< origin outgoing bandwidth
  double client_in_kbps = 0;    ///< client incoming bandwidth
  std::size_t in_flight = 0;    ///< back-to-origin transfers still active at
                                ///< the end of the interval
  /// Benign cross-traffic (when configured): bytes completed this second
  /// and the mean fetch latency of flows completing this second (<0 when
  /// none completed).
  double benign_goodput_mbps = 0;
  double benign_latency_s = -1;
};

/// The Fig 7 experiment with an origin shield in front of the uplink:
/// request coalescing collapses same-key bursts into one back-to-origin
/// flow, and admission control sheds arrivals beyond a pending cap.  The
/// knobs mirror cdn::OriginShieldPolicy so a campaign's shield settings
/// project directly onto the time series.  With every knob at its default
/// the shield is absent and the run is the plain Fig 7 experiment.
struct ShieldedLoadConfig {
  AttackLoadConfig base;

  /// How many of each second's arrivals share one cache key (the attacker's
  /// reuse of a cache-busting URL within a burst).  1 = every arrival has a
  /// distinct key, so coalescing has nothing to collapse.
  int same_key_burst = 1;

  /// Fill-lock coalescing on: each key group costs one origin flow; the
  /// followers are answered from the held fill at no origin cost.
  bool coalesce = false;

  /// Shed arrivals once this many back-to-origin flows are in flight
  /// (0 = unlimited).  A shed answer is a local 503, not an origin flow.
  std::size_t max_pending = 0;

  /// Client-side bytes of a shed 503 (counted into client_in_kbps so the
  /// attacker's view of a shedding origin stays visible in the series).
  std::uint64_t shed_response_bytes = 0;

  /// Per-exchange deadline (seconds): an origin flow still in flight this
  /// long after it started is cancelled -- the projection of
  /// cdn::DeadlinePolicy onto the PS model (0 = off).  Cancellation frees
  /// the remaining demand; the bytes already moved stay as wasted work in
  /// cancelled_origin_bytes.
  double deadline_seconds = 0;
};

struct ShieldedLoadResult {
  std::vector<BandwidthSample> series;
  std::uint64_t origin_fetches = 0;  ///< flows that actually hit the uplink
  std::uint64_t coalesced = 0;       ///< arrivals absorbed by a fill lock
  std::uint64_t shed = 0;            ///< arrivals refused by admission control
  std::uint64_t deadline_cancelled = 0;  ///< flows cut by the deadline
  double cancelled_origin_bytes = 0;     ///< bytes those flows had moved

  /// Seconds the uplink spent busy (the "pinned resource time" of the OBR
  /// node-exhaustion scenario): the bytes the series moved divided by the
  /// configured uplink capacity.
  double busy_seconds(double uplink_mbps) const noexcept {
    if (uplink_mbps <= 0) return 0;
    double busy = 0;
    for (const BandwidthSample& s : series) {
      busy += s.origin_out_mbps / uplink_mbps;
    }
    return busy;
  }
};

/// Runs the attack load on the origin uplink and returns one sample per
/// second of [0, ceil(duration_s + drain_s)).  Arrivals fire at every whole
/// second below duration_s; benign flows start after each second's attack
/// arrivals and pass the shield untouched.  Each sample is read at its
/// second's end, before that instant's arrivals: origin_out_mbps from the
/// exact bytes the link moved in the second, in_flight from the flows still
/// active.
ShieldedLoadResult simulate_attack_load_shielded(const ShieldedLoadConfig& config);

/// The unshielded experiment: simulate_attack_load_shielded's series with
/// every shield knob off.
std::vector<BandwidthSample> simulate_attack_load(const AttackLoadConfig& config);

/// Steady-state utilization summary over the attack window.
struct AttackLoadSummary {
  double peak_origin_out_mbps = 0;
  double mean_origin_out_mbps = 0;  ///< over [5s, duration) -- warmed up
  double peak_client_in_kbps = 0;
  bool saturated = false;  ///< origin uplink pinned at capacity
};

AttackLoadSummary summarize(const AttackLoadConfig& config,
                            const std::vector<BandwidthSample>& series);

}  // namespace rangeamp::sim

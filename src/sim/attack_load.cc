#include "sim/attack_load.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "sim/des.h"

namespace rangeamp::sim {

ShieldedLoadResult simulate_attack_load_shielded(const ShieldedLoadConfig& config) {
  const AttackLoadConfig& base = config.base;
  const double capacity = base.origin_uplink_mbps * 1e6 / 8.0;  // bytes/s
  const std::size_t seconds =
      static_cast<std::size_t>(std::ceil(base.duration_s + base.drain_s));

  ShieldedLoadResult result;
  result.series.resize(seconds);
  // Completions and local answers, by the second they land in.
  struct Tally {
    double client_bytes = 0;
    double benign_bytes = 0;
    double benign_latency = 0;
    std::size_t benign_completions = 0;
  };
  std::vector<Tally> tallies(seconds);

  // Every lambda below captures this frame by reference; the event loop
  // ends before it returns.
  EventQueue queue;
  const auto tally_now = [&]() -> Tally& {
    return tallies[static_cast<std::size_t>(queue.now())];
  };
  std::unordered_set<std::uint64_t> benign_ids;
  // Deadline machinery: each admitted flow arms a cancellation event; the
  // completion handler disarms it (EventQueue::cancel), and a firing event
  // cuts the flow (PsLink::cancel_flow).
  std::unordered_map<std::uint64_t, EventQueue::EventId> deadline_events;

  PsLink link(queue, capacity, [&](std::uint64_t id, std::uint64_t, double start) {
    Tally& tally = tally_now();
    if (benign_ids.erase(id)) {
      tally.benign_bytes += static_cast<double>(base.benign_response_bytes);
      tally.benign_latency += queue.now() - start + base.network_rtt_s;
      ++tally.benign_completions;
      return;
    }
    if (const auto armed = deadline_events.find(id); armed != deadline_events.end()) {
      queue.cancel(armed->second);
      deadline_events.erase(armed);
    }
    // An origin flow completing also completes the client-facing 206.
    tally.client_bytes += static_cast<double>(base.client_response_bytes);
  });

  // Samples go in first so that each runs before anything else scheduled
  // for its instant: second s is read at s+1, before that second's arrivals.
  double sampled_bytes = 0;
  for (std::size_t s = 0; s < seconds; ++s) {
    queue.schedule(static_cast<double>(s + 1), [&, s] {
      const double moved = link.moved_bytes();
      result.series[s].origin_out_mbps = (moved - sampled_bytes) * 8.0 / 1e6;
      result.series[s].in_flight = link.active_flows();
      sampled_bytes = moved;
    });
  }

  const auto start_origin_flow = [&] {
    ++result.origin_fetches;
    const std::uint64_t flow_id = link.start_flow(base.origin_response_bytes);
    if (config.deadline_seconds <= 0 || base.origin_response_bytes == 0) return;
    deadline_events[flow_id] = queue.schedule_in(config.deadline_seconds, [&, flow_id] {
      deadline_events.erase(flow_id);
      if (link.cancel_flow(flow_id)) {
        ++result.deadline_cancelled;
        // The client leg is abandoned: a 504 the size of the shed response,
        // not a 206.
        tally_now().client_bytes += static_cast<double>(config.shed_response_bytes);
      }
    });
  };
  const int group = std::max(1, config.same_key_burst);
  for (int second = 0; second < base.duration_s; ++second) {
    queue.schedule(second, [&] {
      for (int i = 0; i < base.requests_per_second; ++i) {
        if (config.coalesce && i % group != 0) {
          // Follower of this second's key group: answered from the leader's
          // fill, no origin flow.  The client still gets its tiny 206 now.
          ++result.coalesced;
          tally_now().client_bytes += static_cast<double>(base.client_response_bytes);
        } else if (config.max_pending != 0 && link.active_flows() >= config.max_pending) {
          ++result.shed;
          tally_now().client_bytes += static_cast<double>(config.shed_response_bytes);
        } else {
          start_origin_flow();
        }
      }
      for (int i = 0; i < base.benign_requests_per_second; ++i) {
        benign_ids.insert(link.start_flow(base.benign_response_bytes));
      }
    });
  }

  // The last sample is the first event at t = seconds, so the run stops
  // right after it; later completions fall outside the series.
  const double end = static_cast<double>(seconds);
  while (queue.run_next() && queue.now() < end) {
  }

  for (std::size_t s = 0; s < seconds; ++s) {
    BandwidthSample& sample = result.series[s];
    const Tally& tally = tallies[s];
    sample.second = static_cast<double>(s);
    sample.client_in_kbps = tally.client_bytes * 8.0 / 1e3;
    sample.benign_goodput_mbps = tally.benign_bytes * 8.0 / 1e6;
    sample.benign_latency_s =
        tally.benign_completions
            ? tally.benign_latency / static_cast<double>(tally.benign_completions)
            : -1;
  }
  result.cancelled_origin_bytes = link.cancelled_bytes();
  return result;
}

std::vector<BandwidthSample> simulate_attack_load(const AttackLoadConfig& config) {
  return simulate_attack_load_shielded({.base = config}).series;
}

AttackLoadSummary summarize(const AttackLoadConfig& config,
                            const std::vector<BandwidthSample>& series) {
  AttackLoadSummary out;
  double sum = 0;
  std::size_t n = 0;
  for (const auto& s : series) {
    out.peak_origin_out_mbps = std::max(out.peak_origin_out_mbps, s.origin_out_mbps);
    out.peak_client_in_kbps = std::max(out.peak_client_in_kbps, s.client_in_kbps);
    if (s.second >= 5.0 && s.second < config.duration_s) {
      sum += s.origin_out_mbps;
      ++n;
    }
  }
  out.mean_origin_out_mbps = n ? sum / static_cast<double>(n) : 0;
  out.saturated = out.mean_origin_out_mbps >= 0.98 * config.origin_uplink_mbps;
  return out;
}

}  // namespace rangeamp::sim

// Discrete-event simulation engine and an exact processor-sharing link.
//
// Experiment 4 of the paper (Fig 7) is a time-domain measurement: m SBR
// requests per second against a 1000 Mbps origin uplink, with the origin's
// outgoing and the client's incoming bandwidth sampled per second.  Byte
// counts alone cannot show the saturation knee at m ~ 12; a capacity-limited
// link whose concurrent transfers share the capacity equally can.  A
// processor-sharing (PS) link's next completion time is analytic (min
// remaining / fair share), so the simulation jumps from event to event with
// no integration error.  sim/attack_load.h drives the Fig 7 experiment on
// this link.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

namespace rangeamp::sim {

/// A time-ordered event queue.  Events scheduled for the same instant run
/// in scheduling order (stable).
class EventQueue {
 public:
  using Event = std::function<void()>;
  /// Handle returned by schedule(); pass to cancel().
  using EventId = std::uint64_t;

  /// Schedules `event` at absolute time `at` (must be >= now()); returns a
  /// handle the event can be cancelled with.
  EventId schedule(double at, Event event);

  /// Schedules `event` `delay` seconds from now.
  EventId schedule_in(double delay, Event event) {
    return schedule(now_ + delay, std::move(event));
  }

  /// Cancels a pending event.  A cancelled event never runs and never
  /// advances the clock.  Returns false when the event already ran (or was
  /// already cancelled) -- the caller can use that to disarm exactly once.
  bool cancel(EventId id);

  /// Runs the earliest live event; returns false when none remain.
  bool run_next();

  /// Runs every live event scheduled strictly before `horizon`; time ends
  /// at `horizon` (or at the last event if beyond).
  void run_until(double horizon);

  double now() const noexcept { return now_; }
  /// Live (non-cancelled) events still scheduled.
  std::size_t pending() const noexcept { return live_.size(); }

 private:
  struct Entry {
    double at;
    std::uint64_t seq;
    Event event;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.at > b.at || (a.at == b.at && a.seq > b.seq);
    }
  };

  /// Pops cancelled entries off the top; true when a live entry remains.
  bool discard_cancelled_top();

  double now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  // Lazy deletion: cancel() moves the seq from live_ to cancelled_; the
  // heap entry itself is discarded when it surfaces (a heap cannot remove
  // from the middle).  live_ makes cancel-after-run detection exact and
  // pending() O(1).
  std::unordered_set<EventId> live_;
  std::unordered_set<EventId> cancelled_;
};

/// An exact processor-sharing link driven by an EventQueue: flows share the
/// capacity equally, and completions fire as events at their analytic times.
class PsLink {
 public:
  using CompletionHandler = std::function<void(std::uint64_t flow_id,
                                               std::uint64_t bytes,
                                               double start_time)>;

  PsLink(EventQueue& queue, double capacity_bytes_per_sec,
         CompletionHandler on_completion)
      : queue_(&queue),
        capacity_(capacity_bytes_per_sec),
        on_completion_(std::move(on_completion)) {}

  /// Starts a flow now; returns its id (unique per link).
  std::uint64_t start_flow(std::uint64_t bytes);

  /// Cancels an active flow (deadline expiry): its remaining demand leaves
  /// the link immediately -- the survivors' shares rescale from now -- and
  /// the bytes it had already moved are counted into cancelled_bytes(), not
  /// completed_bytes().  The completion handler never fires for it.
  /// Returns false when the flow already completed (or never existed).
  bool cancel_flow(std::uint64_t id);

  std::size_t active_flows() const noexcept { return flows_.size(); }

  /// Total bytes that have fully crossed the link (completed flows).
  double completed_bytes() const noexcept { return completed_bytes_; }

  /// Bytes moved by flows that were cancelled mid-transfer (wasted work the
  /// deadline could not claw back).
  double cancelled_bytes() const noexcept { return cancelled_bytes_; }

  /// Every byte that has crossed the link up to the queue's current time:
  /// completed, in-flight and cancelled flows alike.  Settles the active
  /// flows to now first, so the difference of two readings is exactly the
  /// bytes moved between them.
  double moved_bytes() {
    advance_to_now();
    return moved_bytes_;
  }

 private:
  struct PsFlow {
    std::uint64_t id;
    double total;
    double remaining;
    double start_time;
  };

  void advance_to_now();
  void arm_next_completion();

  EventQueue* queue_;
  double capacity_;
  CompletionHandler on_completion_;
  std::vector<PsFlow> flows_;
  double last_update_ = 0;
  double completed_bytes_ = 0;
  double cancelled_bytes_ = 0;
  double moved_bytes_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t arm_generation_ = 0;  ///< invalidates stale completion events
};

}  // namespace rangeamp::sim

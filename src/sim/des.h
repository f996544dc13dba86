// Discrete-event simulation engine and an exact processor-sharing link.
//
// Experiment 4 of the paper (Fig 7) is a time-domain measurement: m SBR
// requests per second against a 1000 Mbps origin uplink, with the origin's
// outgoing and the client's incoming bandwidth sampled per second.  Byte
// counts alone cannot show the saturation knee at m ~ 12; a capacity-limited
// link whose concurrent transfers share the capacity equally can.
//
// PsLink is a virtual-time processor-sharing (PS) link.  A virtual clock V
// advances at capacity / n while n flows are active, so every active flow has
// received exactly V(now) - V(start) bytes; a flow of b bytes started at V0
// finishes when V reaches its tag V0 + b.  Flows that start at the same
// instant with the same size share a tag and are stored as one cohort: a
// contiguous id range plus the set of members cancelled since.  Cohorts are
// ordered on (tag, first id), so advancing to now is O(1) and a start, a
// cancel or a completion is O(log cohorts).  One completion wake-up is armed
// at a time: a start only delays the current head, so it re-arms only when it
// makes a new, earlier head; a wake-up that fires early re-arms itself.  The
// bytes moved are the busy-period closed form, capacity x busy time, so a
// link busy throughout reads exactly capacity x t.  sim/attack_load.h drives
// the Fig 7 experiment on this link.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <unordered_set>
#include <utility>
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

  std::size_t active_flows() const noexcept { return active_; }

  /// Live cohorts.  A cohort's storage is released when its last member
  /// completes or is cancelled.
  std::size_t cohorts() const noexcept { return cohorts_.size(); }

  /// Total bytes that have fully crossed the link (completed flows).
  double completed_bytes() const noexcept { return completed_bytes_; }

  /// Bytes moved by flows that were cancelled mid-transfer (wasted work the
  /// deadline could not claw back).
  double cancelled_bytes() const noexcept { return cancelled_bytes_; }

  /// Every byte that has crossed the link up to the queue's current time:
  /// completed, in-flight and cancelled flows alike.  A busy link moves
  /// exactly its capacity, so this is capacity x (busy time), and the
  /// difference of two readings is exactly the bytes moved between them.
  double moved_bytes() const noexcept {
    const double open = active_ ? queue_->now() - busy_since_ : 0.0;
    return capacity_ * (busy_time_ + open);
  }

 private:
  /// Flows [first id, first id + count) that started together with one size.
  struct Cohort {
    double tag;         ///< V at which every member finishes
    double start_v;     ///< V at the start
    double start_time;
    std::uint64_t bytes;
    std::uint64_t count = 1;
    std::uint64_t live = 1;
    std::vector<bool> cancelled;  ///< by member index; empty until a cancel
  };

  void advance_to_now();
  double eta(double tag) const;
  void leave(std::uint64_t flows);
  void arm();
  void wake();

  EventQueue* queue_;
  double capacity_;
  CompletionHandler on_completion_;
  std::map<std::uint64_t, Cohort> cohorts_;           ///< by first id
  std::set<std::pair<double, std::uint64_t>> order_;  ///< (tag, first id)
  std::uint64_t newest_cohort_ = 0;                   ///< first id; 0 = none
  std::size_t active_ = 0;
  double v_ = 0;            ///< virtual clock; reset when the link idles
  double last_update_ = 0;
  double busy_time_ = 0;    ///< closed busy periods, in seconds
  double busy_since_ = 0;   ///< start of the open busy period
  bool armed_ = false;
  double armed_at_ = 0;
  EventQueue::EventId wakeup_ = 0;
  double completed_bytes_ = 0;
  double cancelled_bytes_ = 0;
  std::uint64_t next_id_ = 1;
};

}  // namespace rangeamp::sim

#include "sim/des.h"

#include <algorithm>

namespace rangeamp::sim {

EventQueue::EventId EventQueue::schedule(double at, Event event) {
  const EventId id = next_seq_++;
  queue_.push({std::max(at, now_), id, std::move(event)});
  live_.insert(id);
  return id;
}

bool EventQueue::cancel(EventId id) {
  if (live_.erase(id) == 0) return false;  // already ran, cancelled, or bogus
  cancelled_.insert(id);
  return true;
}

bool EventQueue::discard_cancelled_top() {
  while (!queue_.empty()) {
    const EventId seq = queue_.top().seq;
    const auto it = cancelled_.find(seq);
    if (it == cancelled_.end()) return true;
    cancelled_.erase(it);
    queue_.pop();  // cancelled: drop without running or advancing time
  }
  return false;
}

bool EventQueue::run_next() {
  if (!discard_cancelled_top()) return false;
  // priority_queue::top() is const; the event is moved out via const_cast,
  // which is safe because the entry is popped immediately.
  Entry entry = std::move(const_cast<Entry&>(queue_.top()));
  queue_.pop();
  live_.erase(entry.seq);
  now_ = entry.at;
  entry.event();
  return true;
}

void EventQueue::run_until(double horizon) {
  while (discard_cancelled_top() && queue_.top().at < horizon) {
    run_next();
  }
  now_ = std::max(now_, horizon);
}

std::uint64_t PsLink::start_flow(std::uint64_t bytes) {
  advance_to_now();
  PsFlow flow;
  flow.id = next_id_++;
  flow.total = static_cast<double>(bytes);
  flow.remaining = static_cast<double>(bytes);
  flow.start_time = queue_->now();
  flows_.push_back(flow);
  if (bytes == 0) {
    // Degenerate flow: completes immediately.
    const std::uint64_t id = flow.id;
    const double start = flow.start_time;
    flows_.pop_back();
    queue_->schedule(queue_->now(), [this, id, start] {
      if (on_completion_) on_completion_(id, 0, start);
    });
    return flow.id;
  }
  arm_next_completion();
  return flow.id;
}

bool PsLink::cancel_flow(std::uint64_t id) {
  advance_to_now();
  const auto it = std::find_if(flows_.begin(), flows_.end(),
                               [&](const PsFlow& f) { return f.id == id; });
  if (it == flows_.end()) return false;
  cancelled_bytes_ += it->total - it->remaining;
  flows_.erase(it);
  // The survivors' shares just grew; their next completion moves earlier.
  arm_next_completion();
  return true;
}

void PsLink::advance_to_now() {
  const double now = queue_->now();
  const double dt = now - last_update_;
  if (dt > 0 && !flows_.empty()) {
    const double share = capacity_ / static_cast<double>(flows_.size());
    for (PsFlow& f : flows_) {
      const double moved = std::min(share * dt, f.remaining);
      f.remaining -= moved;
      moved_bytes_ += moved;
    }
  }
  last_update_ = now;
}

void PsLink::arm_next_completion() {
  if (flows_.empty()) return;
  const double share = capacity_ / static_cast<double>(flows_.size());
  double min_remaining = flows_.front().remaining;
  for (const PsFlow& f : flows_) min_remaining = std::min(min_remaining, f.remaining);
  const double eta = queue_->now() + min_remaining / share;

  const std::uint64_t generation = ++arm_generation_;
  queue_->schedule(eta, [this, generation] {
    if (generation != arm_generation_) return;  // superseded by a newer arm
    advance_to_now();
    // Retire every flow that is (numerically) done, in start order, in one
    // pass: flows of one burst and size finish together.
    std::vector<PsFlow> done;
    std::erase_if(flows_, [&](const PsFlow& f) {
      if (f.remaining > 1e-6) return false;
      moved_bytes_ += f.remaining;  // floating-point dust
      done.push_back(f);
      return true;
    });
    for (const PsFlow& f : done) {
      completed_bytes_ += f.total;
      if (on_completion_) {
        on_completion_(f.id, static_cast<std::uint64_t>(f.total), f.start_time);
      }
    }
    arm_next_completion();
  });
}

}  // namespace rangeamp::sim

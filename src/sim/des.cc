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

namespace {
// A flow this close to its tag is done: floating-point dust, not demand.
constexpr double kDustBytes = 1e-6;
}  // namespace

std::uint64_t PsLink::start_flow(std::uint64_t bytes) {
  advance_to_now();
  const std::uint64_t id = next_id_++;
  const double now = queue_->now();
  if (bytes == 0) {
    // Degenerate flow: completes immediately.
    queue_->schedule(now, [this, id, now] {
      if (on_completion_) on_completion_(id, 0, now);
    });
    return id;
  }
  if (active_++ == 0) busy_since_ = now;
  // Same instant, same size, next id: a new member of the newest cohort.
  // Its tag and so the head are unchanged; the armed wake-up now fires
  // early and re-arms.
  if (const auto newest = cohorts_.find(newest_cohort_);
      newest != cohorts_.end()) {
    Cohort& cohort = newest->second;
    if (cohort.start_time == now && cohort.bytes == bytes &&
        newest->first + cohort.count == id) {
      ++cohort.count;
      ++cohort.live;
      return id;
    }
  }
  const double tag = v_ + static_cast<double>(bytes);
  cohorts_.emplace(id, Cohort{.tag = tag, .start_v = v_, .start_time = now,
                              .bytes = bytes, .cancelled = {}});
  order_.emplace(tag, id);
  newest_cohort_ = id;
  arm();
  return id;
}

bool PsLink::cancel_flow(std::uint64_t id) {
  auto it = cohorts_.upper_bound(id);
  if (it == cohorts_.begin()) return false;
  --it;
  Cohort& cohort = it->second;
  const std::uint64_t member = id - it->first;
  if (member >= cohort.count) return false;
  if (member < cohort.cancelled.size() && cohort.cancelled[member]) return false;
  advance_to_now();
  cohort.cancelled.resize(cohort.count);
  cohort.cancelled[member] = true;
  cancelled_bytes_ +=
      std::min(v_ - cohort.start_v, static_cast<double>(cohort.bytes));
  if (--cohort.live == 0) {
    order_.erase({cohort.tag, it->first});
    cohorts_.erase(it);
  }
  // The survivors' shares just grew; the head's completion moves earlier.
  leave(1);
  arm();
  return true;
}

void PsLink::advance_to_now() {
  const double now = queue_->now();
  if (active_ != 0) {
    v_ += capacity_ / static_cast<double>(active_) * (now - last_update_);
  }
  last_update_ = now;
}

double PsLink::eta(double tag) const {
  return queue_->now() + (tag - v_) / (capacity_ / static_cast<double>(active_));
}

void PsLink::leave(std::uint64_t flows) {
  active_ -= flows;
  if (active_ != 0) return;
  busy_time_ += queue_->now() - busy_since_;
  v_ = 0;  // no tags remain; restarting V keeps the next period's tags exact
}

void PsLink::arm() {
  if (order_.empty()) {
    if (armed_) queue_->cancel(wakeup_);
    armed_ = false;
    return;
  }
  const double at = eta(order_.begin()->first);
  if (armed_ && armed_at_ <= at) return;  // fires early and re-arms
  if (armed_) queue_->cancel(wakeup_);
  armed_ = true;
  armed_at_ = at;
  wakeup_ = queue_->schedule(at, [this] { wake(); });
}

void PsLink::wake() {
  armed_ = false;
  advance_to_now();
  // Retire every due cohort before running a handler.  A cohort is due at
  // its tag, or when the time left rounds to nothing at this clock.
  std::vector<std::pair<std::uint64_t, Cohort>> due;
  while (!order_.empty()) {
    const auto [tag, first] = *order_.begin();
    if (tag - v_ > kDustBytes && eta(tag) > queue_->now()) break;
    order_.erase(order_.begin());
    Cohort cohort = std::move(cohorts_.extract(first).mapped());
    leave(cohort.live);
    due.emplace_back(first, std::move(cohort));
  }
  // Flows finishing together complete in start order.
  std::sort(due.begin(), due.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [first, cohort] : due) {
    for (std::uint64_t member = 0; member < cohort.count; ++member) {
      if (member < cohort.cancelled.size() && cohort.cancelled[member]) continue;
      completed_bytes_ += static_cast<double>(cohort.bytes);
      if (on_completion_) {
        on_completion_(first + member, cohort.bytes, cohort.start_time);
      }
    }
  }
  arm();
}

}  // namespace rangeamp::sim

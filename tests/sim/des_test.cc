#include "sim/des.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "sim/attack_load.h"

namespace rangeamp::sim {
namespace {

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(3.0, [&] { order.push_back(3); });
  queue.schedule(1.0, [&] { order.push_back(1); });
  queue.schedule(2.0, [&] { order.push_back(2); });
  while (queue.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
}

TEST(EventQueue, SameInstantIsStable) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.schedule(1.0, [&, i] { order.push_back(i); });
  }
  while (queue.run_next()) {
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsMayScheduleEvents) {
  EventQueue queue;
  int fired = 0;
  queue.schedule(1.0, [&] {
    ++fired;
    queue.schedule_in(0.5, [&] { ++fired; });
  });
  queue.run_until(10.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(queue.now(), 10.0);
}

TEST(EventQueue, RunUntilStopsAtHorizon) {
  EventQueue queue;
  int fired = 0;
  queue.schedule(1.0, [&] { ++fired; });
  queue.schedule(5.0, [&] { ++fired; });
  queue.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_DOUBLE_EQ(queue.now(), 2.0);
}

TEST(EventQueue, PastSchedulesClampToNow) {
  EventQueue queue;
  queue.schedule(2.0, [] {});
  queue.run_until(3.0);
  double fired_at = -1;
  queue.schedule(1.0, [&] { fired_at = queue.now(); });  // in the past
  queue.run_next();
  EXPECT_DOUBLE_EQ(fired_at, 3.0);
}

// ---------------------------------------------------------------------------
// PsLink: analytic processor sharing
// ---------------------------------------------------------------------------

TEST(PsLink, SingleFlowCompletesAtExactTime) {
  EventQueue queue;
  double completed_at = -1;
  PsLink link(queue, 1000.0, [&](std::uint64_t, std::uint64_t, double) {
    completed_at = queue.now();
  });
  link.start_flow(500);
  queue.run_until(10.0);
  EXPECT_DOUBLE_EQ(completed_at, 0.5);
  EXPECT_DOUBLE_EQ(link.completed_bytes(), 500.0);
}

TEST(PsLink, TwoFlowsShareExactly) {
  // Flow A (300 B) and flow B (600 B) on a 300 B/s link, both at t=0:
  // share 150 B/s each; A done at t=2 (300/150); then B alone finishes its
  // remaining 300 B at 300 B/s -> t=3.
  EventQueue queue;
  std::vector<double> completions;
  PsLink link(queue, 300.0, [&](std::uint64_t, std::uint64_t, double) {
    completions.push_back(queue.now());
  });
  link.start_flow(300);
  link.start_flow(600);
  queue.run_until(10.0);
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_NEAR(completions[0], 2.0, 1e-9);
  EXPECT_NEAR(completions[1], 3.0, 1e-9);
}

TEST(PsLink, LateArrivalRescalesShares) {
  // 1000 B at t=0 on 100 B/s; at t=5 another 1000 B arrives.
  // First flow: 500 B done by t=5, then 50 B/s -> finishes at t=15.
  // Second: 50 B/s until t=15 (500 B), then 100 B/s -> finishes at t=20.
  EventQueue queue;
  std::vector<double> completions;
  PsLink link(queue, 100.0, [&](std::uint64_t, std::uint64_t, double) {
    completions.push_back(queue.now());
  });
  link.start_flow(1000);
  queue.schedule(5.0, [&] { link.start_flow(1000); });
  queue.run_until(50.0);
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_NEAR(completions[0], 15.0, 1e-9);
  EXPECT_NEAR(completions[1], 20.0, 1e-9);
}

TEST(PsLink, ZeroByteFlowCompletesImmediately) {
  EventQueue queue;
  int completions = 0;
  PsLink link(queue, 100.0, [&](std::uint64_t, std::uint64_t bytes, double) {
    ++completions;
    EXPECT_EQ(bytes, 0u);
  });
  link.start_flow(0);
  queue.run_until(1.0);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(link.active_flows(), 0u);
}

TEST(PsLink, SingleFlowTransfersAtCapacity) {
  // 500 B on 1000 B/s: 250 B by t=0.25, all 500 B and done at t=0.5.
  EventQueue queue;
  std::vector<double> completions;
  PsLink link(queue, 1000.0, [&](std::uint64_t, std::uint64_t, double) {
    completions.push_back(queue.now());
  });
  link.start_flow(500);
  queue.run_until(0.25);
  EXPECT_NEAR(link.moved_bytes(), 250.0, 1e-9);
  EXPECT_EQ(link.active_flows(), 1u);
  queue.run_until(1.0);
  EXPECT_DOUBLE_EQ(link.moved_bytes(), 500.0);
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_NEAR(completions[0], 0.5, 1e-9);
  EXPECT_EQ(link.active_flows(), 0u);
}

TEST(PsLink, EqualSharingBetweenConcurrentFlows) {
  // Two 1000 B flows on 1000 B/s each get 500 B/s: after 1 s both are half
  // done (1000 B moved, none completed), and they finish together at t=2.
  EventQueue queue;
  std::vector<double> completions;
  PsLink link(queue, 1000.0, [&](std::uint64_t, std::uint64_t, double) {
    completions.push_back(queue.now());
  });
  link.start_flow(1000);
  link.start_flow(1000);
  queue.run_until(1.0);
  EXPECT_NEAR(link.moved_bytes(), 1000.0, 1e-6);
  EXPECT_TRUE(completions.empty());
  EXPECT_EQ(link.active_flows(), 2u);
  queue.run_until(10.0);
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_NEAR(completions[0], 2.0, 1e-9);
  EXPECT_NEAR(completions[1], 2.0, 1e-9);
}

TEST(PsLink, ZeroByteFlowCompletesAtItsStartTime) {
  // A zero-byte flow completes at the instant it starts, also mid-transfer
  // of another flow, and takes no share from it.
  EventQueue queue;
  std::vector<std::pair<std::uint64_t, double>> done;
  PsLink link(queue, 100.0, [&](std::uint64_t, std::uint64_t bytes, double) {
    done.emplace_back(bytes, queue.now());
  });
  link.start_flow(0);
  link.start_flow(200);
  queue.schedule(0.5, [&] { link.start_flow(0); });
  queue.run_until(10.0);
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].first, 0u);
  EXPECT_DOUBLE_EQ(done[0].second, 0.0);
  EXPECT_EQ(done[1].first, 0u);
  EXPECT_DOUBLE_EQ(done[1].second, 0.5);
  EXPECT_EQ(done[2].first, 200u);
  EXPECT_NEAR(done[2].second, 2.0, 1e-9);
}

TEST(PsLink, CapacityConservation) {
  // Seven long flows for 3 s on 1000 B/s: exactly capacity x time crosses.
  EventQueue queue;
  PsLink link(queue, 1000.0, [](std::uint64_t, std::uint64_t, double) {});
  for (int i = 0; i < 7; ++i) link.start_flow(10'000);
  queue.run_until(3.0);
  EXPECT_NEAR(link.moved_bytes(), 3000.0, 1e-6);
  EXPECT_DOUBLE_EQ(link.completed_bytes(), 0.0);
  EXPECT_EQ(link.active_flows(), 7u);
}

TEST(PsLink, FreedCapacityRedistributedBetweenEvents) {
  // A tiny flow and a big flow on 1000 B/s: the tiny one finishes at 0.2 s
  // under its 500 B/s share, then the big one gets the whole link.
  EventQueue queue;
  std::vector<double> completions;
  PsLink link(queue, 1000.0, [&](std::uint64_t, std::uint64_t, double) {
    completions.push_back(queue.now());
  });
  link.start_flow(100);
  link.start_flow(10'000);
  queue.run_until(1.0);
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_NEAR(completions[0], 0.2, 1e-9);
  // Big flow: 0.2 s at 500 B/s + 0.8 s at 1000 B/s = 900 B, so the link
  // was never idle: 100 + 900 B in the first second.
  EXPECT_NEAR(link.moved_bytes(), 1000.0, 1e-6);
  queue.run_until(20.0);
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_NEAR(completions[1], 10.1, 1e-9);  // the last 9100 B at 1000 B/s
}

TEST(PsLink, CompletionOrderFollowsSize) {
  // 300/600/900 B on 300 B/s: thirds until t=3, halves until t=5, then the
  // last flow alone until t=6.
  EventQueue queue;
  std::vector<std::pair<std::uint64_t, double>> done;
  PsLink link(queue, 300.0, [&](std::uint64_t, std::uint64_t bytes, double) {
    done.emplace_back(bytes, queue.now());
  });
  link.start_flow(900);
  link.start_flow(300);
  link.start_flow(600);
  queue.run_until(10.0);
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].first, 300u);
  EXPECT_EQ(done[1].first, 600u);
  EXPECT_EQ(done[2].first, 900u);
  EXPECT_NEAR(done[0].second, 3.0, 1e-9);
  EXPECT_NEAR(done[1].second, 5.0, 1e-9);
  EXPECT_NEAR(done[2].second, 6.0, 1e-9);
}

TEST(PsLink, IdleLinkAdvancesTimeOnly) {
  EventQueue queue;
  PsLink link(queue, 100.0, [](std::uint64_t, std::uint64_t, double) {});
  queue.run_until(5.0);
  EXPECT_DOUBLE_EQ(queue.now(), 5.0);
  EXPECT_DOUBLE_EQ(link.moved_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(link.completed_bytes(), 0.0);
}

TEST(PsLink, FlowIdsAreUnique) {
  EventQueue queue;
  PsLink link(queue, 100.0, [](std::uint64_t, std::uint64_t, double) {});
  const auto a = link.start_flow(10);
  const auto b = link.start_flow(0);
  const auto c = link.start_flow(10);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
}

// ---------------------------------------------------------------------------
// Cancellation: EventQueue handles and PsLink flow cuts
// ---------------------------------------------------------------------------

TEST(EventQueue, CancelledEventNeverRuns) {
  EventQueue queue;
  std::vector<int> order;
  const auto doomed = queue.schedule(1.0, [&] { order.push_back(1); });
  queue.schedule(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(queue.pending(), 2u);
  EXPECT_TRUE(queue.cancel(doomed));
  EXPECT_EQ(queue.pending(), 1u);
  while (queue.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_DOUBLE_EQ(queue.now(), 2.0);
}

TEST(EventQueue, CancelledEventDoesNotAdvanceTheClock) {
  EventQueue queue;
  const auto doomed = queue.schedule(5.0, [] {});
  EXPECT_TRUE(queue.cancel(doomed));
  EXPECT_FALSE(queue.run_next());  // nothing live to run
  EXPECT_DOUBLE_EQ(queue.now(), 0.0);
  queue.run_until(10.0);
  EXPECT_DOUBLE_EQ(queue.now(), 10.0);
}

TEST(EventQueue, CancelIsExactAboutLiveness) {
  EventQueue queue;
  const auto ran = queue.schedule(1.0, [] {});
  const auto doomed = queue.schedule(2.0, [] {});
  queue.run_next();
  EXPECT_FALSE(queue.cancel(ran));     // already ran
  EXPECT_TRUE(queue.cancel(doomed));
  EXPECT_FALSE(queue.cancel(doomed));  // double-cancel
  EXPECT_FALSE(queue.cancel(9999));    // never scheduled
}

TEST(EventQueue, SameInstantOrderingIsStableAcrossCancellation) {
  // Regression: cancelling one of several same-instant events must not
  // perturb the FIFO order of the survivors, and an event scheduled *from
  // within* an event at the current instant runs after the already-queued
  // same-instant events.
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(1.0, [&] {
    order.push_back(0);
    queue.schedule(1.0, [&] { order.push_back(9); });  // same instant, last
  });
  const auto doomed = queue.schedule(1.0, [&] { order.push_back(1); });
  queue.schedule(1.0, [&] { order.push_back(2); });
  queue.schedule(1.0, [&] { order.push_back(3); });
  EXPECT_TRUE(queue.cancel(doomed));
  while (queue.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 9}));
}

TEST(PsLink, CancelFlowFreesCapacityForSurvivors) {
  // A (1000 B) and B (1000 B) on 100 B/s share 50 B/s each.  B is cancelled
  // at t=5 with 750 B remaining; A then runs alone at 100 B/s and finishes
  // its remaining 750 B at t=12.5.  B's 250 moved bytes are wasted work.
  EventQueue queue;
  std::vector<double> completions;
  PsLink link(queue, 100.0, [&](std::uint64_t, std::uint64_t, double) {
    completions.push_back(queue.now());
  });
  link.start_flow(1000);
  const std::uint64_t b = link.start_flow(1000);
  queue.schedule(5.0, [&] { EXPECT_TRUE(link.cancel_flow(b)); });
  queue.run_until(50.0);
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_NEAR(completions[0], 12.5, 1e-9);
  EXPECT_NEAR(link.cancelled_bytes(), 250.0, 1e-9);
  EXPECT_DOUBLE_EQ(link.completed_bytes(), 1000.0);
}

TEST(PsLink, CancelUnknownOrCompletedFlowIsANoOp) {
  EventQueue queue;
  PsLink link(queue, 100.0, [](std::uint64_t, std::uint64_t, double) {});
  EXPECT_FALSE(link.cancel_flow(42));  // never started
  const std::uint64_t id = link.start_flow(100);
  queue.run_until(10.0);               // flow completed at t=1
  EXPECT_FALSE(link.cancel_flow(id));  // already done
  EXPECT_DOUBLE_EQ(link.cancelled_bytes(), 0.0);
}

// ---------------------------------------------------------------------------
// Virtual-time cohorts: one wake-up, closed-form times and byte counts
// ---------------------------------------------------------------------------

TEST(PsLinkCohort, CancellingOneMemberLeavesSurvivorsOnTheClosedForm) {
  // 2000 x 1000 B on 1e6 B/s: every flow has 500 B left at t=1.  One is
  // cancelled there, so the other 1999 share the link for 500 B each and
  // finish together at 1 + 1999 * 500 / 1e6.
  EventQueue queue;
  std::vector<std::uint64_t> ids;
  std::vector<double> completions;
  PsLink link(queue, 1e6, [&](std::uint64_t id, std::uint64_t, double) {
    ids.push_back(id);
    completions.push_back(queue.now());
  });
  std::vector<std::uint64_t> started;
  for (int i = 0; i < 2000; ++i) started.push_back(link.start_flow(1000));
  EXPECT_EQ(link.cohorts(), 1u);
  const std::uint64_t doomed = started[1234];
  queue.schedule(1.0, [&] { EXPECT_TRUE(link.cancel_flow(doomed)); });
  queue.run_until(10.0);
  ASSERT_EQ(completions.size(), 1999u);
  for (const double at : completions) {
    EXPECT_NEAR(at, 1.0 + 1999 * 500 / 1e6, 1e-9);
  }
  EXPECT_EQ(std::count(ids.begin(), ids.end(), doomed), 0);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));  // start order
  EXPECT_NEAR(link.cancelled_bytes(), 500.0, 1e-9);
  EXPECT_DOUBLE_EQ(link.completed_bytes(), 1999 * 1000.0);
  EXPECT_EQ(link.cohorts(), 0u);
}

TEST(PsLinkCohort, CancelInsideAHugeCohortIsExactPerMember) {
  // Cancelling is a lookup of the member, never a scan of its cohort: half
  // of a 100k-flow cohort is cancelled back to front, each exactly once.
  constexpr std::uint64_t kFlows = 100'000;
  EventQueue queue;
  std::vector<std::uint64_t> ids;
  double last_completion = -1;
  PsLink link(queue, 1e6, [&](std::uint64_t id, std::uint64_t, double) {
    ids.push_back(id);
    last_completion = queue.now();
  });
  std::vector<std::uint64_t> started;
  for (std::uint64_t i = 0; i < kFlows; ++i) {
    started.push_back(link.start_flow(10));
  }
  EXPECT_EQ(link.cohorts(), 1u);
  for (std::uint64_t i = kFlows; i-- > 0;) {
    if (i % 2 == 1) {
      EXPECT_TRUE(link.cancel_flow(started[i]));
    }
  }
  for (std::uint64_t i = 1; i < kFlows; i += 2) {
    EXPECT_FALSE(link.cancel_flow(started[i])) << i;  // already cancelled
  }
  EXPECT_EQ(link.active_flows(), kFlows / 2);
  queue.run_until(10.0);
  ASSERT_EQ(ids.size(), kFlows / 2);
  for (std::uint64_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], started[2 * i]);
  }
  // Cancelled at t=0, before moving a byte; the 50k survivors move 10 B
  // each and finish together at 0.5 s.
  EXPECT_DOUBLE_EQ(link.cancelled_bytes(), 0.0);
  EXPECT_NEAR(last_completion, 0.5, 1e-12);
  EXPECT_NEAR(link.moved_bytes(), kFlows / 2 * 10.0, 1e-6);
}

TEST(PsLinkCohort, SameInstantBurstArmsOneWakeup) {
  // A 2000-flow burst is one cohort behind one armed event, not 2000.
  EventQueue queue;
  std::size_t completions = 0;
  PsLink link(queue, 125e6, [&](std::uint64_t, std::uint64_t, double) {
    ++completions;
  });
  for (int i = 0; i < 2000; ++i) link.start_flow(65'800);
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_EQ(link.cohorts(), 1u);
  // A second burst of another size half-way through: still one wake-up.
  std::size_t pending_after_second = 0;
  std::size_t cohorts_after_second = 0;
  queue.schedule(0.5, [&] {
    for (int i = 0; i < 2000; ++i) link.start_flow(1000);
    pending_after_second = queue.pending();
    cohorts_after_second = link.cohorts();
  });
  queue.run_until(10.0);
  EXPECT_EQ(pending_after_second, 1u);
  EXPECT_EQ(cohorts_after_second, 2u);
  EXPECT_EQ(completions, 4000u);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(PsLinkCohort, BusyLinkMovesExactlyCapacityTimesT) {
  // On a link that never idles the moved bytes are capacity x t at every
  // whole second, to the last bit: sbr_flood's projection shape, and an
  // awkward capacity where summed per-event increments drift.
  struct Shape {
    double capacity;
    std::vector<std::uint64_t> burst;  // flow sizes started each second
  };
  const Shape shapes[] = {
      {125e6, std::vector<std::uint64_t>(2000, 65'800)},
      {1000.0 / 3, {37, 101, 250, 7}},
  };
  for (const Shape& shape : shapes) {
    EventQueue queue;
    PsLink link(queue, shape.capacity,
                [](std::uint64_t, std::uint64_t, double) {});
    std::vector<double> readings;
    for (int s = 1; s <= 10; ++s) {
      queue.schedule(s, [&] { readings.push_back(link.moved_bytes()); });
    }
    for (int s = 0; s < 10; ++s) {
      queue.schedule(s, [&] {
        for (const std::uint64_t bytes : shape.burst) link.start_flow(bytes);
      });
    }
    queue.run_until(10.5);
    ASSERT_EQ(readings.size(), 10u);
    for (std::size_t s = 0; s < readings.size(); ++s) {
      EXPECT_EQ(readings[s], shape.capacity * static_cast<double>(s + 1))
          << "capacity " << shape.capacity << " t=" << s + 1;
    }
    EXPECT_GT(link.active_flows(), 0u);  // still busy at t=10
  }
}

TEST(PsLinkCohort, CohortStorageIsReleased) {
  // 1e5 flows, one per millisecond, each 700 B on 1e6 B/s: every cohort's
  // storage goes when its flow completes, so the cohort count never grows
  // with the run.
  constexpr int kFlows = 100'000;
  EventQueue queue;
  std::size_t completions = 0;
  std::size_t peak_cohorts = 0;
  PsLink link(queue, 1e6, [&](std::uint64_t, std::uint64_t, double) {
    ++completions;
  });
  int started = 0;
  std::function<void()> next = [&] {
    link.start_flow(700);
    peak_cohorts = std::max(peak_cohorts, link.cohorts());
    if (++started < kFlows) queue.schedule_in(1e-3, next);
  };
  queue.schedule(0.0, next);
  queue.run_until(kFlows * 1e-3 + 1.0);
  EXPECT_EQ(completions, static_cast<std::size_t>(kFlows));
  EXPECT_LE(peak_cohorts, 2u);
  EXPECT_EQ(link.cohorts(), 0u);
  EXPECT_EQ(queue.pending(), 0u);
  // A cohort cancelled member by member is released with its last member.
  std::vector<std::uint64_t> doomed;
  for (int i = 0; i < 10; ++i) doomed.push_back(link.start_flow(1000));
  for (const std::uint64_t id : doomed) EXPECT_TRUE(link.cancel_flow(id));
  EXPECT_EQ(link.cohorts(), 0u);
  EXPECT_EQ(link.active_flows(), 0u);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(ShieldedLoad, DeadlineCancellationCutsPinnedResourceTime) {
  // A saturating OBR load: 5 x 10 MB fetches per second against a 1 MB/s
  // uplink.  Unprotected, the backlog pins the uplink far past the attack
  // window; a 2s per-exchange deadline cancels the stuck flows instead.
  ShieldedLoadConfig config;
  config.base.requests_per_second = 5;
  config.base.origin_response_bytes = 10'000'000;
  config.base.client_response_bytes = 822;
  config.base.origin_uplink_mbps = 8.0;  // 1e6 B/s
  config.base.duration_s = 5.0;
  config.base.drain_s = 30.0;
  config.shed_response_bytes = 500;

  const ShieldedLoadResult baseline = simulate_attack_load_shielded(config);
  config.deadline_seconds = 2.0;
  const ShieldedLoadResult protected_run = simulate_attack_load_shielded(config);

  EXPECT_EQ(baseline.deadline_cancelled, 0u);
  EXPECT_GT(protected_run.deadline_cancelled, 0u);
  EXPECT_GT(protected_run.cancelled_origin_bytes, 0.0);
  EXPECT_LT(protected_run.busy_seconds(8.0),
            baseline.busy_seconds(8.0) * 0.5);
}

// ---------------------------------------------------------------------------
// The Fig 7 driver against closed-form values
// ---------------------------------------------------------------------------

AttackLoadConfig fig7_config(int m) {
  AttackLoadConfig config;
  config.requests_per_second = m;
  config.origin_response_bytes = 10'486'029;
  config.client_response_bytes = 822;
  config.duration_s = 20.0;
  config.drain_s = 20.0;
  return config;
}

double series_bytes(const std::vector<BandwidthSample>& series) {
  double bytes = 0;
  for (const BandwidthSample& s : series) bytes += s.origin_out_mbps * 1e6 / 8.0;
  return bytes;
}

TEST(AttackLoadExact, OriginSeriesSumsToFlowBytes) {
  // Every flow drains inside the horizon (m=15: 3.1 GB at 125 MB/s takes
  // 25.2 s of the 40), so the per-second samples add up to every byte sent.
  for (const int m : {2, 8, 12, 15}) {
    const auto config = fig7_config(m);
    const double sent = m * config.duration_s *
                        static_cast<double>(config.origin_response_bytes);
    EXPECT_NEAR(series_bytes(simulate_attack_load(config)), sent, sent * 1e-12)
        << "m=" << m;
  }
}

TEST(AttackLoadExact, OriginSeriesSumsToFlowBytesWithDeadlines) {
  // With deadlines the series holds the completed flows' bytes plus the
  // bytes the cancelled flows had moved before the cut.
  ShieldedLoadConfig config;
  config.base.requests_per_second = 5;
  config.base.origin_response_bytes = 10'000'000;
  config.base.origin_uplink_mbps = 8.0;  // 1e6 B/s
  config.base.duration_s = 5.0;
  config.base.drain_s = 30.0;
  config.deadline_seconds = 2.0;
  const ShieldedLoadResult run = simulate_attack_load_shielded(config);
  ASSERT_GT(run.deadline_cancelled, 0u);
  const double completed =
      static_cast<double>(run.origin_fetches - run.deadline_cancelled) *
      static_cast<double>(config.base.origin_response_bytes);
  const double expected = completed + run.cancelled_origin_bytes;
  EXPECT_NEAR(series_bytes(run.series), expected, expected * 1e-12);
}

TEST(AttackLoadExact, BusySecondsIsBytesOverCapacity) {
  // The overload storm's node-exhaustion config: 300 x 10 MiB through a
  // 125 MB/s uplink keeps it busy for exactly 25.165824 s.
  ShieldedLoadConfig config;
  config.base.requests_per_second = 20;
  config.base.origin_response_bytes = 10u << 20;
  config.base.client_response_bytes = 822;
  config.base.origin_uplink_mbps = 1000.0;
  config.base.duration_s = 15.0;
  config.base.drain_s = 45.0;
  config.shed_response_bytes = 500;
  const double expected = 300.0 * (10u << 20) / 125e6;
  EXPECT_NEAR(simulate_attack_load_shielded(config).busy_seconds(1000.0),
              expected, 1e-9);
}

TEST(AttackLoadExact, BenignLatencyIsThePsTimeBelowSaturation) {
  // 5 attack flows and 2 benign 5 MiB flows start together each second and
  // drain in ~0.5 s, so every second is an isolated PS batch: the benign
  // flows are the smallest and finish together once each has received its
  // 5 MiB at a seventh of 125 MB/s.
  auto config = fig7_config(5);
  config.benign_requests_per_second = 2;
  config.benign_response_bytes = 5u << 20;
  config.network_rtt_s = 0.05;
  const double expected = 7.0 * (5u << 20) / 125e6 + 0.05;
  const auto series = simulate_attack_load(config);
  for (std::size_t s = 0; s < 20; ++s) {
    EXPECT_NEAR(series[s].benign_latency_s, expected, 1e-9) << "s=" << s;
    EXPECT_NEAR(series[s].benign_goodput_mbps, 2.0 * (5u << 20) * 8 / 1e6, 1e-9);
  }
}

TEST(AttackLoadExact, SamplesPrecedeTheInstantsArrivals) {
  // One 62.5 MB pull per second takes exactly half of each second, so the
  // link is idle at every second's end: in_flight is 0 and the origin sent
  // 500 Mbps, as long as the sample at s+1 runs before that second's
  // arrival.
  AttackLoadConfig config;
  config.requests_per_second = 1;
  config.origin_response_bytes = 62'500'000;
  config.client_response_bytes = 800;
  config.duration_s = 10.0;
  config.drain_s = 2.0;
  const auto series = simulate_attack_load(config);
  ASSERT_EQ(series.size(), 12u);
  for (std::size_t s = 0; s < series.size(); ++s) {
    EXPECT_EQ(series[s].in_flight, 0u) << "s=" << s;
    EXPECT_NEAR(series[s].origin_out_mbps, s < 10 ? 500.0 : 0.0, 1e-9) << "s=" << s;
    EXPECT_NEAR(series[s].client_in_kbps, s < 10 ? 6.4 : 0.0, 1e-9) << "s=" << s;
  }
}

TEST(AttackLoadExact, FractionalDurationFiresABurstAtEveryWholeSecondBelowIt) {
  // duration_s = 2.5 sends at t = 0, 1 and 2, the same seconds summarize()
  // counts as the attack window.
  ShieldedLoadConfig config;
  config.base.requests_per_second = 4;
  config.base.origin_response_bytes = 1'000'000;
  config.base.client_response_bytes = 1000;
  config.base.duration_s = 2.5;
  config.base.drain_s = 2.0;
  const ShieldedLoadResult run = simulate_attack_load_shielded(config);
  EXPECT_EQ(run.origin_fetches, 12u);
  ASSERT_EQ(run.series.size(), 5u);
  EXPECT_NEAR(series_bytes(run.series), 12e6, 1e-3);
  double client_kbits = 0;
  for (const BandwidthSample& s : run.series) client_kbits += s.client_in_kbps;
  EXPECT_NEAR(client_kbits, 12 * 1000 * 8 / 1e3, 1e-9);
}

}  // namespace
}  // namespace rangeamp::sim

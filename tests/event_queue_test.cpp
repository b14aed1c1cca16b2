// Event-queue semantics across the typed-event / calendar-band rewrite:
// equal-timestamp ordering, events scheduling events, eager cancellation
// (including cancel-after-fire), run_until boundary inclusivity, counter
// consistency, typed-event dispatch, and cross-band (ring / level-2 wheel /
// overflow heap) ordering. A differential test runs long seeded
// interleavings against a reference ordered set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "sim/event_queue.h"

namespace remus::sim {
namespace {

// Test-side executor: runs closures scheduled as typed timer events, each
// closure's index riding in the event's `a` payload. A closure may
// schedule more closures (the vector may grow while one runs).
class closures final : public sim_executor {
 public:
  closures() { q.set_executor(this); }
  closures(const closures&) = delete;
  closures& operator=(const closures&) = delete;

  event_queue::token at(time_ns t, std::function<void()> fn) {
    fns_.push_back(std::move(fn));
    return q.schedule_plain(t, event_kind::timer, process_id{0}, fns_.size() - 1);
  }

  event_queue q;

 private:
  void execute(sim_event& ev) override {
    const std::function<void()> fn = std::move(fns_[ev.a]);
    fn();
  }

  std::vector<std::function<void()>> fns_;
};

TEST(EventQueueOrder, EqualTimestampsRunInInsertionOrder) {
  closures c;
  event_queue& q = c.q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    c.at(42, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(q.run(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(q.now(), 42);
}

TEST(EventQueueOrder, InterleavedTimesSortGlobally) {
  closures c;
  event_queue& q = c.q;
  std::vector<int> order;
  c.at(30, [&] { order.push_back(3); });
  c.at(10, [&] { order.push_back(1); });
  c.at(20, [&] { order.push_back(2); });
  c.at(10, [&] { order.push_back(11); });  // ties after the first 10
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 11, 2, 3}));
}

TEST(EventQueueCancel, CancelPreventsExecutionAndIsEager) {
  closures c;
  event_queue& q = c.q;
  int hits = 0;
  const auto t = c.at(5, [&] { ++hits; });
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_TRUE(q.cancel(t));
  // Eager: the event leaves the queue immediately.
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(t));  // double-cancel reports failure
  q.run();
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(q.executed(), 0u);
}

TEST(EventQueueCancel, CancelAfterFireReturnsFalse) {
  closures c;
  event_queue& q = c.q;
  int hits = 0;
  const auto t = c.at(5, [&] { ++hits; });
  EXPECT_EQ(q.run(), 1u);
  EXPECT_EQ(hits, 1);
  EXPECT_FALSE(q.cancel(t));  // already ran
  // A recycled slot must not resurrect old tokens.
  const auto t2 = c.at(10, [&] { ++hits; });
  EXPECT_FALSE(q.cancel(t));
  EXPECT_TRUE(q.cancel(t2));
}

TEST(EventQueueCancel, CancelBogusTokensReturnsFalse) {
  closures c;
  event_queue& q = c.q;
  EXPECT_FALSE(q.cancel(0));
  EXPECT_FALSE(q.cancel(~0ULL));
  c.at(1, [] {});
  EXPECT_FALSE(q.cancel(0));
  q.run();
}

TEST(EventQueueCancel, CancelMiddleKeepsOrder) {
  closures c;
  event_queue& q = c.q;
  std::vector<int> order;
  c.at(10, [&] { order.push_back(1); });
  const auto t = c.at(20, [&] { order.push_back(2); });
  c.at(20, [&] { order.push_back(22); });
  c.at(30, [&] { order.push_back(3); });
  EXPECT_TRUE(q.cancel(t));
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 22, 3}));
}

TEST(EventQueueRunUntil, DeadlineIsInclusive) {
  closures c;
  event_queue& q = c.q;
  int hits = 0;
  c.at(10, [&] { ++hits; });
  c.at(15, [&] { ++hits; });  // exactly at the deadline: runs
  c.at(16, [&] { ++hits; });  // one past: stays
  EXPECT_EQ(q.run_until(15), 2u);
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(q.now(), 15);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(hits, 3);
}

TEST(EventQueueRunUntil, EmptyRunAdvancesClockOnly) {
  event_queue q;
  EXPECT_EQ(q.run_until(500), 0u);
  EXPECT_EQ(q.now(), 500);
}

TEST(EventQueueRunUntil, DoesNotOvershootDeadlinePastFarEvents) {
  closures c;
  event_queue& q = c.q;
  int hits = 0;
  // 50 ms out: lives in the level-2 wheel, far beyond the deadline.
  c.at(50'000'000, [&] { ++hits; });
  q.run_until(3'000'000);
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(q.now(), 3'000'000);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(q.now(), 50'000'000);
}

TEST(EventQueueRunUntil, ScheduleAfterIdleDeadlineKeepsWheelEventsFirst) {
  // run_until() may stop with the clock moved up to a deadline that no event
  // reached. The level-2 wheel must then be cascaded up to the new horizon:
  // otherwise a later near-term ring event pops before an earlier event still
  // parked in the wheel, and the clock runs backwards.
  closures c;
  event_queue& q = c.q;
  std::vector<int> order;
  std::vector<time_ns> times;
  c.at(16'000'000, [&] {  // wheel: 16 ms out
    order.push_back(1);
    times.push_back(q.now());
  });
  q.run_until(15'000'000);  // the wheel bucket of 16 ms starts after 15 ms
  EXPECT_EQ(q.now(), 15'000'000);
  c.at(16'500'000, [&] {  // ring: 1.5 ms out
    order.push_back(2);
    times.push_back(q.now());
  });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(times, (std::vector<time_ns>{16'000'000, 16'500'000}));
}

TEST(EventQueueCounters, PendingAndExecutedStayConsistent) {
  closures c;
  event_queue& q = c.q;
  std::vector<event_queue::token> tokens;
  for (int i = 0; i < 10; ++i) tokens.push_back(c.at(i, [] {}));
  EXPECT_EQ(q.pending(), 10u);
  EXPECT_TRUE(q.cancel(tokens[3]));
  EXPECT_TRUE(q.cancel(tokens[7]));
  EXPECT_EQ(q.pending(), 8u);
  EXPECT_EQ(q.run(4), 4u);
  EXPECT_EQ(q.executed(), 4u);
  EXPECT_EQ(q.pending(), 4u);
  EXPECT_EQ(q.run(), 4u);
  EXPECT_EQ(q.executed(), 8u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueBands, OrderHoldsAcrossRingWheelAndOverflow) {
  closures c;
  event_queue& q = c.q;
  std::vector<int> order;
  c.at(10'000'000'000, [&] { order.push_back(4); });  // overflow heap
  c.at(500'000'000, [&] { order.push_back(3); });     // level-2 wheel
  c.at(10'000'000, [&] { order.push_back(2); });      // level-2 wheel
  c.at(100, [&] { order.push_back(1); });             // calendar ring
  EXPECT_EQ(q.pending(), 4u);
  EXPECT_EQ(q.run(), 4u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.now(), 10'000'000'000);
}

TEST(EventQueueBands, CancelWorksInEveryBand) {
  closures c;
  event_queue& q = c.q;
  int hits = 0;
  const auto ring = c.at(100, [&] { ++hits; });
  const auto wheel = c.at(50'000'000, [&] { ++hits; });
  const auto overflow = c.at(10'000'000'000, [&] { ++hits; });
  EXPECT_TRUE(q.cancel(wheel));
  EXPECT_TRUE(q.cancel(overflow));
  EXPECT_TRUE(q.cancel(ring));
  EXPECT_TRUE(q.empty());
  q.run();
  EXPECT_EQ(hits, 0);
}

TEST(EventQueueBands, FarEventsSortAgainstLateRingInserts) {
  // An event scheduled far ahead must still order by (time, insertion seq)
  // against events scheduled near its time much later.
  closures c;
  event_queue& q = c.q;
  std::vector<int> order;
  c.at(6'000'000, [&] { order.push_back(1); });  // wheel at schedule time
  c.at(5'000'000, [&] {
    // now = 5 ms: the 6 ms event has cascaded into the ring; this sibling
    // shares its timestamp but was scheduled later, so it runs second.
    c.at(6'000'000, [&] { order.push_back(2); });
  });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueBands, OverflowEventJoinsTheRingWithItsWheelBucket) {
  // The cascade moves whole ~1 ms wheel buckets into the ring, so the ring
  // may hold an event up to one wheel bucket past now() + ~2.1 ms. An
  // overflow event due before it must be in the ring by then too.
  closures c;
  event_queue& q = c.q;
  std::vector<int> order;
  const time_ns bucket = time_ns{1} << 20;
  const time_ns late = 2861 * bucket + bucket - 1;  // ~3.001 s, end of a bucket
  c.at(late, [&] { order.push_back(1); });  // overflow: > ~2.1 s out
  c.at(1'500'000'000, [&] {
    c.at(late, [&] { order.push_back(2); });  // wheel: same time, later
  });
  // Pops just after the horizon enters the wheel bucket holding `late`.
  c.at(2861 * bucket - (time_ns{1} << 21) + 10, [] {});
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.now(), late);
}

TEST(EventQueueScheduling, IntoThePastThrows) {
  closures c;
  event_queue& q = c.q;
  c.at(10, [] {});
  q.run();
  EXPECT_THROW(c.at(5, [] {}), driver_error);
}

TEST(EventQueueScheduling, EventsMayScheduleEvents) {
  closures c;
  event_queue& q = c.q;
  int hits = 0;
  c.at(1, [&] {
    ++hits;
    c.at(q.now() + 1, [&] { ++hits; });
  });
  q.run();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(q.now(), 2);
}

TEST(EventQueueCounters, RunWithLimitStops) {
  closures c;
  event_queue& q = c.q;
  for (int i = 0; i < 10; ++i) c.at(i, [] {});
  EXPECT_EQ(q.run(4), 4u);
  EXPECT_EQ(q.pending(), 6u);
}

TEST(EventQueueTyped, ExecutorReceivesTypedEvents) {
  struct capture final : sim_executor {
    std::vector<sim_event> seen;
    void execute(sim_event& ev) override {
      sim_event copy;
      copy.kind = ev.kind;
      copy.target = ev.target;
      copy.a = ev.a;
      copy.incarnation = ev.incarnation;
      copy.log_key = ev.log_key;
      copy.log_record = ev.log_record;
      seen.push_back(std::move(copy));
    }
  } exec;
  event_queue q;
  q.set_executor(&exec);
  q.schedule_plain(30, event_kind::timer, process_id{2}, 77, 5);
  q.schedule_plain(10, event_kind::op_dispatch, process_id{1}, 4);
  bytes record{1, 2, 3};
  q.schedule_log_done(20, process_id{0}, 9, 1,
                      storage::record_key{storage::record_area::written, 7}, record);
  EXPECT_EQ(q.run(), 3u);
  ASSERT_EQ(exec.seen.size(), 3u);
  EXPECT_EQ(exec.seen[0].kind, event_kind::op_dispatch);
  EXPECT_EQ(exec.seen[0].target, process_id{1});
  EXPECT_EQ(exec.seen[0].a, 4u);
  EXPECT_EQ(exec.seen[1].kind, event_kind::log_done);
  EXPECT_EQ(exec.seen[1].log_key,
            (storage::record_key{storage::record_area::written, 7}));
  EXPECT_EQ(exec.seen[1].log_record, (bytes{1, 2, 3}));
  EXPECT_EQ(exec.seen[2].kind, event_kind::timer);
  EXPECT_EQ(exec.seen[2].a, 77u);
  EXPECT_EQ(exec.seen[2].incarnation, 5u);
}

TEST(EventQueueTyped, SharedMessagePayloadIsRefcountedNotCopied) {
  proto::message_pool pool;
  proto::message m;
  m.kind = proto::msg_kind::write;
  m.from = process_id{1};
  m.val = value_of_u32(7);

  struct count_exec final : sim_executor {
    int delivered = 0;
    const proto::message* payload = nullptr;
    void execute(sim_event& ev) override {
      ++delivered;
      // Every delivery of the broadcast sees the same pooled object.
      if (payload == nullptr) payload = &*ev.msg;
      EXPECT_EQ(payload, &*ev.msg);
      EXPECT_EQ(ev.msg->val, value_of_u32(7));
    }
  } exec;
  event_queue q;
  q.set_executor(&exec);
  {
    const proto::shared_message sh = pool.make(m);
    for (int i = 0; i < 3; ++i) {
      q.schedule_message(10 + i, process_id{static_cast<std::uint32_t>(i)}, sh);
    }
  }
  EXPECT_EQ(pool.outstanding(), 1u);  // events keep the payload alive
  q.run();
  EXPECT_EQ(exec.delivered, 3);
  EXPECT_EQ(pool.outstanding(), 0u);  // returned to the pool after delivery
  EXPECT_EQ(pool.capacity(), 1u);     // one slot served the whole broadcast
}

// ---- Differential test against a reference ordered set --------------------
// Every scheduled event carries its insertion number in `a`; the queue must
// pop events in exactly the reference's (time, insertion) order. Operations
// are drawn at random: schedules into each band (ring < ~2.1 ms, level-2
// wheel < ~2.1 s, overflow beyond), including out-of-order times inside one
// ~1 us ring bucket and exact timestamp ties; cancels of the first, a middle
// and the last event of a ring- or wheel-sized time bucket, plus stale
// tokens; step() and run_until(). Executed events schedule follow-ups too,
// so inserts also happen mid-execution. After every operation now(),
// pending(), empty() and the next_time() lower bound are checked.
class differential {
 public:
  explicit differential(std::uint64_t seed) : r_(seed) {
    exec_.d = this;
    q_.set_executor(&exec_);
  }

  void run(int ops) {
    for (int i = 0; i < ops; ++i) {
      const std::uint64_t pick = r_.next_below(100);
      if (pick < 45) {
        schedule();
      } else if (pick < 60) {
        cancel_live();
      } else if (pick < 65) {
        cancel_stale();
      } else if (pick < 95) {
        step();
      } else {
        run_until();
      }
      check_invariants();
      if (::testing::Test::HasFailure()) return;
    }
    // Drain: everything left must pop in reference order.
    while (!ref_.empty()) {
      step();
      check_invariants();
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_FALSE(q_.step());
  }

  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] std::uint64_t cancelled() const { return cancelled_; }

 private:
  using key = std::pair<time_ns, std::uint64_t>;  // (at, insertion number)
  static constexpr time_ns ring_horizon = time_ns{1} << 21;
  static constexpr time_ns wheel_horizon = time_ns{1} << 31;

  struct exec final : sim_executor {
    differential* d = nullptr;
    void execute(sim_event& ev) override { d->on_execute(ev); }
  };

  void on_execute(const sim_event& ev) {
    ASSERT_FALSE(ref_.empty()) << "queue ran an event the reference lacks";
    const key want = *ref_.begin();
    ASSERT_EQ(ev.a, want.second) << "pop order diverged at now " << q_.now();
    ASSERT_EQ(q_.now(), want.first);
    ref_.erase(ref_.begin());
    remember_stale(tokens_[ev.a]);
    ++executed_;
    // Follow-ups scheduled from inside an event, like protocol handlers do.
    if (r_.chance(0.3)) schedule();
  }

  time_ns draw_time() {
    const time_ns now = q_.now();
    switch (r_.next_below(8)) {
      case 0:  // exact tie with a pending event
        if (!ref_.empty()) {
          auto it = ref_.begin();
          std::advance(it, static_cast<std::ptrdiff_t>(
                               r_.next_below(std::min<std::uint64_t>(ref_.size(), 16))));
          return it->first;
        }
        return now;
      case 1:  // same or adjacent ~1 us bucket, any order
        return now + static_cast<time_ns>(r_.next_below(2048));
      case 2:  // inside the bucket of the last scheduled time, often earlier
        return std::max(now, (last_at_ & ~time_ns{1023}) +
                                 static_cast<time_ns>(r_.next_below(1024)));
      case 3:
      case 4:  // calendar ring
        return now + static_cast<time_ns>(r_.next_below(ring_horizon));
      case 5:  // ring / wheel boundary
        return now + ring_horizon - 4096 + static_cast<time_ns>(r_.next_below(8192));
      case 6:  // level-2 wheel
        return now + ring_horizon + static_cast<time_ns>(r_.next_below(wheel_horizon));
      default:  // overflow heap (and the wheel / overflow boundary)
        return now + wheel_horizon - (time_ns{1} << 22) +
               static_cast<time_ns>(r_.next_below(8 * wheel_horizon));
    }
  }

  void schedule() {
    const time_ns at = draw_time();
    last_at_ = at;
    const std::uint64_t id = next_id_++;
    const event_queue::token t =
        q_.schedule_plain(at, event_kind::timer, process_id{0}, id, 0);
    ref_.insert({at, id});
    tokens_.push_back(t);
  }

  /// Cancel the first, a middle or the last live event of the time bucket
  /// (ring- or wheel-sized) around a random live event.
  void cancel_live() {
    if (ref_.empty()) return;
    auto it = ref_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(r_.next_below(ref_.size())));
    const int shift = r_.chance(0.5) ? 10 : 20;
    const time_ns lo = (it->first >> shift) << shift;
    const time_ns hi = lo + (time_ns{1} << shift);
    const auto first = ref_.lower_bound({lo, 0});
    const auto last = ref_.lower_bound({hi, 0});
    std::vector<key> bucket(first, last);
    key victim;
    switch (r_.next_below(5)) {
      case 0:
        victim = bucket.front();
        break;
      case 1:
        victim = bucket.back();
        break;
      case 2:  // wheel buckets keep insertion order: oldest / newest
        victim = *std::min_element(bucket.begin(), bucket.end(),
                                   [](const key& a, const key& b) { return a.second < b.second; });
        break;
      case 3:
        victim = *std::max_element(bucket.begin(), bucket.end(),
                                   [](const key& a, const key& b) { return a.second < b.second; });
        break;
      default:
        victim = bucket[bucket.size() / 2];
        break;
    }
    const event_queue::token t = tokens_[victim.second];
    ASSERT_TRUE(q_.cancel(t)) << "live event " << victim.second << " not cancellable";
    ref_.erase(victim);
    remember_stale(t);
    ++cancelled_;
  }

  void cancel_stale() {
    if (stale_.empty()) {
      EXPECT_FALSE(q_.cancel(0));
      return;
    }
    EXPECT_FALSE(q_.cancel(stale_[r_.next_below(stale_.size())]));
  }

  void remember_stale(event_queue::token t) {
    if (stale_.size() < 256) {
      stale_.push_back(t);
    } else {
      stale_[r_.next_below(stale_.size())] = t;
    }
  }

  void step() {
    const bool had = !ref_.empty();
    EXPECT_EQ(q_.step(), had);
  }

  void run_until() {
    static constexpr time_ns scales[] = {time_ns{1} << 10, time_ns{1} << 21,
                                         time_ns{1} << 28, time_ns{1} << 34};
    const time_ns before = q_.now();
    const time_ns deadline =
        before + static_cast<time_ns>(r_.next_below(scales[r_.next_below(4)]));
    q_.run_until(deadline);
    EXPECT_EQ(q_.now(), std::max(before, deadline));
    if (!ref_.empty()) {
      EXPECT_GT(ref_.begin()->first, deadline);
    }
  }

  void check_invariants() {
    EXPECT_EQ(q_.pending(), ref_.size());
    EXPECT_EQ(q_.empty(), ref_.empty());
    if (ref_.empty()) {
      EXPECT_EQ(q_.next_time(), std::numeric_limits<time_ns>::max());
    } else {
      EXPECT_LE(q_.next_time(), ref_.begin()->first);
      EXPECT_GE(ref_.begin()->first, q_.now());
    }
  }

  rng r_;
  exec exec_;
  event_queue q_;
  std::set<key> ref_;
  std::vector<event_queue::token> tokens_;  // by insertion number
  std::vector<event_queue::token> stale_;   // executed or cancelled
  std::uint64_t next_id_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  time_ns last_at_ = 0;
};

TEST(EventQueueDifferential, RandomInterleavingsMatchReferenceOrder) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    differential d(seed);
    d.run(120'000);
    EXPECT_GT(d.executed(), 50'000u) << "seed " << seed;
    EXPECT_GT(d.cancelled(), 10'000u) << "seed " << seed;
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace remus::sim

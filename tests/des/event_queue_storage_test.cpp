// Storage contract of the slot-arena event queue: ids are schedule
// ordinals, a stale id never cancels the event that reused its slot, the
// FIFO tie-break survives slot reuse, and memory tracks the peak number of
// live events rather than the number ever scheduled.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/des/event_queue.h"

namespace anyqos::des {
namespace {

TEST(EventQueueStorage, HandleIdsAreScheduleOrdinals) {
  EventQueue queue;
  for (std::uint64_t expected = 1; expected <= 5; ++expected) {
    EXPECT_EQ(queue.schedule(10.0 - static_cast<double>(expected), [] {}).id, expected);
  }
  // Fired::id reports the same ordinal the handle carried.
  for (std::uint64_t expected = 5; expected >= 1; --expected) {
    EXPECT_EQ(queue.pop().id, expected);
  }
  // Ordinals keep counting after the queue drains.
  EXPECT_EQ(queue.schedule(1.0, [] {}).id, 6u);
}

TEST(EventQueueStorage, CancelByBareIdWorks) {
  EventQueue queue;
  (void)queue.schedule(1.0, [] {});
  (void)queue.schedule(2.0, [] {});
  EXPECT_TRUE(queue.cancel(EventHandle{2}));
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_FALSE(queue.cancel(EventHandle{3}));  // never issued
  EXPECT_FALSE(queue.cancel(EventHandle{}));
}

TEST(EventQueueStorage, CancelAfterFireOrCancelIsFalseEvenWhenSlotReused) {
  EventQueue queue;
  int fired = 0;
  const EventHandle first = queue.schedule(1.0, [&] { ++fired; });
  queue.pop().action();
  // The next schedule reuses the fired event's slot; the stale id must not
  // reach the new occupant.
  const EventHandle second = queue.schedule(2.0, [&] { fired += 10; });
  EXPECT_FALSE(queue.cancel(first));
  EXPECT_EQ(queue.size(), 1u);

  EXPECT_TRUE(queue.cancel(second));
  EXPECT_FALSE(queue.cancel(second));
  const EventHandle third = queue.schedule(3.0, [&] { fired += 100; });
  EXPECT_FALSE(queue.cancel(second));  // second's slot now holds third
  EXPECT_FALSE(queue.cancel(first));
  ASSERT_EQ(queue.size(), 1u);
  EventQueue::Fired event = queue.pop();
  EXPECT_EQ(event.id, third.id);
  event.action();
  EXPECT_EQ(fired, 101);
  EXPECT_EQ(queue.tombstones_popped(), 1u);  // second's entry, skipped
}

TEST(EventQueueStorage, FifoTieBreakHoldsAcrossSlotReuse) {
  EventQueue queue;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(queue.schedule(5.0, [&order, i] { order.push_back(i); }));
  }
  // Free low slots, then refill them: the refills carry later ids, so they
  // must fire after every surviving earlier event at the same time.
  for (const int i : {0, 2, 3, 6}) {
    ASSERT_TRUE(queue.cancel(handles[static_cast<std::size_t>(i)]));
  }
  for (int i = 8; i < 12; ++i) {
    (void)queue.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) {
    queue.pop().action();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 4, 5, 7, 8, 9, 10, 11}));
}

TEST(EventQueueStorage, StorageTracksPeakLiveNotTotalScheduled) {
  // A long churn at ~1,000 live events: every step pops the earliest event
  // and schedules one or two new ones within one time unit, and every
  // eighth schedule is cancelled again. Two million events pass through;
  // slot and id-window storage must stay within a small multiple of the
  // peak live count.
  EventQueue queue;
  std::uint64_t lcg = 12345;
  const auto uniform = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(lcg >> 11) / static_cast<double>(1ULL << 53);
  };
  double now = 0.0;
  std::size_t peak_live = 0;
  std::uint64_t scheduled = 0;
  const auto schedule = [&] {
    const EventHandle handle = queue.schedule(now + uniform(), [] {});
    ++scheduled;
    if (scheduled % 8 == 0) {
      (void)queue.cancel(handle);
    }
  };
  for (int i = 0; i < 1'000; ++i) {
    schedule();
  }
  while (scheduled < 2'000'000) {
    if (!queue.empty()) {
      EventQueue::Fired event = queue.pop();
      now = event.time;
    }
    schedule();
    if (queue.size() < 1'000) {
      schedule();
    }
    peak_live = std::max(peak_live, queue.size());
  }
  ASSERT_GE(peak_live, 900u);
  EXPECT_LE(queue.slot_capacity(), 2 * peak_live + 256);
  EXPECT_LE(queue.window_capacity(), 8 * peak_live);
}

TEST(EventQueueStorage, LongLivedStragglersDoNotPinStorage) {
  // Events booked far ahead at the start (a fault schedule) outlive two
  // million short-lived ones. They must neither make the id window span
  // every id issued since nor lose their place: each stays cancellable by
  // its bare id, and the rest fire last, in order.
  EventQueue queue;
  std::vector<EventHandle> stragglers;
  for (int i = 0; i < 20; ++i) {
    stragglers.push_back(queue.schedule(1.0e9 + i, [] {}));
  }
  double now = 0.0;
  std::size_t peak_live = 0;
  for (int i = 0; i < 100; ++i) {
    (void)queue.schedule(now + 0.01 * i, [] {});
  }
  for (int step = 0; step < 2'000'000; ++step) {
    now = queue.pop().time;
    (void)queue.schedule(now + 1.0, [] {});
    peak_live = std::max(peak_live, queue.size());
    if (step == 1'000'000) {
      EXPECT_TRUE(queue.cancel(stragglers[7]));
      EXPECT_FALSE(queue.cancel(stragglers[7]));
    }
  }
  EXPECT_LE(queue.window_capacity(), 8 * peak_live);
  EXPECT_LE(queue.slot_capacity(), 2 * peak_live + 256);
  std::vector<std::uint64_t> late;
  while (!queue.empty()) {
    const EventQueue::Fired event = queue.pop();
    if (event.time >= 1.0e9) {
      late.push_back(event.id);
    }
  }
  ASSERT_EQ(late.size(), 19u);
  for (std::size_t i = 0; i < late.size(); ++i) {
    EXPECT_EQ(late[i], stragglers[i < 7 ? i : i + 1].id);
  }
}

}  // namespace
}  // namespace anyqos::des

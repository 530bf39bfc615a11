// Unit tests for the calendar-queue event engine (sim/event_queue.hpp):
// exact EvKey ordering (time, then yield kicks, push time, origin PE and
// per-origin counter) across bucket boundaries, ring wraparound, the
// overflow pour / width-doubling path for far-future events, the intrusive
// index (takeIndexed bounds, pop unlinking), ghost-slot visibility, and
// the occupancy/health stats surfaced as sim.eventq.* counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"

namespace pods::sim {
namespace {

using Q = CalendarQueue<int>;

/// A key whose ties break on `n` alone (PE 0's n-th push at time 0).
EvKey key(std::int64_t t, std::uint64_t n) { return {t, 0, packSrc(0, n)}; }

std::uint64_t lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s >> 33;
}

TEST(CalendarQueue, OrdersByTimeThenCounter) {
  Q q;
  // Same time, shuffled counters; different times, including within one bucket
  // and straddling a bucket boundary (width 4096 ns).
  q.push(key(4095, 7), 1);
  q.push(key(4096, 3), 2);  // next bucket, smaller counter — time wins
  q.push(key(4095, 5), 3);
  q.push(key(0, 9), 4);
  q.push(key(0, 2), 5);
  std::vector<EvKey> keys;
  while (!q.empty()) {
    EvKey k;
    q.pop(&k);
    keys.push_back(k);
  }
  ASSERT_EQ(keys.size(), 5u);
  for (std::size_t i = 1; i < keys.size(); ++i)
    EXPECT_TRUE(keys[i - 1] < keys[i]) << "out of order at " << i;
  EXPECT_EQ(keys.front().src, packSrc(0, 2));
  EXPECT_EQ(keys.back().src, packSrc(0, 3));
}

TEST(CalendarQueue, RandomizedMatchesSortedReference) {
  Q q(4096, 64);  // small ring to force wraparound and pours
  std::uint64_t rng = 42;
  std::vector<std::pair<EvKey, int>> ref;
  std::uint64_t seq = 0;
  std::int64_t now = 0;
  int payload = 0;
  // Interleave pushes and pops the way a simulation would: future-only
  // pushes relative to the last popped time.
  for (int round = 0; round < 2000; ++round) {
    const int pushes = static_cast<int>(lcg(rng) % 4);
    for (int i = 0; i < pushes; ++i) {
      // Mix near deltas with occasional far-future ones (timer backoffs).
      const std::int64_t delta =
          (lcg(rng) % 16 == 0) ? static_cast<std::int64_t>(lcg(rng) % 40'000'000)
                               : static_cast<std::int64_t>(lcg(rng) % 30'000);
      // Push times at or before the current time and a few origin PEs,
      // so every field of the key takes part in the order.
      const EvKey k{now + delta,
                    static_cast<std::int64_t>(lcg(rng) % static_cast<std::uint64_t>(now + 1)),
                    packSrc(static_cast<std::uint16_t>(lcg(rng) % 4), ++seq)};
      q.push(k, ++payload);
      ref.emplace_back(k, payload);
    }
    if (!q.empty() && lcg(rng) % 3 != 0) {
      EvKey k;
      const int v = q.pop(&k);
      std::sort(ref.begin(), ref.end());
      ASSERT_EQ(k.t, ref.front().first.t);
      ASSERT_EQ(k.pushT, ref.front().first.pushT);
      ASSERT_EQ(k.src, ref.front().first.src);
      ASSERT_EQ(v, ref.front().second);
      ref.erase(ref.begin());
      now = k.t;
    }
  }
  while (!q.empty()) {
    EvKey k;
    const int v = q.pop(&k);
    std::sort(ref.begin(), ref.end());
    ASSERT_EQ(v, ref.front().second);
    ref.erase(ref.begin());
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_GT(q.stats().pours, 0);  // the far-future deltas forced overflow
  EXPECT_GT(q.stats().pushedOverflow, 0);
}

// The simulator's tie order at one time: an EU yield kick first, then the
// event pushed by the earlier simulated action, then the lower origin PE,
// then that PE's push order — never the order the host pushed them in.
TEST(CalendarQueue, TiesBreakOnYieldThenPushTimeThenOriginPe) {
  Q q;
  const std::int64_t t = 10'000;
  q.push({t, 900, packSrc(0, 1)}, 1);            // pushed at 900 by PE 0
  q.push({t, 500, packSrc(3, 7)}, 2);            // pushed at 500 by PE 3
  q.push({t, 500, packSrc(1, 9)}, 3);            // pushed at 500 by PE 1
  q.push({t, 500, packSrc(1, 4)}, 4);            // PE 1's earlier push
  q.push({t, kYieldPushT, packSrc(5, 2)}, 5);    // PE 5's yield kick
  q.push({t - 1, 9'000, packSrc(0, 3)}, 6);      // earlier time wins outright
  q.push({t, kYieldPushT, packSrc(2, 8)}, 7);    // PE 2's yield kick
  std::vector<int> order;
  while (!q.empty()) order.push_back(q.pop());
  EXPECT_EQ(order, (std::vector<int>{6, 7, 5, 4, 3, 2, 1}));
}

TEST(CalendarQueue, FarFutureEventsWidenBuckets) {
  Q q(4096, 16);
  // One near event, then events pushed ever farther out: the pour path must
  // re-base the ring and double the width rather than iterating bucket by
  // bucket to the horizon.
  q.push(key(10, 1), 1);
  q.push(key(1'000'000'000, 2), 2);   // 1 s
  q.push(key(30'000'000'000, 3), 3);  // 30 s
  EvKey k;
  EXPECT_EQ(q.pop(&k), 1);
  EXPECT_EQ(q.pop(&k), 2);
  EXPECT_EQ(k.t, 1'000'000'000);
  EXPECT_EQ(q.pop(&k), 3);
  EXPECT_TRUE(q.empty());
  EXPECT_GT(q.stats().widthDoublings, 0);
  EXPECT_GT(q.bucketWidthNs(), 4096);
}

TEST(CalendarQueue, PeekKeyTracksHead) {
  Q q;
  EXPECT_EQ(q.peekKey(), nullptr);
  q.push(key(500, 2), 1);
  ASSERT_NE(q.peekKey(), nullptr);
  EXPECT_EQ(q.peekKey()->t, 500);
  q.push(key(100, 3), 2);  // earlier head
  EXPECT_EQ(q.peekKey()->t, 100);
  q.pop();
  EXPECT_EQ(q.peekKey()->t, 500);
  q.pop();
  EXPECT_EQ(q.peekKey(), nullptr);
}

TEST(CalendarQueue, TakeIndexedRespectsBoundAndSortsByKey) {
  Q q;
  q.push(key(300, 3), 30, /*indexed=*/true);
  q.push(key(100, 1), 10, /*indexed=*/true);
  q.push(key(200, 2), 20, /*indexed=*/false);  // not indexed: never taken
  q.push(key(400, 4), 40, /*indexed=*/true);
  EXPECT_FALSE(q.indexedEmpty());
  // Bound excludes {400, 4}: it stays queued and indexed.
  const std::vector<int> taken = q.takeIndexed(key(400, 4));
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0], 10);  // t=100 before t=300
  EXPECT_EQ(taken[1], 30);
  EXPECT_FALSE(q.indexedEmpty());
  // Taken entries stay queued as ghosts: their keys still show at the head
  // and they pop — flagged — at their exact key.
  EXPECT_EQ(q.size(), 4);
  ASSERT_NE(q.peekKey(), nullptr);
  EXPECT_EQ(q.peekKey()->t, 100);
  EvKey k;
  bool ghost = false;
  EXPECT_EQ(q.pop(&k, &ghost), 10);
  EXPECT_TRUE(ghost);
  EXPECT_EQ(k.src, packSrc(0, 1));
  EXPECT_EQ(q.pop(&k, &ghost), 20);
  EXPECT_FALSE(ghost);
  EXPECT_EQ(q.pop(&k, &ghost), 30);
  EXPECT_TRUE(ghost);
  EXPECT_EQ(q.pop(&k, &ghost), 40);  // pop unlinks the indexed entry
  EXPECT_FALSE(ghost);
  EXPECT_TRUE(q.indexedEmpty());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.stats().indexTaken, 2);
  EXPECT_EQ(q.stats().ghostPops, 2);
}

TEST(CalendarQueue, GhostsInOverflowSurviveThePourAndPopInOrder) {
  Q q(4096, 16);
  // Far-future indexed events land in overflow; taking them must keep
  // their slots poppable at the right keys through the pour/re-base path.
  q.push(key(10, 1), 1);
  q.push(key(500'000'000, 2), 2, /*indexed=*/true);
  q.push(key(500'000'100, 3), 3, /*indexed=*/true);
  const std::vector<int> taken = q.takeIndexed(key(500'000'050, 0));
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0], 2);
  EvKey k;
  bool ghost = false;
  EXPECT_EQ(q.pop(&k, &ghost), 1);
  EXPECT_FALSE(ghost);
  EXPECT_EQ(q.pop(&k, &ghost), 2);  // the ghost, at its reserved key
  EXPECT_TRUE(ghost);
  EXPECT_EQ(k.t, 500'000'000);
  EXPECT_EQ(q.pop(&k, &ghost), 3);
  EXPECT_FALSE(ghost);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.indexedEmpty());
  EXPECT_EQ(q.stats().ghostPops, 1);
}

TEST(CalendarQueue, DepthAndPlacementStats) {
  Q q;
  for (int i = 0; i < 100; ++i)
    q.push(key(static_cast<std::int64_t>(i) * 1000, static_cast<std::uint64_t>(i + 1)), i);
  EXPECT_EQ(q.size(), 100);
  EXPECT_EQ(q.stats().peakDepth, 100);
  // 4096 ns buckets: events 0..3 share the cursor's bucket, the rest
  // spread over the ring.
  EXPECT_GT(q.stats().pushedRing, 0);
  while (!q.empty()) q.pop();
  EXPECT_EQ(q.stats().peakDepth, 100);  // peak survives the drain
}

}  // namespace
}  // namespace pods::sim

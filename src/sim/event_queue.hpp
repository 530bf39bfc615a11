// Calendar-queue event engine for the discrete-event simulator.
//
// The simulator used to run on a single std::priority_queue<Ev>: every push
// and pop paid O(log n) sift steps, and each sift step moved a fat (~300 B)
// Ev by value. This header replaces it with the classic calendar queue
// (Brown 1988): events are hashed by timestamp into fixed-width time buckets
// arranged in a ring, the current bucket is drained through a small binary
// heap, and events beyond the ring's horizon wait in an overflow list that is
// poured back into the ring when the cursor reaches it. Push and pop are
// O(1) amortized, and the Ev payloads live in a slab pool — the buckets and
// heaps only shuffle 24-byte (key, index) slots.
//
// Ordering contract: pops come out strictly ordered by EvKey (t, pushT, src).
// No field depends on the order in which the host happened to push: pushT
// is the simulated time of the action that pushed the event and src names
// the pushing PE plus that PE's own push counter. Callers may push with a
// previously reserved key (used by the per-link retransmit-timer collapse in
// machine.cpp) as long as every key pushed is unique and never earlier than
// the last key popped.
//
// A second, orthogonal service: entries can be pushed *indexed*, which links
// them into an intrusive doubly linked list threaded through the pool. The
// simulator indexes the kill victim's PE-local events so fail-stop triage
// (peKill) can collect exactly that PE's pending events in O(victim) instead
// of filtering the whole queue. takeIndexed() copies out every indexed entry
// below a key bound, sorted by key — the same order dispatch-time triage
// would have seen them in — and turns the slots into *ghosts*: they stay
// queued, keep presenting their key to peekKey() (a reference engine that
// triages at dispatch still has these events at the head, where they steer
// the EU yield check), and pop at their exact key flagged as ghosts so
// the caller can count the pop without re-dispatching the event.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace pods::sim {

/// Total order on simulator events: earlier simulated time first; among
/// events at one time, the one pushed by the earlier simulated action, then
/// the lower origin PE, then that PE's push order. An EU yield kick carries
/// pushT = kYieldPushT and so sorts before every other event at its t: an
/// EU that yields at t and resumes there acts exactly as one that never
/// yielded.
struct EvKey {
  std::int64_t t = 0;       ///< simulated nanoseconds at which it fires
  std::int64_t pushT = 0;   ///< simulated time of the pushing action
  std::uint64_t src = 0;    ///< packSrc(origin PE, per-origin push counter)

  friend constexpr bool operator<(const EvKey& a, const EvKey& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.pushT != b.pushT) return a.pushT < b.pushT;
    return a.src < b.src;
  }
  friend constexpr bool operator==(const EvKey& a, const EvKey& b) {
    return a.t == b.t && a.pushT == b.pushT && a.src == b.src;
  }
  friend constexpr bool operator!=(const EvKey& a, const EvKey& b) {
    return !(a == b);
  }
};

/// pushT of an EU yield kick: earlier than any real push time.
inline constexpr std::int64_t kYieldPushT = -1;

/// EvKey::src: the origin PE in the high 16 bits, its push counter below.
constexpr std::uint64_t packSrc(std::uint16_t originPe, std::uint64_t counter) {
  return (static_cast<std::uint64_t>(originPe) << 48) |
         (counter & ((std::uint64_t{1} << 48) - 1));
}

/// Engine health/occupancy numbers, surfaced as sim.eventq.* counters.
struct EventQStats {
  std::int64_t peakDepth = 0;       ///< max live entries at any instant
  std::int64_t peakBucket = 0;      ///< largest single bucket ever drained
  std::int64_t pours = 0;           ///< overflow redistributions
  std::int64_t widthDoublings = 0;  ///< bucket-width adaptations
  std::int64_t ghostPops = 0;       ///< triaged slots popped as no-ops
  std::int64_t indexTaken = 0;      ///< entries removed via takeIndexed()
  // Placement census: where pushes landed (current-bucket heap, ring
  // bucket, or overflow) — the per-tier occupancy picture of the calendar.
  std::int64_t pushedNear = 0;
  std::int64_t pushedRing = 0;
  std::int64_t pushedOverflow = 0;
};

template <typename E>
class CalendarQueue {
 public:
  /// `widthNs` must be a power of two (bucket lookup is a shift); `buckets`
  /// must be a power of two as well. Defaults suit the PODS machine model,
  /// whose event deltas are a few microseconds (unit signal 1 us, token
  /// route 19.5 us) with occasional 0.5–32 ms retransmit timers: 4.096 us
  /// buckets x 1024 give a ~4.2 ms ring horizon.
  explicit CalendarQueue(std::int64_t widthNs = 4096, std::size_t buckets = 1024)
      : widthShift_(shiftFor(widthNs)), ring_(buckets), ringMask_(buckets - 1) {
    PODS_CHECK_MSG((buckets & (buckets - 1)) == 0, "bucket count must be a power of two");
  }

  bool empty() const { return live_ == 0; }
  std::int64_t size() const { return live_; }

  /// Key of the next event to pop, or nullptr when empty. O(1) amortized —
  /// this is what the per-step "is the global head earlier than my local
  /// clock" check reads instead of a heap top.
  const EvKey* peekKey() {
    if (!settle()) return nullptr;
    return &cur_.front().key;
  }

  /// Pop the minimum-key event. Must be nonempty. `ghost` (when
  /// non-null) is set when the popped slot was consumed by takeIndexed():
  /// the payload is a copy of the triaged event, and the pop stands in for
  /// the dispatch the reference engine would have counted here.
  E pop(EvKey* keyOut = nullptr, bool* ghost = nullptr) {
    PODS_CHECK_MSG(settle(), "pop on empty CalendarQueue");
    const Slot s = cur_.front();
    std::pop_heap(cur_.begin(), cur_.end(), SlotLater{});
    cur_.pop_back();
    Node& n = pool_[s.idx];
    if (keyOut) *keyOut = s.key;
    if (ghost) *ghost = n.ghost;
    if (n.ghost) ++stats_.ghostPops;
    E ev = std::move(n.ev);
    unlink(s.idx);
    freeNode(s.idx);
    --live_;
    return ev;
  }

  /// Insert `ev` at `key`. `indexed` additionally links the entry into the
  /// side index consumed by takeIndexed().
  void push(const EvKey& key, E ev, bool indexed = false) {
    const std::uint32_t idx = allocNode();
    Node& n = pool_[idx];
    n.key = key;
    n.ev = std::move(ev);
    n.ghost = false;
    if (indexed) linkIndexed(idx);
    const Slot s{key, idx};
    const std::int64_t b = key.t >> widthShift_;
    if (b <= curBucket_) {
      // Due now (or in the bucket being drained): straight into the heap.
      cur_.push_back(s);
      std::push_heap(cur_.begin(), cur_.end(), SlotLater{});
      ++stats_.pushedNear;
    } else if (b < baseBucket_ + static_cast<std::int64_t>(ring_.size())) {
      ring_[static_cast<std::size_t>(b) & ringMask_].push_back(s);
      ++stats_.pushedRing;
    } else {
      overflow_.push_back(s);
      ++stats_.pushedOverflow;
    }
    ++live_;
    if (live_ > stats_.peakDepth) stats_.peakDepth = live_;
  }

  /// Copy out every *indexed* entry with key < `bound`, sorted by key.
  /// Entries at or past `bound` stay queued (and stay indexed). The taken
  /// slots stay queued as ghosts: they are unlinked from the index, but
  /// their keys remain visible to peekKey() and they still pop — flagged —
  /// at their reserved key, so ordering-sensitive observers (the EU
  /// yield check) and the pop count see exactly what a dispatch-time-triage
  /// engine would.
  std::vector<E> takeIndexed(const EvKey& bound) {
    std::vector<std::pair<EvKey, std::uint32_t>> picked;
    std::int32_t i = indexHead_;
    while (i >= 0) {
      const auto idx = static_cast<std::uint32_t>(i);
      Node& n = pool_[idx];
      const std::int32_t next = n.inext;
      if (n.key < bound) picked.emplace_back(n.key, idx);
      i = next;
    }
    std::sort(picked.begin(), picked.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<E> out;
    out.reserve(picked.size());
    for (const auto& [key, idx] : picked) {
      Node& n = pool_[idx];
      out.push_back(n.ev);  // copy: the ghost pop still reports the event
      unlink(idx);
      n.ghost = true;
      ++stats_.indexTaken;
    }
    return out;
  }

  /// True when no indexed entries remain (triage invariant check).
  bool indexedEmpty() const { return indexHead_ < 0; }

  const EventQStats& stats() const { return stats_; }

  /// Per-bucket occupancy snapshot of the ring (live, non-ghost slots),
  /// for --stats-json observability. Index 0 is the cursor's bucket.
  std::vector<std::size_t> ringOccupancy() const {
    std::vector<std::size_t> occ(ring_.size(), 0);
    for (std::size_t k = 0; k < ring_.size(); ++k) {
      const std::size_t slot = static_cast<std::size_t>(curBucket_ + static_cast<std::int64_t>(k)) & ringMask_;
      std::size_t liveHere = 0;
      for (const Slot& s : ring_[slot])
        if (!pool_[s.idx].ghost) ++liveHere;
      occ[k] = liveHere;
    }
    return occ;
  }

  std::int64_t bucketWidthNs() const { return std::int64_t{1} << widthShift_; }

 private:
  struct Slot {
    EvKey key;
    std::uint32_t idx = 0;
  };
  // Max-comparator so std::push_heap/pop_heap realize a min-heap on EvKey.
  struct SlotLater {
    bool operator()(const Slot& a, const Slot& b) const { return b.key < a.key; }
  };
  struct Node {
    EvKey key;            // mirrors the slot key; read by takeIndexed
    E ev{};
    std::int32_t iprev = -1;  // intrusive index list; -1 = not linked / end
    std::int32_t inext = -1;
    bool linked = false;
    bool ghost = false;  // taken by takeIndexed; pops as a flagged no-op
  };

  static std::uint32_t shiftFor(std::int64_t widthNs) {
    PODS_CHECK_MSG(widthNs > 0 && (widthNs & (widthNs - 1)) == 0,
                   "bucket width must be a power of two");
    std::uint32_t s = 0;
    while ((std::int64_t{1} << s) < widthNs) ++s;
    return s;
  }

  std::uint32_t allocNode() {
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      idx = static_cast<std::uint32_t>(pool_.size());
      pool_.emplace_back();
    }
    return idx;
  }

  void freeNode(std::uint32_t idx) {
    pool_[idx].ev = E{};  // release any heap storage the payload owns
    free_.push_back(idx);
  }

  void linkIndexed(std::uint32_t idx) {
    Node& n = pool_[idx];
    n.linked = true;
    n.iprev = -1;
    n.inext = indexHead_;
    if (indexHead_ >= 0) pool_[static_cast<std::uint32_t>(indexHead_)].iprev = static_cast<std::int32_t>(idx);
    indexHead_ = static_cast<std::int32_t>(idx);
  }

  void unlink(std::uint32_t idx) {
    Node& n = pool_[idx];
    if (!n.linked) return;
    if (n.iprev >= 0)
      pool_[static_cast<std::uint32_t>(n.iprev)].inext = n.inext;
    else
      indexHead_ = n.inext;
    if (n.inext >= 0) pool_[static_cast<std::uint32_t>(n.inext)].iprev = n.iprev;
    n.linked = false;
    n.iprev = n.inext = -1;
  }

  /// Advance the cursor until the current-bucket heap holds the minimum.
  /// Returns false iff the queue is empty. Ghosts are NOT skipped here:
  /// their keys must stay visible until their pop moment.
  bool settle() {
    for (;;) {
      if (!cur_.empty()) return true;
      if (live_ == 0) return false;
      // Current bucket exhausted: walk the ring forward.
      const std::int64_t horizon = baseBucket_ + static_cast<std::int64_t>(ring_.size());
      ++curBucket_;
      if (curBucket_ >= horizon) {
        pour();
        continue;
      }
      auto& bucket = ring_[static_cast<std::size_t>(curBucket_) & ringMask_];
      if (bucket.empty()) continue;
      if (static_cast<std::int64_t>(bucket.size()) > stats_.peakBucket)
        stats_.peakBucket = static_cast<std::int64_t>(bucket.size());
      cur_ = std::move(bucket);
      bucket.clear();
      std::make_heap(cur_.begin(), cur_.end(), SlotLater{});
    }
  }

  /// Ring exhausted: re-base it at the earliest overflow event and pour the
  /// overflow back in, doubling the bucket width first when the overflow
  /// spans far beyond one ring revolution (bounds the number of pours for
  /// pathological far-future schedules, e.g. exponential retransmit
  /// backoff).
  void pour() {
    ++stats_.pours;
    std::vector<Slot> pending = std::move(overflow_);
    overflow_.clear();
    if (pending.empty()) {
      baseBucket_ = curBucket_;
      return;
    }
    std::int64_t minT = pending.front().key.t;
    std::int64_t maxT = pending.front().key.t;
    for (const Slot& s : pending) {
      minT = std::min(minT, s.key.t);
      maxT = std::max(maxT, s.key.t);
    }
    // Adapt: if the span would not fit in ~4 ring revolutions, widen.
    while (((maxT - minT) >> widthShift_) >=
           4 * static_cast<std::int64_t>(ring_.size())) {
      ++widthShift_;
      ++stats_.widthDoublings;
    }
    baseBucket_ = curBucket_ = minT >> widthShift_;
    const std::int64_t horizon = baseBucket_ + static_cast<std::int64_t>(ring_.size());
    for (const Slot& s : pending) {
      const std::int64_t b = s.key.t >> widthShift_;
      if (b <= curBucket_) {
        cur_.push_back(s);
      } else if (b < horizon) {
        ring_[static_cast<std::size_t>(b) & ringMask_].push_back(s);
      } else {
        overflow_.push_back(s);
      }
    }
    std::make_heap(cur_.begin(), cur_.end(), SlotLater{});
  }

  std::uint32_t widthShift_;
  std::vector<std::vector<Slot>> ring_;
  std::size_t ringMask_;
  std::vector<Slot> cur_;        // min-heap draining the current bucket
  std::vector<Slot> overflow_;   // events beyond the ring horizon
  std::int64_t baseBucket_ = 0;  // first bucket the ring currently maps
  std::int64_t curBucket_ = 0;   // bucket the cursor is draining
  std::int64_t live_ = 0;        // queued entries (ghosts included)
  std::vector<Node> pool_;
  std::vector<std::uint32_t> free_;
  std::int32_t indexHead_ = -1;
  EventQStats stats_;
};

}  // namespace pods::sim

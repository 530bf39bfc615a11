#include "sim/machine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <functional>
#include <limits>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "proto/delivery.hpp"
#include "runtime/ops.hpp"
#include "sim/event_queue.hpp"
#include "support/check.hpp"
#include "support/recovery.hpp"

// Implementation notes.
//
// Event granularity: the Execution Unit executes straight-line runs of
// instructions inside one event dispatch. The exact rule — the binary heap
// engine's, and every engine's in lossy or kill runs — yields back to the
// global queue whenever any event is due before the EU's local time, so the
// EU acts at instruction granularity in global time order. The calendar
// engine's fault-free runs use a conservative (Chandy–Misra / YAWNS)
// lookahead instead: nothing one PE does reaches another PE sooner than
// L = Timing::crossPeLatency() (23 us), so an EU may run on while its clock
// is no later than its own PE's earliest pending event and earlier than the
// global head + L. The window is computed once per EU slice and tightened
// on each push (own events bound it directly, others' at their time + L);
// push() checks every cross-PE event against L. The result equals the
// exact rule bit for bit because event keys do not depend on host push
// order (sim/event_queue.hpp) and an EU instruction reads only its own PE's
// state: an array element counts as present at its owner only once the
// owner's Array Manager has applied the write (ArrayInfo::atOwner), and
// gauges other PEs' actions feed (sp.peakLive, the reported error) are
// ordered by simulated time, not host order. Lossy and kill runs keep
// L = 0: their fault dice and message ids are drawn in host order.
//
// Array Manager tasks are single-phase: state mutations apply at task
// arrival while their *effects* (responses, page sends) are scheduled at the
// service-completion time; this makes state visible at most one AM service
// time early, which is a deterministic and negligible approximation. Frame
// creation charges the Memory Manager's list-operation time as busy work
// without delaying the first token's delivery (0.9 us, likewise negligible).
//
// Fault injection & reliable delivery: with any nonzero rate in
// MachineConfig::faults, every remote message (tokens, array messages,
// pages, broadcast copies) is carried by an ack/retransmit protocol instead
// of the direct push. The sender registers the message in a retransmit
// buffer, transmits a copy (which the seeded FaultPlan may drop, duplicate,
// or delay), and arms a timeout; the receiver deduplicates by message id —
// exactly-once delivery on top of an at-least-once wire, which is what makes
// non-idempotent tokens (ADDC join counters, spawn-by-token) safe — then
// acknowledges (acks roll their own fault dice; a lost ack just means one
// more retransmission gets suppressed). Timeouts back off exponentially.
// Everything runs in *simulated* time through the one global event queue,
// so a faulty run is bit-deterministic for a fixed seed. Stale timer events
// that fire after their message was acked are skipped without extending the
// reported completion time.
//
// Fail-stop recovery (kill mode, see support/recovery.hpp): a PeKill event
// wipes one PE's volatile state (frames, match table, caches, deferred-read
// queues, protocol dedup sets) and bumps its incarnation; a PeRestart event
// rebuilds it from the per-PE receive log and re-executes every frame that
// was live at the kill from pc 0. Local events from the old incarnation
// (EuKick, SlotFill) are dropped — re-execution regenerates them — while
// in-flight token and Array Manager deliveries are *held* and re-delivered
// after the rebuild, because their senders may have retired before the kill
// and will never resend. Logical send keys deduplicate everything a replay
// re-sends. Quiescence needs no special accounting: the PeRestart event
// keeps the queue non-empty across the dead window, and messages addressed
// to the dead PE are simply not acked, so the sender-side retransmit timers
// redeliver them after the restart.

namespace pods::sim {

const char* unitName(Unit u) {
  switch (u) {
    case Unit::EU: return "EU";
    case Unit::MU: return "MU";
    case Unit::MM: return "MM";
    case Unit::AM: return "AM";
    case Unit::RU: return "RU";
  }
  return "?";
}

namespace {

enum class FrameState : std::uint8_t { Ready, Running, Blocked, Dead };

struct Frame {
  std::uint16_t spCode = 0;
  std::uint64_t ctx = 0;
  std::uint32_t pc = 0;
  FrameState state = FrameState::Ready;
  std::uint16_t blockedSlot = kNoSlot;
  std::vector<Value> slots;
  // Kill mode: deterministic per-frame streams so a re-executed frame
  // reproduces the same send keys and minted identities.
  std::uint32_t sendSeq = 0;
  std::uint32_t mintSeq = 0;
  // Kill mode: true on frames rebuilt from the receive log. A replaying
  // frame only accepts continuation results from contexts it has re-sent to
  // (sentCtxs); earlier arrivals are parked so a multi-round slot cannot be
  // filled with a later round's value before the earlier round re-runs.
  bool replaying = false;
  std::unordered_set<std::uint64_t> sentCtxs;
};

struct Token {
  bool toCont = false;   // continuation-addressed vs (sp, ctx, slot)
  std::uint16_t spCode = 0;
  std::uint64_t ctx = 0;
  std::uint16_t slot = 0;
  Cont cont{};
  Value v{};
  bool add = false;  // join-counter token: add to the slot instead of set
  // Kill mode: logical identity of a continuation-addressed send, stable
  // under sender re-execution (msgIds are not — a replayed send is a new
  // message). 0 = unstamped (AM responses, which replay regenerates).
  std::uint64_t senderCtx = 0;
  std::uint64_t sendKey = 0;
};

/// Presence-mask snapshot of one cached remote page (up to 256 elems/page).
struct PageMask {
  std::array<std::uint64_t, 4> bits{};
  bool test(int i) const { return (bits[i >> 6] >> (i & 63)) & 1; }
  void set(int i) { bits[i >> 6] |= 1ULL << (i & 63); }
  void merge(const PageMask& o) {
    for (int i = 0; i < 4; ++i) bits[i] |= o.bits[i];
  }
};

struct AmTask {
  enum class Kind : std::uint8_t {
    Read,           // local SP reads (i0[,i1]) of arr -> cont
    Write,          // write value v at (i0[,i1]) of arr (local or forwarded)
    RemoteReadReq,  // another PE requests `offset` of arr (we are the owner)
    PageArrive,     // a fetched page lands here: install cache + respond
    Alloc,          // local distributing/plain allocate -> cont receives id
    AllocInstall,   // broadcast allocate arriving at a remote PE
    Rf,             // range-filter bound of arr (split-phase when deferred)
    DimQ,           // header dimension query (split-phase when deferred)
    ValueArrive,    // a deferred remote read completes with a value token
  };
  Kind kind = Kind::Read;
  ArrayId arr = 0;
  std::int64_t i0 = 0, i1 = 0;  // subscripts (Read/Write); Rf row in i0
  std::int64_t offset = 0;      // RemoteReadReq element / PageArrive page
  Value v{};                    // write value
  Cont cont{};                  // requester slot
  std::uint16_t fromPe = 0;     // requesting PE (RemoteReadReq) / home PE
  bool forwarded = false;       // Write arriving from the writing PE: the
                                // value is already committed; only wake
                                // deferred readers here
  std::uint8_t rank = 1;
  // Alloc / AllocInstall:
  ArrayShape shape{};
  bool distributed = false;
  // Kill mode, Alloc only: the minting frame's (ctx, mint sequence), so a
  // replayed allocation returns the original array id from the mint log.
  std::uint64_t senderCtx = 0;
  std::uint32_t mintSeq = 0;
  // Rf:
  std::uint8_t dim = 0;
  std::int32_t rfOff = 0;
  bool isHi = false;
  bool hasRow = false;
  // PageArrive:
  PageMask mask{};
};

enum class EvKind : std::uint8_t {
  EuKick,        // run the Execution Unit scheduler on a PE
  TokenAtMu,     // token arrival at a PE's Matching Unit
  TokenDeliver,  // MU done: deliver token into the frame
  AmArrive,      // task arrival at a PE's Array Manager
  SlotFill,      // direct response into a frame slot (AM -> EU path)
  NetDeliver,    // lossy mode: reliable message copy reaches the receiver
  NetAckArrive,  // lossy mode: acknowledgment reaches the sender
  NetTimeout,    // lossy mode: sender retransmit timer fires
  PeKill,        // kill mode: fail-stop one PE (wipe its volatile state)
  PeRestart,     // kill mode: rebuild the killed PE from its receive log
  LinkTimer,     // calendar engine: one link's earliest retransmit deadline
};

const char* evKindName(EvKind k) {
  switch (k) {
    case EvKind::EuKick: return "EuKick";
    case EvKind::TokenAtMu: return "TokenAtMu";
    case EvKind::TokenDeliver: return "TokenDeliver";
    case EvKind::AmArrive: return "AmArrive";
    case EvKind::SlotFill: return "SlotFill";
    case EvKind::NetDeliver: return "NetDeliver";
    case EvKind::NetAckArrive: return "NetAckArrive";
    case EvKind::NetTimeout: return "NetTimeout";
    case EvKind::PeKill: return "PeKill";
    case EvKind::PeRestart: return "PeRestart";
    case EvKind::LinkTimer: return "LinkTimer";
  }
  return "?";
}

struct Ev {
  SimTime t{};
  // Tie-break fields of the event's EvKey (see sim/event_queue.hpp).
  std::int64_t pushT = 0;
  std::uint64_t src = 0;
  EvKind kind = EvKind::EuKick;
  std::uint16_t pe = 0;  // the PE whose state the event acts on
  Token tok{};
  AmTask am{};
  // Reliable-delivery fields (lossy mode only).
  std::uint64_t msgId = 0;   // NetDeliver / NetAckArrive / NetTimeout
  std::uint16_t netFrom = 0; // NetDeliver: sending PE (ack destination)
  std::uint32_t attempt = 0; // NetTimeout: transmission this timer covers
  bool isToken = false;      // NetDeliver payload discriminator
  // Kill mode: the target PE's incarnation when this (PE-local) event was
  // scheduled; a mismatch at dispatch means the PE died in between.
  std::uint32_t inc = 0;
};

EvKey keyOf(const Ev& ev) { return {ev.t.ns, ev.pushT, ev.src}; }

struct EvLater {
  bool operator()(const Ev& a, const Ev& b) const { return keyOf(b) < keyOf(a); }
};

/// Min-heap order for std::priority_queue on entries carrying an EvKey.
struct KeyLater {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return b.key < a.key;
  }
};

/// Fixed-name counters bumped on the event path. They count into an
/// enum-indexed array (CounterSlots) and reach the run's Counters registry
/// once, at finalize(), instead of paying a std::map<std::string> lookup per
/// bump.
enum class Ctr : std::uint8_t {
  AmDeferredOnHeader,
  ArrayAllocs,
  ArrayAllocsReplayDup,
  ArrayPagesReceived,
  ArrayPagesSent,
  ArrayReads,
  ArrayReadsCacheHit,
  ArrayReadsCoalesced,
  ArrayReadsDeferred,
  ArrayReadsLocalHit,
  ArrayReadsRemote,
  ArrayReadsRemoteDeferred,
  ArrayWrites,
  ArrayWritesRemote,
  ArrayWritesReplayDup,
  EuBlocks,
  EuContextSwitches,
  FaultDeadDrops,
  FaultDelays,
  FaultDrops,
  FaultDups,
  FaultKills,
  FaultRestarts,
  FaultStalls,
  NetArrayMsgs,
  NetBroadcastTokens,
  NetPages,
  NetTokens,
  RecoveryDroppedEvents,
  RecoveryHeldEvents,
  RecoveryMigratedArrays,
  RecoveryParkedEarly,
  RecoveryReRequestedReads,
  RecoveryReplayedFrames,
  RecoveryReplayedTokens,
  RuntimeErrors,
  SimEventqYieldsHeadL,
  SimEventqYieldsOwnEvent,
  SpCompleted,
  SpInstantiated,
  TokensDropped,
  TokensMatched,
  TokensReplayDup,
  TokensSent,
  TraceDropped,
  Count_,
};
constexpr std::size_t kNumCtrs = static_cast<std::size_t>(Ctr::Count_);

const char* ctrName(Ctr c) {
  switch (c) {
    case Ctr::AmDeferredOnHeader: return "am.deferredOnHeader";
    case Ctr::ArrayAllocs: return "array.allocs";
    case Ctr::ArrayAllocsReplayDup: return "array.allocs.replayDup";
    case Ctr::ArrayPagesReceived: return "array.pagesReceived";
    case Ctr::ArrayPagesSent: return "array.pagesSent";
    case Ctr::ArrayReads: return "array.reads";
    case Ctr::ArrayReadsCacheHit: return "array.reads.cacheHit";
    case Ctr::ArrayReadsCoalesced: return "array.reads.coalesced";
    case Ctr::ArrayReadsDeferred: return "array.reads.deferred";
    case Ctr::ArrayReadsLocalHit: return "array.reads.localHit";
    case Ctr::ArrayReadsRemote: return "array.reads.remote";
    case Ctr::ArrayReadsRemoteDeferred: return "array.reads.remoteDeferred";
    case Ctr::ArrayWrites: return "array.writes";
    case Ctr::ArrayWritesRemote: return "array.writes.remote";
    case Ctr::ArrayWritesReplayDup: return "array.writes.replayDup";
    case Ctr::EuBlocks: return "eu.blocks";
    case Ctr::EuContextSwitches: return "eu.contextSwitches";
    case Ctr::FaultDeadDrops: return "fault.deadDrops";
    case Ctr::FaultDelays: return "fault.delays";
    case Ctr::FaultDrops: return "fault.drops";
    case Ctr::FaultDups: return "fault.dups";
    case Ctr::FaultKills: return "fault.kills";
    case Ctr::FaultRestarts: return "fault.restarts";
    case Ctr::FaultStalls: return "fault.stalls";
    case Ctr::NetArrayMsgs: return "net.arrayMsgs";
    case Ctr::NetBroadcastTokens: return "net.broadcastTokens";
    case Ctr::NetPages: return "net.pages";
    case Ctr::NetTokens: return "net.tokens";
    case Ctr::RecoveryDroppedEvents: return "recovery.droppedEvents";
    case Ctr::RecoveryHeldEvents: return "recovery.heldEvents";
    case Ctr::RecoveryMigratedArrays: return "recovery.migratedArrays";
    case Ctr::RecoveryParkedEarly: return "recovery.parkedEarly";
    case Ctr::RecoveryReRequestedReads: return "recovery.reRequestedReads";
    case Ctr::RecoveryReplayedFrames: return "recovery.replayedFrames";
    case Ctr::RecoveryReplayedTokens: return "recovery.replayedTokens";
    case Ctr::RuntimeErrors: return "runtime.errors";
    case Ctr::SimEventqYieldsHeadL: return "sim.eventq.yieldsHeadL";
    case Ctr::SimEventqYieldsOwnEvent: return "sim.eventq.yieldsOwnEvent";
    case Ctr::SpCompleted: return "sp.completed";
    case Ctr::SpInstantiated: return "sp.instantiated";
    case Ctr::TokensDropped: return "tokens.dropped";
    case Ctr::TokensMatched: return "tokens.matched";
    case Ctr::TokensReplayDup: return "tokens.replayDup";
    case Ctr::TokensSent: return "tokens.sent";
    case Ctr::TraceDropped: return "trace.dropped";
    case Ctr::Count_: break;
  }
  return "?";
}

/// The run's typed counter slots. Only touched slots are emitted, so the
/// registry's key set is exactly what per-bump Counters::add would have
/// produced, including keys added with a zero delta.
struct CounterSlots {
  std::array<std::int64_t, kNumCtrs> value{};
  std::array<bool, kNumCtrs> touched{};

  void add(Ctr c, std::int64_t delta = 1) {
    const auto i = static_cast<std::size_t>(c);
    value[i] += delta;
    touched[i] = true;
  }
  void emitTo(Counters& out) const {
    for (std::size_t i = 0; i < kNumCtrs; ++i)
      if (touched[i]) out.add(ctrName(static_cast<Ctr>(i)), value[i]);
  }
};

/// Deferred reads parked on one absent element (at its owner).
struct Deferred {
  std::vector<Cont> localWaiters;
  std::vector<std::uint16_t> remotePes;
};

struct PeState {
  // Execution memory.
  std::vector<Frame> frames;
  std::unordered_map<std::uint64_t, std::uint32_t> match;  // ctx -> frame
  std::deque<std::uint32_t> readyQ;
  std::int64_t current = -1;
  std::uint32_t lastFrame = 0xFFFFFFFFu;
  SimTime euFree{};
  bool kickScheduled = false;
  SimTime kickAt{};
  std::uint64_t ctxCounter = 0;
  int errors = 0;  // runtime errors raised by this PE's actions
  // Trace: the running frame's open EU slice. It survives yields and closes
  // only when the frame blocks or ends, so slices do not depend on how
  // often the engine made the EU yield.
  SimTime sliceStart{};
  const std::string* sliceName = nullptr;

  // Unit resources (EU accounted separately through euFree/busy).
  std::array<SimTime, kNumUnits> unitFree{};
  std::array<SimTime, kNumUnits> unitBusy{};

  // Array Manager state.
  std::unordered_map<ArrayId, char> headers;  // headers installed here
  std::unordered_map<ArrayId, std::vector<AmTask>> pendingHeader;
  std::unordered_map<std::uint64_t, PageMask> cache;  // (arr<<24|page)
  std::unordered_map<ArrayId, std::unordered_map<std::int64_t, std::vector<Cont>>>
      pendingRemote;  // reads in flight to a remote owner
  std::unordered_map<ArrayId, std::unordered_map<std::int64_t, Deferred>>
      deferred;  // absent elements we own with waiting readers

  // Reliable-delivery receiver half (lossy mode): msgId dedup (so
  // retransmissions and injected duplicates are suppressed) and the
  // retired-instance ledger. NEWCTX never reuses a context, so a token
  // matching a retired context is a straggler its instance provably never
  // needed (the instance retired without it) — delivered late only because
  // injected delays/retransmits broke the network's normal FIFO order. It
  // must be discarded, not allowed to spawn a zombie instance. All of that
  // logic lives in proto::Delivery; this PE just drives it.
  proto::Delivery rx;

  // Kill mode.
  bool dead = false;           // inside the fail-stop window
  std::uint32_t incarnation = 0;
  ReplayDedup dedup;           // logical exactly-once filter (see recovery.hpp)
  // Logged continuation-addressed deliveries awaiting on-demand re-delivery
  // after a restart: sender ctx -> indices into the PE's receive log. They
  // are handed out when a re-executing frame re-sends to that sender's
  // context, which is exactly after the slot's CLEAR of the matching round.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> pendingReplay;
};

/// Sender-side payload copy of one unacknowledged reliable message (lossy
/// mode). The attempt count lives in the proto::Delivery sender window.
struct RetxEntry {
  std::uint16_t fromPe = 0;
  std::uint16_t toPe = 0;
  bool isToken = false;
  bool pageSized = false;
  Token tok{};
  AmTask am{};
};

std::uint64_t pageKey(ArrayId arr, std::int64_t page) {
  return (static_cast<std::uint64_t>(arr) << 24) |
         static_cast<std::uint64_t>(page);
}

/// One Chrome-trace timeline slice.
struct TraceEv {
  std::uint16_t pe;
  std::uint8_t unit;
  const std::string* name;  // nullptr -> the unit's name
  SimTime start;
  SimTime dur;
};

}  // namespace

struct Machine::Impl {
  const SpProgram& prog;
  MachineConfig cfg;
  Timing tm;
  ArrayStore store;
  std::vector<PeState> pes;
  // Event engine: the calendar queue is the production path; the original
  // binary heap stays selectable (MachineConfig::eventEngine) as the
  // reference the fuzz suites diff against, bit for bit.
  const bool calendar;
  CalendarQueue<Ev> cq;
  std::priority_queue<Ev, std::vector<Ev>, EvLater> q;  // BinaryHeap engine
  std::int64_t heapPeak = 0;                            // BinaryHeap depth gauge
  // Calendar engine: EU kicks bypass the calendar queue. A kick carries no
  // payload beyond its PE and incarnation, and in lockstep runs the EU
  // yields through one after nearly every instruction, so kicks live in
  // this small min-heap instead of round-tripping a full Ev through the
  // slab. pushKick mints the same key the heap engine stamps, and every
  // head query takes the smaller of this heap's top and the calendar's
  // head, so the dispatch stream is the heap engine's, event for event. Kicks are never indexed for kill triage: a kick from a dead
  // incarnation stays queued (steering the EU yield check exactly as the
  // heap engine's queued kick does) and is dropped when it pops.
  struct Kick {
    EvKey key;
    std::uint16_t pe = 0;
    std::uint32_t inc = 0;
  };
  std::priority_queue<Kick, std::vector<Kick>, KeyLater> kicks;
  std::int64_t staleKicks = 0;  // dead-incarnation kicks dropped at pop
  // Event keys: the acting PE and its simulated time (set by the dispatcher
  // for every event and by the EU before every instruction), plus per-PE
  // push counters. Together they key every push independently of the host
  // order in which PEs happen to act.
  std::uint16_t actorPe = 0;
  SimTime actorT{};
  std::vector<std::uint64_t> pushCtr;
  std::uint64_t eventsProcessed = 0;
  SimTime now{};
  // Conservative lookahead (see the implementation notes): L, whether the
  // calendar engine runs EUs ahead of the global head, each PE's pending
  // event times (a min-heap kept only under lookahead), and the open EU
  // slice's window: it may run instructions starting at or before
  // sliceLimit.
  const std::int64_t crossPeNs;
  const bool lookahead;
  std::vector<std::priority_queue<std::int64_t, std::vector<std::int64_t>,
                                  std::greater<>>>
      pendingAt;
  bool inSlice = false;  // an EU slice is running; its PE is actorPe
  std::int64_t sliceLimit = 0;
  bool sliceByOwn = false;  // sliceLimit is the PE's own event, not head + L
  // Live-SP tracking: PODS removed the k-bounded-loop throttling, so the
  // only bound on concurrently-live SP frames is data availability. The
  // peak is reported as counter "sp.peakLive". Frames start and end on
  // different PEs whose actions the lookahead does not run in global time
  // order, so each change is logged as (simulated time << 1 | up) and the
  // log is merged by time at finalize().
  std::vector<std::int64_t> liveChanges;
  RunStats stats;
  CounterSlots ctrs;  // fixed-name counters, emitted into stats at finalize()
  std::vector<bool> resultSet;
  // stats.error reports the earliest runtime error in (simulated time, PE)
  // order, not the first the host happened to run.
  SimTime errorAt{};
  std::uint16_t errorPe = 0;
  // Reliable-delivery sender half (lossy mode): the protocol core tracks
  // attempts/backoff/give-up; `retx` keeps the payload copies by id.
  FaultPlan plan;
  proto::Delivery sender;
  std::uint64_t netSeq = 0;  // message ids and fault-decision stream
  std::unordered_map<std::uint64_t, RetxEntry> retx;
  // Per-link traffic counter names, built lazily ("net.link.F->T.<what>").
  proto::LinkNameCache linkNames;
  // Calendar engine, lossy mode: per-link retransmit-timer collapse. Every
  // armed timeout still *reserves* the key the binary heap engine would
  // stamp on its timer event (so every tie-break matches that engine
  // exactly), but instead of one queue event per arm, each link keeps its
  // own little key-ordered min-heap and the global queue carries at most
  // one live LinkTimer wakeup per link, keyed by the link's earliest
  // reserved key. Entries cancelled by an ack stay queued and pop at their
  // reserved key as no-ops, counted there just as the heap engine counts
  // its stale NetTimeout events.
  struct TimerEnt {
    EvKey key;
    std::uint64_t msgId = 0;
    std::uint32_t attempt = 0;
  };
  struct LinkTimerState {
    std::priority_queue<TimerEnt, std::vector<TimerEnt>, KeyLater> heap;
    EvKey scheduled{-1, 0, 0};  // key of the in-flight wakeup; t < 0 = none
  };
  std::unordered_map<std::uint32_t, LinkTimerState> linkTimers;
  // msgId -> (link, reserved key of its live timer): the ack path cancels
  // through this, and stale heap entries are recognized by its absence.
  std::unordered_map<std::uint64_t, std::pair<std::uint32_t, EvKey>>
      armedTimers;
  // Calendar engine, kill mode: the key of the PeRestart event.
  // peKill triages every indexed event ordered before it; later ones take
  // the ordinary already-restarted dispatch path.
  EvKey restartKey_{-1, 0, 0};
  bool killTriaged_ = false;
  // Completion time excluding stale retransmit timers that fire (and are
  // ignored) after the last real work; `now` still tracks the raw queue.
  SimTime lastUseful{};
  // Kill mode: per-PE stable recovery logs (conceptually off-PE storage —
  // they survive the fail-stop) and the events held during the dead window.
  std::vector<RecoveryLog> recLogs;
  std::vector<Ev> deadHeld;

  Impl(const SpProgram& p, MachineConfig c)
      : prog(p),
        cfg(c),
        tm(c.timing),
        store(c.numPEs, c.timing.pageElems, c.peWeights),
        pes(static_cast<std::size_t>(c.numPEs)),
        calendar(c.eventEngine == EventEngine::Calendar),
        pushCtr(static_cast<std::size_t>(c.numPEs), 0),
        crossPeNs(c.faults.enabled() ? 0 : c.timing.crossPeLatency().ns),
        lookahead(calendar && crossPeNs > 0) {
    PODS_CHECK(c.numPEs >= 1 && c.numPEs <= 4096);
    PODS_CHECK_MSG(c.timing.pageElems >= 1 && c.timing.pageElems <= 256,
                   "pageElems must be in [1, 256]");
    PODS_CHECK_MSG(c.peWeights.empty() ||
                       static_cast<int>(c.peWeights.size()) == c.numPEs,
                   "peWeights must be empty or have one entry per PE");
    stats.busy.resize(static_cast<std::size_t>(c.numPEs));
    stats.results.resize(static_cast<std::size_t>(prog.numResults));
    resultSet.assign(static_cast<std::size_t>(prog.numResults), false);
    stats.spProfiles.resize(prog.sps.size());
    for (std::size_t i = 0; i < prog.sps.size(); ++i) {
      stats.spProfiles[i].name = prog.sps[i].name;
    }
    tracing = !cfg.tracePath.empty();
    plan = FaultPlan(c.faults);
    sender = proto::Delivery(c.faults.retry, /*faultsEnabled=*/true);
    for (PeState& P : pes)
      P.rx = proto::Delivery(c.faults.retry, /*faultsEnabled=*/true);
    if (killMode()) recLogs.resize(pes.size());
    if (lookahead) pendingAt.resize(pes.size());
  }

  /// Memoized canonical per-link counter name.
  const std::string& linkName(std::uint16_t from, std::uint16_t to,
                              const char* what) {
    return linkNames.name(from, to, what);
  }

  /// True when the lossy network + reliable-delivery protocol is active.
  bool faulty() const { return plan.enabled(); }
  /// True when a fail-stop kill is scheduled (implies faulty()).
  bool killMode() const { return cfg.faults.killEnabled(); }

  // --- infrastructure ------------------------------------------------------

  /// Mints the key of an event at `t` pushed by the current actor.
  EvKey nextKey(SimTime t) {
    return {t.ns, actorT.ns, packSrc(actorPe, ++pushCtr[actorPe])};
  }

  EvKey push(Ev ev) {
    PODS_CHECK_MSG(ev.pe == actorPe || ev.t.ns >= actorT.ns + crossPeNs,
                   "an event reached another PE sooner than the model's "
                   "cross-PE latency");
    const EvKey key = nextKey(ev.t);
    enqueue(std::move(ev), key);
    return key;
  }

  void enqueue(Ev ev, const EvKey& key) {
    ev.pushT = key.pushT;
    ev.src = key.src;
    // Stamp PE-local events with the target's incarnation: if the PE dies
    // before the event fires, dispatch can tell it belongs to a lost life.
    bool peLocal = false;
    switch (ev.kind) {
      case EvKind::EuKick:
      case EvKind::TokenAtMu:
      case EvKind::TokenDeliver:
      case EvKind::AmArrive:
      case EvKind::SlotFill:
        ev.inc = pes[ev.pe].incarnation;
        peLocal = true;
        break;
      default:
        break;
    }
    if (calendar) {
      // Index the kill victim's PE-local events so peKill can collect them
      // without touching the rest of the queue. The single kill fires once;
      // after triage nothing new needs indexing.
      const bool indexed = peLocal && killMode() && !killTriaged_ &&
                           static_cast<int>(ev.pe) == cfg.faults.killPe;
      if (lookahead) {
        pendingAt[ev.pe].push(ev.t.ns);
        if (inSlice) {
          const bool own = ev.pe == actorPe;
          const std::int64_t bound = own ? ev.t.ns : ev.t.ns + crossPeNs - 1;
          if (bound < sliceLimit) {
            sliceLimit = bound;
            sliceByOwn = own;
          }
        }
      }
      cq.push(key, std::move(ev), indexed);
    } else {
      q.push(std::move(ev));
      if (static_cast<std::int64_t>(q.size()) > heapPeak)
        heapPeak = static_cast<std::int64_t>(q.size());
    }
  }

  // --- event-queue access (engine-neutral) ---------------------------------

  bool queueEmpty() {
    return calendar ? cq.empty() && kicks.empty() : q.empty();
  }

  /// Calendar engine: true when the next event in key order is a kick.
  bool kickIsNext() {
    if (kicks.empty()) return false;
    const EvKey* k = cq.peekKey();
    return k == nullptr || kicks.top().key < *k;
  }

  /// `ghost` is set when the popped slot was already triaged at peKill time
  /// (calendar engine only): the payload is a copy of the triaged event and
  /// the pop must be counted but not re-dispatched.
  Ev popEvent(bool* ghost = nullptr) {
    if (ghost) *ghost = false;
    if (calendar) return cq.pop(nullptr, ghost);
    Ev ev = q.top();
    q.pop();
    return ev;
  }

  /// O(1) peek used by the EU's per-step yield check: is the global head
  /// strictly earlier than local time `t`?
  bool headEarlierThan(SimTime t) {
    if (calendar) {
      if (!kicks.empty() && kicks.top().key.t < t.ns) return true;
      const EvKey* k = cq.peekKey();
      return k != nullptr && k->t < t.ns;
    }
    return !q.empty() && q.top().t < t;
  }

  void runtimeError(const std::string& msg) {
    if (stats.error.empty() ||
        std::pair(actorT, actorPe) < std::pair(errorAt, errorPe)) {
      stats.error = msg;
      errorAt = actorT;
      errorPe = actorPe;
    }
    ++pes[actorPe].errors;
    ctrs.add(Ctr::RuntimeErrors);
  }

  void liveChange(bool up) { liveChanges.push_back(actorT.ns * 2 + (up ? 1 : 0)); }

  /// Peak of the live-SP count over simulated time; every change logged at
  /// one instant applies together.
  std::int64_t peakLive() {
    std::sort(liveChanges.begin(), liveChanges.end());
    std::int64_t live = 0, peak = 0;
    for (std::size_t i = 0; i < liveChanges.size();) {
      const std::int64_t t = liveChanges[i] >> 1;
      for (; i < liveChanges.size() && (liveChanges[i] >> 1) == t; ++i)
        live += (liveChanges[i] & 1) ? 1 : -1;
      peak = std::max(peak, live);
    }
    return peak;
  }

  /// Serial-resource scheduling: returns completion time, accrues busy time.
  SimTime unitSched(std::uint16_t pe, Unit u, SimTime ready, SimTime svc) {
    PeState& P = pes[pe];
    SimTime start = std::max(ready, P.unitFree[static_cast<int>(u)]);
    SimTime done = start + svc;
    P.unitFree[static_cast<int>(u)] = done;
    P.unitBusy[static_cast<int>(u)] += svc;
    if (tracing && svc.ns > 0) addTrace(pe, u, nullptr, start, svc);
    return done;
  }

  bool tracing = false;
  std::vector<TraceEv> trace;
  std::int64_t traceDropped = 0;

  void addTrace(std::uint16_t pe, Unit u, const std::string* name,
                SimTime start, SimTime dur) {
    if (trace.size() >= cfg.maxTraceEvents) {
      // Keep recording the *fact* of truncation: the counter counts every
      // drop and writeTrace() emits one marker event, so a consumer can
      // tell a short trace from a clipped one.
      ctrs.add(Ctr::TraceDropped);
      ++traceDropped;
      return;
    }
    trace.push_back({pe, static_cast<std::uint8_t>(u), name, start, dur});
  }

  void writeTrace() {
    std::FILE* f = std::fopen(cfg.tracePath.c_str(), "w");
    if (!f) {
      runtimeError("cannot open trace file " + cfg.tracePath);
      return;
    }
    // Host order differs between engines; the timeline does not.
    std::stable_sort(trace.begin(), trace.end(),
                     [](const TraceEv& a, const TraceEv& b) {
                       return std::tie(a.pe, a.unit, a.start.ns) <
                              std::tie(b.pe, b.unit, b.start.ns);
                     });
    std::fputs("{\"traceEvents\":[\n", f);
    bool first = true;
    for (const TraceEv& ev : trace) {
      const char* name =
          ev.name ? ev.name->c_str() : unitName(static_cast<Unit>(ev.unit));
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   first ? "" : ",\n", name, ev.pe, ev.unit, ev.start.us(),
                   ev.dur.us());
      first = false;
    }
    if (traceDropped > 0) {
      // One instant marker at the end of the recorded window: the timeline
      // was truncated, not complete.
      SimTime lastEnd{};
      for (const TraceEv& ev : trace)
        lastEnd = std::max(lastEnd, ev.start + ev.dur);
      std::fprintf(f,
                   "%s{\"name\":\"trace truncated: %lld events dropped\","
                   "\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":%.3f,\"s\":\"g\"}",
                   first ? "" : ",\n",
                   static_cast<long long>(traceDropped), lastEnd.us());
      first = false;
    }
    // Thread names so the viewer shows EU/MU/MM/AM/RU lanes per PE.
    for (int pe = 0; pe < cfg.numPEs; ++pe) {
      for (int u = 0; u < kNumUnits; ++u) {
        std::fprintf(f,
                     ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                     "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                     pe, u, unitName(static_cast<Unit>(u)));
      }
    }
    std::fputs("\n]}\n", f);
    std::fclose(f);
  }

  void euBusy(std::uint16_t pe, SimTime span) {
    pes[pe].unitBusy[static_cast<int>(Unit::EU)] += span;
  }

  // --- reliable delivery over a lossy network (lossy mode only) ------------

  /// Transmits one copy of reliable message `msgId` onto the wire at `at`
  /// (the Routing Unit charge has already been paid), letting the seeded
  /// FaultPlan drop, duplicate, or delay it.
  void netTransmit(std::uint64_t msgId, const RetxEntry& e, SimTime at) {
    auto deliverAt = [&](SimTime when) {
      Ev ev;
      ev.t = when;
      ev.kind = EvKind::NetDeliver;
      ev.pe = e.toPe;
      ev.msgId = msgId;
      ev.netFrom = e.fromPe;
      ev.isToken = e.isToken;
      if (e.isToken) {
        ev.tok = e.tok;
      } else {
        ev.am = e.am;
      }
      push(std::move(ev));
    };
    const SimTime arrive = at + tm.networkHop;
    switch (plan.action(++netSeq)) {
      case FaultAction::Drop:
        ctrs.add(Ctr::FaultDrops);
        break;  // the retransmit timer recovers it
      case FaultAction::Duplicate:
        ctrs.add(Ctr::FaultDups);
        deliverAt(arrive);
        deliverAt(arrive + tm.networkHop);
        break;
      case FaultAction::Delay:
        ctrs.add(Ctr::FaultDelays);
        deliverAt(arrive + usec(cfg.faults.simDelayUs));
        break;
      case FaultAction::Deliver:
        deliverAt(arrive);
        break;
    }
  }

  static std::uint32_t linkOf(std::uint16_t from, std::uint16_t to) {
    return (static_cast<std::uint32_t>(from) << 16) | to;
  }

  void armTimeout(std::uint64_t msgId, std::uint32_t attempt, SimTime at) {
    auto it = retx.find(msgId);
    PODS_CHECK_MSG(it != retx.end(), "arming a timer for an unknown message");
    if (!calendar) {
      Ev ev;
      ev.t = at;
      ev.kind = EvKind::NetTimeout;
      ev.pe = it->second.fromPe;  // the timer acts on the sender
      ev.msgId = msgId;
      ev.attempt = attempt;
      push(std::move(ev));
      return;
    }
    // Calendar engine: reserve the key the binary heap engine would have
    // stamped on this timer event (keeping every tie-break identical), but
    // park the entry in its link's local heap; the global queue only
    // carries the link's earliest deadline as a LinkTimer wakeup.
    const EvKey key = nextKey(at);
    const std::uint32_t link = linkOf(it->second.fromPe, it->second.toPe);
    LinkTimerState& L = linkTimers[link];
    const TimerEnt ent{key, msgId, attempt};
    armedTimers[msgId] = {link, key};
    L.heap.push(ent);
    scheduleLinkWakeup(link, L);
  }

  /// Ensures a LinkTimer wakeup is queued at the link heap's top key.
  /// Invariant: the top entry — live or ack-cancelled — always has a wakeup
  /// at exactly its reserved key, so the global queue presents the
  /// same head times the binary heap engine would (cancelled entries pop as
  /// no-ops at their reserved position, just like the heap engine's stale
  /// NetTimeout events). Superseded wakeups from previously later heads
  /// stay queued; the key guard at dispatch neutralizes them.
  void scheduleLinkWakeup(std::uint32_t link, LinkTimerState& L) {
    if (L.heap.empty()) {
      L.scheduled = EvKey{-1, 0, 0};
      return;
    }
    const EvKey k = L.heap.top().key;
    if (L.scheduled == k) return;
    L.scheduled = k;
    Ev ev;
    ev.t = SimTime{k.t};
    ev.pushT = k.pushT;  // ride the entry's reserved key
    ev.src = k.src;
    ev.kind = EvKind::LinkTimer;
    ev.pe = static_cast<std::uint16_t>(link >> 16);  // the sending PE
    ev.msgId = link;
    cq.push(k, std::move(ev), /*indexed=*/false);
  }

  /// True when a popped LinkTimer wakeup still carries its link's earliest
  /// entry key: it then stands for the heap engine's NetTimeout event with
  /// that key. A wakeup superseded by an earlier head (or a duplicate whose
  /// entry already fired) is no event at all.
  bool linkTimerDue(const Ev& ev) {
    auto lit = linkTimers.find(static_cast<std::uint32_t>(ev.msgId));
    return lit != linkTimers.end() && !lit->second.heap.empty() &&
           lit->second.heap.top().key == keyOf(ev);
  }

  /// A due wakeup: pop the link's earliest entry, run it if it is still
  /// armed — an ack may have cancelled it, making this pop the no-op the
  /// heap engine's stale-timer pop is — and re-schedule the next head.
  void linkTimerFire(Ev& ev) {
    const std::uint32_t link = static_cast<std::uint32_t>(ev.msgId);
    LinkTimerState& L = linkTimers[link];
    if (L.scheduled == keyOf(ev)) L.scheduled = EvKey{-1, 0, 0};
    const TimerEnt ent = L.heap.top();
    L.heap.pop();
    auto a = armedTimers.find(ent.msgId);
    if (a != armedTimers.end() && a->second.second == ent.key) {
      armedTimers.erase(a);
      fireTimeout(ent.msgId, ent.attempt, ev.t);
    }
    // fireTimeout may have re-armed (rehash risk on linkTimers): re-find.
    scheduleLinkWakeup(link, linkTimers[link]);
  }

  /// Entry point of the reliable-delivery layer: registers the message in
  /// the retransmit buffer, transmits the first copy, and arms the timeout.
  /// `sentAt` is the Routing Unit completion time of the initial injection.
  void netSend(std::uint16_t fromPe, std::uint16_t toPe, SimTime sentAt,
               bool isToken, bool pageSized, Token tok, AmTask am) {
    const std::uint64_t msgId = ++netSeq;
    RetxEntry e;
    e.fromPe = fromPe;
    e.toPe = toPe;
    e.isToken = isToken;
    e.pageSized = pageSized;
    e.tok = std::move(tok);
    e.am = std::move(am);
    auto [it, inserted] = retx.emplace(msgId, std::move(e));
    PODS_CHECK(inserted);
    sender.onSend(msgId);
    netTransmit(msgId, it->second, sentAt);
    armTimeout(msgId, 1, sentAt + usec(sender.initialRtoUs()));
  }

  /// Receiver side: dedup, dispatch to MU/AM, inject the optional PE stall,
  /// and acknowledge (again — a duplicate means our previous ack may have
  /// been lost, so re-ack unconditionally). Returns true when the message
  /// was fresh (delivered payload, not a suppressed duplicate).
  bool netDeliver(Ev& ev) {
    PeState& P = pes[ev.pe];
    if (P.dead) {
      // A dead PE neither receives nor acknowledges: the sender's
      // retransmit timer re-offers the message until after the restart.
      ctrs.add(Ctr::FaultDeadDrops);
      return false;
    }
    const bool fresh = P.rx.accept(ev.msgId);
    if (fresh) {
      if (plan.stallHit(++netSeq)) {
        ctrs.add(Ctr::FaultStalls);
        const SimTime stallEnd = ev.t + usec(cfg.faults.simStallUs);
        if (stallEnd > P.euFree) P.euFree = stallEnd;
      }
      Ev fwd;
      fwd.t = ev.t;
      fwd.pe = ev.pe;
      if (ev.isToken) {
        fwd.kind = EvKind::TokenAtMu;
        fwd.tok = std::move(ev.tok);
      } else {
        fwd.kind = EvKind::AmArrive;
        fwd.am = std::move(ev.am);
      }
      push(std::move(fwd));
    }
    const SimTime done =
        unitSched(ev.pe, Unit::RU, ev.t + tm.unitSignal, tm.tokenRoute());
    P.rx.count(proto::kAcks);
    auto ackAt = [&](SimTime when) {
      Ev ack;
      ack.t = when;
      ack.kind = EvKind::NetAckArrive;
      ack.pe = ev.netFrom;
      ack.msgId = ev.msgId;
      push(std::move(ack));
    };
    const SimTime arrive = done + tm.networkHop;
    switch (plan.action(++netSeq)) {
      case FaultAction::Drop:
        ctrs.add(Ctr::FaultDrops);
        break;  // sender retransmits; we will dedup and re-ack
      case FaultAction::Duplicate:
        ctrs.add(Ctr::FaultDups);
        ackAt(arrive);
        ackAt(arrive + tm.networkHop);  // second copy erases nothing
        break;
      case FaultAction::Delay:
        ctrs.add(Ctr::FaultDelays);
        ackAt(arrive + usec(cfg.faults.simDelayUs));
        break;
      case FaultAction::Deliver:
        ackAt(arrive);
        break;
    }
    return fresh;
  }

  /// Sender side: a retransmit timer fired. Stale timers (message already
  /// acked, or superseded by a newer transmission's timer) are ignored and
  /// do not count as progress; live ones pay the Routing Unit again and
  /// back off exponentially. Returns true when the event did real work.
  /// Shared by both engines: the heap engine calls it from NetTimeout
  /// events, the calendar engine from linkTimerFire().
  bool fireTimeout(std::uint64_t msgId, std::uint32_t attempt, SimTime t) {
    auto it = retx.find(msgId);
    if (it == retx.end()) return false;
    const proto::TimeoutDecision d =
        sender.onTimeout(msgId, static_cast<int>(attempt));
    switch (d.kind) {
      case proto::TimeoutDecision::Kind::Stale:
        return false;
      case proto::TimeoutDecision::Kind::GiveUp:
        runtimeError("reliable delivery gave up on a message to PE " +
                     std::to_string(it->second.toPe) + " after " +
                     std::to_string(d.attempt) + " attempts");
        retx.erase(it);
        return true;
      case proto::TimeoutDecision::Kind::Retransmit:
        break;
    }
    RetxEntry& e = it->second;
    stats.counters.add(linkName(e.fromPe, e.toPe, "retx"));
    const SimTime svc = e.pageSized ? tm.pageMessage() : tm.tokenRoute();
    const SimTime done = unitSched(e.fromPe, Unit::RU, t, svc);
    netTransmit(msgId, e, done);
    armTimeout(msgId, static_cast<std::uint32_t>(d.attempt),
               done + usec(d.backoffUs));
    return true;
  }

  // --- token plumbing ------------------------------------------------------

  /// EU (or AM) hands a token to this PE's Matching Unit.
  void tokenToLocalMu(std::uint16_t pe, SimTime t, Token tok) {
    Ev ev;
    ev.t = t + tm.unitSignal;
    ev.kind = EvKind::TokenAtMu;
    ev.pe = pe;
    ev.tok = std::move(tok);
    push(std::move(ev));
  }

  /// EU (or AM) sends a token to another PE through the Routing Unit.
  void tokenToRemote(std::uint16_t fromPe, std::uint16_t toPe, SimTime t,
                     Token tok) {
    SimTime done = unitSched(fromPe, Unit::RU, t + tm.unitSignal, tm.tokenRoute());
    ctrs.add(Ctr::NetTokens);
    stats.counters.add(linkName(fromPe, toPe, "tokens"));
    if (faulty()) {
      netSend(fromPe, toPe, done, /*isToken=*/true, /*pageSized=*/false,
              std::move(tok), AmTask{});
      return;
    }
    Ev ev;
    ev.t = done + tm.networkHop;
    ev.kind = EvKind::TokenAtMu;
    ev.pe = toPe;
    ev.tok = std::move(tok);
    push(std::move(ev));
  }

  void sendToken(std::uint16_t fromPe, std::uint16_t toPe, SimTime t, Token tok) {
    if (fromPe == toPe) {
      tokenToLocalMu(fromPe, t, std::move(tok));
    } else {
      tokenToRemote(fromPe, toPe, t, std::move(tok));
    }
  }

  /// The distributing LD operator's token replication. The Routing Unit
  /// forms the message once (one batched-token charge, as for any send); the
  /// hypercube's Direct-Connect routing replicates it along a spanning tree
  /// without involving intermediate CPUs, so every PE's Matching Unit — not
  /// the sender's Routing Unit — pays the per-copy cost. This keeps the RU
  /// lightly loaded, as the paper's Figure 8 reports.
  void broadcastToken(std::uint16_t fromPe, SimTime t, const Token& tok) {
    SimTime done =
        unitSched(fromPe, Unit::RU, t + tm.unitSignal, tm.tokenRoute());
    ctrs.add(Ctr::NetBroadcastTokens);
    for (int dest = 0; dest < cfg.numPEs; ++dest) {
      if (dest == fromPe) {
        tokenToLocalMu(fromPe, t, tok);
        continue;
      }
      stats.counters.add(
          linkName(fromPe, static_cast<std::uint16_t>(dest), "tokens"));
      if (faulty()) {
        // Every spanning-tree copy is its own reliable message.
        netSend(fromPe, static_cast<std::uint16_t>(dest), done,
                /*isToken=*/true, /*pageSized=*/false, tok, AmTask{});
        continue;
      }
      Ev ev;
      ev.t = done + tm.networkHop;
      ev.kind = EvKind::TokenAtMu;
      ev.pe = static_cast<std::uint16_t>(dest);
      ev.tok = tok;
      push(std::move(ev));
    }
  }

  /// AM task transfer to another PE's AM (read requests, forwarded writes,
  /// allocate broadcasts ride token-sized messages; pages use the page cost).
  void amToRemote(std::uint16_t fromPe, std::uint16_t toPe, SimTime t,
                  AmTask task, bool pageSized) {
    SimTime svc = pageSized ? tm.pageMessage() : tm.tokenRoute();
    SimTime done = unitSched(fromPe, Unit::RU, t + tm.unitSignal, svc);
    ctrs.add(pageSized ? Ctr::NetPages : Ctr::NetArrayMsgs);
    stats.counters.add(linkName(fromPe, toPe, pageSized ? "pages" : "arrayMsgs"));
    if (faulty()) {
      netSend(fromPe, toPe, done, /*isToken=*/false, pageSized, Token{},
              std::move(task));
      return;
    }
    Ev ev;
    ev.t = done + tm.networkHop;
    ev.kind = EvKind::AmArrive;
    ev.pe = toPe;
    ev.am = std::move(task);
    push(std::move(ev));
  }

  void amLocal(std::uint16_t pe, SimTime t, AmTask task) {
    Ev ev;
    ev.t = t + tm.unitSignal;
    ev.kind = EvKind::AmArrive;
    ev.pe = pe;
    ev.am = std::move(task);
    push(std::move(ev));
  }

  void fillSlotLater(std::uint16_t pe, SimTime t, Cont cont, Value v) {
    PODS_CHECK(cont.pe == pe);  // responses are delivered on the owner PE path
    Ev ev;
    ev.t = t;
    ev.kind = EvKind::SlotFill;
    ev.pe = pe;
    ev.tok.toCont = true;
    ev.tok.cont = cont;
    ev.tok.v = v;
    push(std::move(ev));
  }

  // --- Execution Unit ------------------------------------------------------

  /// Schedules the PE's EU at `t` (or when it frees up). A `yield` kick —
  /// the EU stepping aside mid-slice — keys with kYieldPushT so it resumes
  /// before any other event at its time.
  void pushKick(std::uint16_t pe, SimTime t, bool yield = false) {
    PeState& P = pes[pe];
    SimTime want = std::max(t, P.euFree);
    if (P.kickScheduled && P.kickAt <= want) return;
    P.kickScheduled = true;
    P.kickAt = want;
    EvKey key = nextKey(want);
    if (yield) key.pushT = kYieldPushT;
    if (calendar) {
      kicks.push({key, pe, P.incarnation});
      return;
    }
    Ev ev;
    ev.t = want;
    ev.kind = EvKind::EuKick;
    ev.pe = pe;
    enqueue(std::move(ev), key);
  }

  /// A kick pops: clear the PE's pending-kick mark if this is the kick it
  /// covers, and run the EU (inside a lookahead window when enabled).
  void euKick(std::uint16_t pe, SimTime t) {
    PeState& P = pes[pe];
    if (P.kickScheduled && t >= P.kickAt) P.kickScheduled = false;
    if (lookahead) openWindow(pe);
    euRun(pe, t);
    inSlice = false;
  }

  /// Lookahead window of an EU slice on `pe`: its instructions may start up
  /// to the PE's own earliest pending event (which an instruction at the
  /// same time precedes) and strictly before the global head + L (no other
  /// PE can act on this one sooner). push() tightens it as the slice runs.
  void openWindow(std::uint16_t pe) {
    constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
    std::int64_t head = kNever;
    if (const EvKey* k = cq.peekKey()) head = k->t;
    if (!kicks.empty()) head = std::min(head, kicks.top().key.t);
    sliceLimit = head == kNever ? kNever : head + crossPeNs - 1;
    sliceByOwn = false;
    if (!pendingAt[pe].empty() && pendingAt[pe].top() < sliceLimit) {
      sliceLimit = pendingAt[pe].top();
      sliceByOwn = true;
    }
    inSlice = true;
  }

  /// The EU's per-instruction yield test at local time `t`.
  bool mustYield(SimTime t) {
    return lookahead ? t.ns > sliceLimit : headEarlierThan(t);
  }

  void wakeIfBlockedOn(std::uint16_t pe, std::uint32_t frameIdx,
                       std::uint16_t slot, SimTime t) {
    PeState& P = pes[pe];
    Frame& f = P.frames[frameIdx];
    if (f.state == FrameState::Blocked && f.blockedSlot == slot) {
      f.state = FrameState::Ready;
      f.blockedSlot = kNoSlot;
      P.readyQ.push_back(frameIdx);
      pushKick(pe, t);
    }
  }

  std::uint32_t createFrame(std::uint16_t pe, std::uint16_t spCode,
                            std::uint64_t ctx, SimTime t) {
    PeState& P = pes[pe];
    const SpCode& sp = prog.sp(spCode);
    unitSched(pe, Unit::MM, t, tm.frameListOp);  // execution-memory allocation
    Frame f;
    f.spCode = spCode;
    f.ctx = ctx;
    f.slots.assign(sp.numSlots, Value{});
    f.state = FrameState::Ready;
    std::uint32_t idx = static_cast<std::uint32_t>(P.frames.size());
    P.frames.push_back(std::move(f));
    P.match[ctx] = idx;
    P.readyQ.push_back(idx);
    ctrs.add(Ctr::SpInstantiated);
    ++stats.spProfiles[spCode].instances;
    liveChange(/*up=*/true);
    pushKick(pe, t);
    return idx;
  }

  /// `fromMu` distinguishes real token traffic (logged + logically
  /// deduplicated in kill mode) from local Array Manager slot fills, which
  /// a replayed frame regenerates by re-issuing its requests.
  void deliverToken(std::uint16_t pe, SimTime t, const Token& tok,
                    bool fromMu) {
    PeState& P = pes[pe];
    std::uint32_t frameIdx;
    std::uint16_t slot;
    if (tok.toCont) {
      frameIdx = tok.cont.frame;
      slot = tok.cont.slot;
      if (frameIdx >= P.frames.size() ||
          P.frames[frameIdx].state == FrameState::Dead) {
        ctrs.add(Ctr::TokensDropped);
        return;
      }
      Frame& fr = P.frames[frameIdx];
      if (killMode() && fromMu && tok.sendKey != 0 &&
          !P.dedup.firstCont(fr.ctx, tok.senderCtx, tok.sendKey)) {
        // A re-executed sender re-sent this logical token (or a held copy
        // raced a replayed one): it was already applied exactly once. The
        // ledger is keyed by the *consumer's* context — safe because dead
        // consumers drop their tokens above, before dedup is consulted —
        // so END can prune a retired instance's keys.
        ctrs.add(Ctr::TokensReplayDup);
        return;
      }
      if (killMode() && fromMu && tok.sendKey != 0 && fr.replaying &&
          fr.sentCtxs.count(tok.senderCtx) == 0) {
        // Fresh result racing the replay (e.g. a survivor child finishing
        // after the restart): the rebuilt consumer has not re-sent to this
        // context yet, so applying now could clobber an earlier round's
        // slot. Park it; the re-send trigger delivers it in program order.
        P.pendingReplay[tok.senderCtx].push_back(recLogs[pe].entries.size());
        logToken(pe, tok, frameIdx);
        ctrs.add(Ctr::RecoveryParkedEarly);
        return;
      }
    } else {
      if (killMode() && fromMu && !P.dedup.firstCtx(tok.ctx, tok.slot)) {
        ctrs.add(Ctr::TokensReplayDup);
        return;
      }
      auto it = P.match.find(tok.ctx);
      if (it == P.match.end()) {
        if (faulty() && P.rx.straggler(tok.ctx)) {
          // Straggler to a retired instance: reordered by injected delay or
          // retransmission. Spawning here would create a zombie frame.
          return;
        }
        frameIdx = createFrame(pe, tok.spCode, tok.ctx, t);
      } else {
        frameIdx = it->second;
      }
      slot = tok.slot;
    }
    if (killMode() && fromMu) logToken(pe, tok, frameIdx);
    Frame& f = P.frames[frameIdx];
    PODS_CHECK_MSG(slot < f.slots.size(), "token slot out of range");
    if (tok.add) {
      std::int64_t cur = f.slots[slot].empty() ? 0 : f.slots[slot].asInt();
      f.slots[slot] = Value::intv(cur + tok.v.asInt());
    } else {
      f.slots[slot] = tok.v;
    }
    wakeIfBlockedOn(pe, frameIdx, slot, t);
  }

  /// Appends one applied delivery to the PE's stable receive log.
  void logToken(std::uint16_t pe, const Token& tok, std::uint32_t frameIdx) {
    RecEntry e;
    if (tok.toCont) {
      e.kind = RecEntry::Kind::ConToken;
      e.frame = frameIdx;
      e.slot = tok.cont.slot;
      e.senderCtx = tok.senderCtx;
      e.sendKey = tok.sendKey;
      e.add = tok.add;
    } else {
      e.kind = RecEntry::Kind::CtxToken;
      e.ctx = tok.ctx;
      e.slot = tok.slot;
      e.spCode = tok.spCode;
    }
    e.v = tok.v;
    recLogs[pe].entries.push_back(e);
  }

  // --- per-instruction execution -------------------------------------------

  enum class StepResult { Continue, Blocked, Ended };

  bool ensure(PeState& P, Frame& f, std::uint16_t slot) {
    (void)P;
    if (slot == kNoSlot) return true;
    if (!f.slots[slot].empty()) return true;
    f.state = FrameState::Blocked;
    f.blockedSlot = slot;
    return false;
  }

  /// True when the header of `arr` is installed on `pe`.
  bool headerPresent(std::uint16_t pe, ArrayId arr) const {
    return pes[pe].headers.count(arr) != 0;
  }

  /// Computes the flat offset; returns false (and records an error) on a
  /// bad subscript.
  bool resolveOffset(const ArrayInfo& info, std::int64_t i0, std::int64_t i1,
                     std::int64_t& offset) {
    if (info.shape.rank == 1) {
      if (i0 < 0 || i0 >= info.shape.dim0 * info.shape.dim1) return false;
      offset = i0;
      return true;
    }
    if (!info.shape.inBounds(i0, i1)) return false;
    offset = info.shape.flatten(i0, i1);
    return true;
  }

  /// Range-filter bounds (both ends) for array `arr` on `pe`.
  IdxRange rfRange(std::uint16_t pe, const ArrayInfo& info, std::uint8_t dim,
                   bool hasRow, std::int64_t row) const {
    if (!info.distributed) {
      // Undistributed array: its single home PE is responsible for all of it.
      if (static_cast<int>(pe) != info.homePe) return {};
      if (dim == 0) return {0, info.shape.rank == 1
                                   ? info.shape.numElems() - 1
                                   : info.shape.dim0 - 1};
      return {0, info.shape.dim1 - 1};
    }
    if (dim == 0) return info.layout.ownedRows(pe);
    PODS_CHECK(hasRow);
    return info.layout.ownedColsOfRow(pe, row);
  }

  StepResult step(std::uint16_t pe, SimTime& t, Frame& f) {
    PeState& P = pes[pe];
    const SpCode& sp = prog.sp(f.spCode);
    PODS_CHECK_MSG(f.pc < sp.code.size(), "pc ran off the end of an SP");
    const Instr& in = sp.code[f.pc];

    // Operand availability: blocking on an empty slot is the data-driven part
    // of the hybrid model.
    switch (in.op) {
      case Op::LIT: case Op::JMP: case Op::MYPE: case Op::NUMPE:
      case Op::NEWCTX: case Op::MKCONT: case Op::CLEAR: case Op::END:
        break;
      case Op::AWAITN:
        if (!ensure(P, f, in.b)) return StepResult::Blocked;
        break;
      case Op::AWR:
        if (!ensure(P, f, in.a) || !ensure(P, f, in.b) ||
            !ensure(P, f, in.c) || !ensure(P, f, in.dst))
          return StepResult::Blocked;
        break;
      case Op::RFLO: case Op::RFHI:
        if (!ensure(P, f, in.a) || !ensure(P, f, in.b))
          return StepResult::Blocked;
        break;
      default:
        if (!ensure(P, f, in.a)) return StepResult::Blocked;
        if (!ensure(P, f, in.b)) return StepResult::Blocked;
        if (!ensure(P, f, in.c)) return StepResult::Blocked;
        break;
    }

    SpProfile& profile = stats.spProfiles[f.spCode];
    auto charge = [&](bool realOp) {
      SimTime c = tm.euCost(in.op, realOp);
      t += c;
      euBusy(pe, c);
      ++profile.instructions;
      profile.euTime += c;
    };

    std::uint32_t nextPc = f.pc + 1;

    if (isBinaryOp(in.op)) {
      const Value& a = f.slots[in.a];
      const Value& b = f.slots[in.b];
      charge(binIsReal(a, b));
      f.slots[in.dst] = applyBin(in.op, a, b);
      f.pc = nextPc;
      return StepResult::Continue;
    }
    if (isUnaryOp(in.op)) {
      const Value& a = f.slots[in.a];
      charge(a.isReal());
      f.slots[in.dst] = applyUn(in.op, a);
      f.pc = nextPc;
      return StepResult::Continue;
    }

    switch (in.op) {
      case Op::LIT:
        charge(false);
        f.slots[in.dst] = in.imm;
        break;
      case Op::JMP:
        charge(false);
        nextPc = in.aux;
        break;
      case Op::BRF:
        charge(false);
        if (!f.slots[in.a].truthy()) nextPc = in.aux;
        break;
      case Op::MYPE:
        charge(false);
        f.slots[in.dst] = Value::intv(pe);
        break;
      case Op::NUMPE:
        charge(false);
        f.slots[in.dst] = Value::intv(cfg.numPEs);
        break;
      case Op::NEWCTX:
        charge(false);
        if (killMode()) {
          // Idempotent mint: the n-th NEWCTX of a replayed frame must
          // return the context it handed out before the kill — children
          // spawned under it (and their continuations back to us) already
          // carry that identity. The counter lives in the stable log so a
          // restart never re-mints a pre-kill context.
          RecoveryLog& L = recLogs[pe];
          const std::uint32_t mseq = f.mintSeq++;
          if (const Value* m = L.findMint(f.ctx, mseq)) {
            f.slots[in.dst] = *m;
            break;
          }
          Value v = Value::intv(static_cast<std::int64_t>(
              (std::uint64_t(pe) << 40) | ++L.ctxCounter));
          L.recordMint(f.ctx, mseq, v);
          f.slots[in.dst] = v;
          break;
        }
        // PE-unique, monotonically increasing context tags.
        f.slots[in.dst] = Value::intv(
            static_cast<std::int64_t>((std::uint64_t(pe) << 40) |
                                      ++P.ctxCounter));
        break;
      case Op::MKCONT: {
        charge(false);
        Cont c;
        c.pe = pe;
        c.frame = static_cast<std::uint32_t>(P.current);
        c.slot = static_cast<std::uint16_t>(in.aux);
        f.slots[in.dst] = Value::contv(c);
        break;
      }
      case Op::CLEAR:
        charge(false);
        f.slots[in.a] = Value{};
        break;
      case Op::ALLOC:
      case Op::ALLOCD: {
        charge(false);
        f.slots[in.dst] = Value{};  // split-phase: AM fills in the id
        AmTask task;
        task.kind = AmTask::Kind::Alloc;
        task.distributed = in.op == Op::ALLOCD;
        task.shape.rank = in.dim;
        task.shape.dim0 = f.slots[in.a].asInt();
        task.shape.dim1 = in.dim == 2 ? f.slots[in.b].asInt() : 1;
        task.cont = {pe, static_cast<std::uint32_t>(P.current), in.dst};
        if (killMode()) {
          // Stamp the mint identity so a replayed allocation resolves to the
          // array created before the kill instead of a fresh (empty) one.
          task.senderCtx = f.ctx;
          task.mintSeq = f.mintSeq++;
        }
        if (task.shape.dim0 < 0 || task.shape.dim1 < 0 ||
            task.shape.numElems() > (std::int64_t(1) << 24)) {
          runtimeError("bad allocation dimensions");
          break;
        }
        amLocal(pe, t, std::move(task));
        break;
      }
      case Op::ARD: {
        charge(false);  // flat 2.7 us local-read budget
        ctrs.add(Ctr::ArrayReads);
        const ArrayId arr = f.slots[in.a].asArray();
        const std::int64_t i0 = f.slots[in.b].asInt();
        const std::int64_t i1 = in.c != kNoSlot ? f.slots[in.c].asInt() : 0;
        f.slots[in.dst] = Value{};  // split-phase
        const Cont cont{pe, static_cast<std::uint32_t>(P.current), in.dst};
        if (headerPresent(pe, arr)) {
          const ArrayInfo* info = store.find(arr);
          std::int64_t offset;
          if (!resolveOffset(*info, i0, i1, offset)) {
            runtimeError("array read out of bounds in " + sp.name);
            break;
          }
          if (info->owner(offset) == pe &&
              info->atOwner[static_cast<std::size_t>(offset)]) {
            // Local present element: the fast path the 2.7 us covers.
            f.slots[in.dst] = info->elems[static_cast<std::size_t>(offset)];
            ctrs.add(Ctr::ArrayReadsLocalHit);
            break;
          }
        }
        AmTask task;
        task.kind = AmTask::Kind::Read;
        task.arr = arr;
        task.i0 = i0;
        task.i1 = i1;
        task.rank = in.c != kNoSlot ? 2 : 1;
        task.cont = cont;
        amLocal(pe, t, std::move(task));
        break;
      }
      case Op::AWR: {
        charge(false);
        ctrs.add(Ctr::ArrayWrites);
        AmTask task;
        task.kind = AmTask::Kind::Write;
        task.arr = f.slots[in.a].asArray();
        task.i0 = f.slots[in.b].asInt();
        task.i1 = in.c != kNoSlot ? f.slots[in.c].asInt() : 0;
        task.rank = in.c != kNoSlot ? 2 : 1;
        task.v = f.slots[in.dst];
        amLocal(pe, t, std::move(task));
        break;
      }
      case Op::RFLO:
      case Op::RFHI: {
        charge(false);
        const ArrayId arr = f.slots[in.a].asArray();
        const bool hasRow = in.b != kNoSlot;
        const std::int64_t row = hasRow ? f.slots[in.b].asInt() : 0;
        if (headerPresent(pe, arr)) {
          const ArrayInfo* info = store.find(arr);
          IdxRange r = rfRange(pe, *info, in.dim, hasRow, row);
          f.slots[in.dst] = Value::intv(
              (in.op == Op::RFHI ? r.hi : r.lo) - in.off);
        } else {
          f.slots[in.dst] = Value{};  // split-phase via the Array Manager
          AmTask task;
          task.kind = AmTask::Kind::Rf;
          task.arr = arr;
          task.i0 = row;
          task.hasRow = hasRow;
          task.dim = in.dim;
          task.rfOff = in.off;
          task.isHi = in.op == Op::RFHI;
          task.cont = {pe, static_cast<std::uint32_t>(P.current), in.dst};
          amLocal(pe, t, std::move(task));
        }
        break;
      }
      case Op::BLKLO:
      case Op::BLKHI: {
        charge(false);
        IdxRange r = blockPartition(f.slots[in.a].asInt(),
                                    f.slots[in.b].asInt(), pe, cfg.numPEs);
        f.slots[in.dst] = Value::intv(in.op == Op::BLKHI ? r.hi : r.lo);
        break;
      }
      case Op::DIMQ: {
        charge(false);
        const ArrayId arr = f.slots[in.a].asArray();
        if (headerPresent(pe, arr)) {
          const ArrayInfo* info = store.find(arr);
          f.slots[in.dst] = Value::intv(in.dim == 1 ? info->shape.dim1
                                                    : info->shape.dim0);
        } else {
          f.slots[in.dst] = Value{};  // split-phase via the Array Manager
          AmTask task;
          task.kind = AmTask::Kind::DimQ;
          task.arr = arr;
          task.dim = in.dim;
          task.cont = {pe, static_cast<std::uint32_t>(P.current), in.dst};
          amLocal(pe, t, std::move(task));
        }
        break;
      }
      case Op::SENDA:
      case Op::SENDD: {
        charge(false);
        Token tok;
        tok.spCode = in.targetSp();
        tok.slot = in.targetSlot();
        tok.ctx = static_cast<std::uint64_t>(f.slots[in.b].asInt());
        tok.v = f.slots[in.a];
        ctrs.add(Ctr::TokensSent);
        const std::uint64_t targetCtx = tok.ctx;
        if (in.op == Op::SENDA) {
          sendToken(pe, pe, t, std::move(tok));
        } else {
          broadcastToken(pe, t, tok);
        }
        // A restarted PE parks logged continuation results until the frame
        // that consumed them re-runs; the first send *to* the callee's
        // context is the replay point where its logged replies re-apply.
        if (killMode() && f.replaying) {
          f.sentCtxs.insert(targetCtx);
          if (!P.pendingReplay.empty())
            replayResponsesFor(pe, targetCtx,
                               static_cast<std::uint32_t>(P.current));
        }
        break;
      }
      case Op::SENDC:
      case Op::ADDC: {
        charge(false);
        Cont c = f.slots[in.b].asCont();
        Token tok;
        tok.toCont = true;
        tok.cont = c;
        tok.v = f.slots[in.a];
        tok.add = in.op == Op::ADDC;
        if (killMode()) {
          // Logical send identity: deterministic re-execution reproduces the
          // same (sender ctx, sender PE, seq) triple, so receivers can drop
          // the duplicate even though it travels as a brand-new message.
          tok.senderCtx = f.ctx;
          // Pre-increment: seq 0 on PE 0 would pack to the "unkeyed" 0.
          tok.sendKey = packSendKey(pe, ++f.sendSeq);
        }
        ctrs.add(Ctr::TokensSent);
        sendToken(pe, c.pe, t, std::move(tok));
        break;
      }
      case Op::AWAITN: {
        charge(false);
        std::int64_t count =
            f.slots[in.a].empty() ? 0 : f.slots[in.a].asInt();
        if (count < f.slots[in.b].asInt()) {
          f.state = FrameState::Blocked;
          f.blockedSlot = in.a;
          return StepResult::Blocked;
        }
        break;
      }
      case Op::RESULT: {
        charge(false);
        std::size_t idx = in.aux;
        PODS_CHECK(idx < stats.results.size());
        stats.results[idx] = f.slots[in.a];
        resultSet[idx] = true;
        break;
      }
      case Op::END: {
        charge(false);
        f.state = FrameState::Dead;
        if (faulty()) P.rx.retireCtx(f.ctx);
        if (killMode()) {
          RecEntry e;
          e.kind = RecEntry::Kind::End;
          e.ctx = f.ctx;
          recLogs[pe].entries.push_back(e);
          // The instance is over: its logical-dedup keys and minted values
          // can never be consulted again (tokens to a dead frame are dropped
          // or triaged as stragglers first), so the recovery ledgers shed
          // them here — this is what keeps long runs' logs bounded.
          P.dedup.retire(f.ctx);
          recLogs[pe].mints.erase(f.ctx);
        }
        P.match.erase(f.ctx);
        f.slots.clear();
        f.slots.shrink_to_fit();
        unitSched(pe, Unit::MM, t, tm.frameListOp);  // frame release
        ctrs.add(Ctr::SpCompleted);
        liveChange(/*up=*/false);
        return StepResult::Ended;
      }
      default:
        PODS_UNREACHABLE("unhandled opcode");
    }
    f.pc = nextPc;
    return StepResult::Continue;
  }

  /// Closes the PE's open EU trace slice at `end`.
  void endSlice(std::uint16_t pe, SimTime end) {
    PeState& P = pes[pe];
    if (P.sliceName && end > P.sliceStart)
      addTrace(pe, Unit::EU, P.sliceName, P.sliceStart, end - P.sliceStart);
    P.sliceName = nullptr;
  }

  /// The EU scheduler: runs ready SPs, blocking and switching per the paper.
  void euRun(std::uint16_t pe, SimTime tStart) {
    PeState& P = pes[pe];
    SimTime t = std::max(tStart, P.euFree);
    std::uint64_t steps = 0;
    for (;;) {
      if (++steps > 50'000'000ULL) {
        runtimeError("livelock: one EU slice exceeded 50M instructions");
        endSlice(pe, t);
        P.euFree = t;
        return;
      }
      if (P.current < 0) {
        if (P.readyQ.empty()) {
          P.euFree = t;
          return;
        }
        std::uint32_t idx = P.readyQ.front();
        P.readyQ.pop_front();
        Frame& f = P.frames[idx];
        if (f.state == FrameState::Dead) continue;
        P.current = idx;
        f.state = FrameState::Running;
        if (idx != P.lastFrame) {
          t += tm.contextSwitch;
          euBusy(pe, tm.contextSwitch);
          ctrs.add(Ctr::EuContextSwitches);
          P.lastFrame = idx;
        }
        // A frame resuming after a yield keeps its open slice.
        if (tracing && !P.sliceName) {
          P.sliceStart = t;
          P.sliceName = &prog.sp(f.spCode).name;
        }
      }
      // Yield to the global queue when the next instruction could run out of
      // global time order. The exact rule reads the calendar's cached head in
      // O(1); the lookahead rule compares against the slice's window.
      if (mustYield(t)) {
        // Which bound closed the lookahead window (engine-private, so named
        // under sim.eventq.*).
        if (lookahead)
          ctrs.add(sliceByOwn ? Ctr::SimEventqYieldsOwnEvent
                              : Ctr::SimEventqYieldsHeadL);
        Frame& f = P.frames[static_cast<std::size_t>(P.current)];
        f.state = FrameState::Ready;
        P.readyQ.push_front(static_cast<std::uint32_t>(P.current));
        P.current = -1;
        P.euFree = t;
        pushKick(pe, t, /*yield=*/true);
        return;
      }
      Frame& f = P.frames[static_cast<std::size_t>(P.current)];
      actorT = t;  // the instruction's pushes key at its start time
      StepResult r = step(pe, t, f);
      if (r == StepResult::Blocked) {
        P.current = -1;
        ctrs.add(Ctr::EuBlocks);
        endSlice(pe, t);
        continue;  // pick the next ready SP (context switch charged at pick)
      }
      if (r == StepResult::Ended) {
        P.current = -1;
        endSlice(pe, t);
        continue;
      }
      if (P.errors > 64) {
        // Runaway error loop: stop making progress on this PE.
        endSlice(pe, t);
        P.euFree = t;
        return;
      }
    }
  }

  // --- Array Manager -------------------------------------------------------

  void amHandle(std::uint16_t pe, SimTime t, AmTask& task) {
    PeState& P = pes[pe];
    // Allocation requests install headers; everything else needs one.
    if (task.kind != AmTask::Kind::Alloc &&
        task.kind != AmTask::Kind::AllocInstall &&
        !headerPresent(pe, task.arr)) {
      unitSched(pe, Unit::AM, t, tm.memRead);
      P.pendingHeader[task.arr].push_back(task);
      ctrs.add(Ctr::AmDeferredOnHeader);
      return;
    }
    switch (task.kind) {
      case AmTask::Kind::Alloc: {
        SimTime done = unitSched(pe, Unit::AM, t, tm.allocArray);
        if (killMode()) {
          // Replayed allocation: hand back the array created before the kill
          // (its elements — possibly already written — survive in the global
          // store) instead of minting a fresh empty one.
          if (const Value* m =
                  recLogs[pe].findMint(task.senderCtx, task.mintSeq)) {
            P.headers.emplace(m->asArray(), 0);
            fillSlotLater(pe, done + tm.unitSignal, task.cont, *m);
            ctrs.add(Ctr::ArrayAllocsReplayDup);
            flushPendingHeader(pe, done, m->asArray());
            break;
          }
        }
        ArrayId id = store.create(pe, task.shape, task.distributed);
        if (killMode()) {
          recLogs[pe].recordMint(task.senderCtx, task.mintSeq,
                                 Value::arrayv(id));
          // Arrays born while a PE is down never home pages on it: remap the
          // dead PE's segment onto a surviving neighbor so writes and reads
          // of this array need not stall until the restart. (Ownership is
          // fixed for an array's lifetime, so the remap is permanent — the
          // restarted PE simply owns nothing of arrays it never saw born.)
          if (task.distributed) {
            ArrayInfo* born = store.find(id);
            for (int d = 0; d < cfg.numPEs; ++d)
              if (pes[d].dead) {
                born->layout.migratePe(d);
                ctrs.add(Ctr::RecoveryMigratedArrays);
              }
          }
        }
        P.headers.emplace(id, 0);
        fillSlotLater(pe, done + tm.unitSignal, task.cont, Value::arrayv(id));
        ctrs.add(Ctr::ArrayAllocs);
        if (task.distributed && cfg.numPEs > 1) {
          // Broadcast the allocation to all other PEs (one message injection,
          // replicated by the network like the LD broadcast).
          SimTime sent =
              unitSched(pe, Unit::RU, done + tm.unitSignal, tm.tokenRoute());
          for (int dest = 0; dest < cfg.numPEs; ++dest) {
            if (dest == pe) continue;
            AmTask inst;
            inst.kind = AmTask::Kind::AllocInstall;
            inst.arr = id;
            inst.shape = task.shape;
            inst.distributed = true;
            inst.fromPe = pe;
            if (faulty()) {
              netSend(pe, static_cast<std::uint16_t>(dest), sent,
                      /*isToken=*/false, /*pageSized=*/false, Token{},
                      std::move(inst));
              continue;
            }
            Ev ev;
            ev.t = sent + tm.networkHop;
            ev.kind = EvKind::AmArrive;
            ev.pe = static_cast<std::uint16_t>(dest);
            ev.am = std::move(inst);
            push(std::move(ev));
          }
        }
        // Any ops that raced ahead of this allocation on this PE.
        flushPendingHeader(pe, done, id);
        break;
      }
      case AmTask::Kind::AllocInstall: {
        SimTime done = unitSched(pe, Unit::AM, t, tm.allocArray);
        P.headers.emplace(task.arr, 0);
        flushPendingHeader(pe, done, task.arr);
        break;
      }
      case AmTask::Kind::Read:
        amRead(pe, t, task);
        break;
      case AmTask::Kind::Write:
        amWrite(pe, t, task);
        break;
      case AmTask::Kind::RemoteReadReq:
        amRemoteReadReq(pe, t, task);
        break;
      case AmTask::Kind::PageArrive:
        amPageArrive(pe, t, task);
        break;
      case AmTask::Kind::Rf: {
        SimTime done = unitSched(pe, Unit::AM, t, tm.memRead);
        const ArrayInfo* info = store.find(task.arr);
        IdxRange r = rfRange(pe, *info, task.dim, task.hasRow, task.i0);
        fillSlotLater(pe, done + tm.unitSignal, task.cont,
                      Value::intv((task.isHi ? r.hi : r.lo) - task.rfOff));
        break;
      }
      case AmTask::Kind::DimQ: {
        SimTime done = unitSched(pe, Unit::AM, t, tm.memRead);
        const ArrayInfo* info = store.find(task.arr);
        fillSlotLater(pe, done + tm.unitSignal, task.cont,
                      Value::intv(task.dim == 1 ? info->shape.dim1
                                                : info->shape.dim0));
        break;
      }
      case AmTask::Kind::ValueArrive: {
        // A remote owner answered a read that had been queued on an absent
        // element: satisfy every local reader waiting on that element.
        SimTime done = unitSched(pe, Unit::AM, t, tm.memWrite);
        auto ait = P.pendingRemote.find(task.arr);
        if (ait == P.pendingRemote.end()) break;
        auto oit = ait->second.find(task.offset);
        if (oit == ait->second.end()) break;
        for (const Cont& c : oit->second) {
          fillSlotLater(pe, done + tm.unitSignal, c, task.v);
        }
        ait->second.erase(oit);
        break;
      }
    }
  }

  void flushPendingHeader(std::uint16_t pe, SimTime t, ArrayId id) {
    PeState& P = pes[pe];
    auto it = P.pendingHeader.find(id);
    if (it == P.pendingHeader.end()) return;
    std::vector<AmTask> tasks = std::move(it->second);
    P.pendingHeader.erase(it);
    for (AmTask& task : tasks) {
      Ev ev;
      ev.t = t;
      ev.kind = EvKind::AmArrive;
      ev.pe = pe;
      ev.am = std::move(task);
      push(std::move(ev));
    }
  }

  void amRead(std::uint16_t pe, SimTime t, AmTask& task) {
    PeState& P = pes[pe];
    const ArrayInfo* info = store.find(task.arr);
    std::int64_t offset;
    if (!resolveOffset(*info, task.i0, task.i1, offset)) {
      unitSched(pe, Unit::AM, t, tm.memRead);
      runtimeError("array read out of bounds");
      return;
    }
    const int owner = info->owner(offset);
    if (owner == pe) {
      if (info->atOwner[static_cast<std::size_t>(offset)]) {
        SimTime done = unitSched(pe, Unit::AM, t, tm.memRead);
        fillSlotLater(pe, done + tm.unitSignal, task.cont,
                      info->elems[static_cast<std::size_t>(offset)]);
      } else {
        unitSched(pe, Unit::AM, t, tm.enqueueRead);
        P.deferred[task.arr][offset].localWaiters.push_back(task.cont);
        ctrs.add(Ctr::ArrayReadsDeferred);
      }
      return;
    }
    // Remote element: consult the software page cache first.
    ctrs.add(Ctr::ArrayReadsRemote);
    const std::int64_t page = info->layout.pageOfOffset(offset);
    const int within = static_cast<int>(offset % tm.pageElems);
    if (cfg.cachePages) {
      auto c = P.cache.find(pageKey(task.arr, page));
      if (c != P.cache.end() && c->second.test(within)) {
        SimTime done = unitSched(pe, Unit::AM, t, tm.memRead);
        fillSlotLater(pe, done + tm.unitSignal, task.cont,
                      info->elems[static_cast<std::size_t>(offset)]);
        ctrs.add(Ctr::ArrayReadsCacheHit);
        return;
      }
    }
    // Coalesce with an already-in-flight request for the same element.
    auto& pending = P.pendingRemote[task.arr];
    auto pit = pending.find(offset);
    if (pit != pending.end()) {
      unitSched(pe, Unit::AM, t, tm.memRead);
      pit->second.push_back(task.cont);
      ctrs.add(Ctr::ArrayReadsCoalesced);
      return;
    }
    pending[offset].push_back(task.cont);
    SimTime done = unitSched(pe, Unit::AM, t, tm.memRead);
    AmTask req;
    req.kind = AmTask::Kind::RemoteReadReq;
    req.arr = task.arr;
    req.offset = offset;
    req.fromPe = pe;
    amToRemote(pe, static_cast<std::uint16_t>(owner), done, req,
               /*pageSized=*/false);
  }

  /// Ships the page containing `offset` to `toPe` with the current presence
  /// mask snapshot.
  void sendPage(std::uint16_t pe, SimTime t, const ArrayInfo& info,
                std::int64_t page, std::uint16_t toPe) {
    SimTime done = unitSched(
        pe, Unit::AM, t,
        tm.memRead * tm.pageElems + tm.unitSignal);  // "Send Page"
    AmTask pg;
    pg.kind = AmTask::Kind::PageArrive;
    pg.arr = info.id;
    pg.offset = page;
    const std::int64_t base = page * tm.pageElems;
    for (int i = 0; i < tm.pageElems; ++i) {
      const std::int64_t off = base + i;
      if (off >= info.shape.numElems()) break;
      if (info.atOwner[static_cast<std::size_t>(off)]) pg.mask.set(i);
    }
    ctrs.add(Ctr::ArrayPagesSent);
    amToRemote(pe, toPe, done, pg, /*pageSized=*/true);
  }

  void amRemoteReadReq(std::uint16_t pe, SimTime t, AmTask& task) {
    PeState& P = pes[pe];
    const ArrayInfo* info = store.find(task.arr);
    if (info->atOwner[static_cast<std::size_t>(task.offset)]) {
      sendPage(pe, t, *info, info->layout.pageOfOffset(task.offset),
               task.fromPe);
      return;
    }
    // Queue the remote request on the absent element.
    unitSched(pe, Unit::AM, t, tm.enqueueRead);
    Deferred& d = P.deferred[task.arr][task.offset];
    for (std::uint16_t waiting : d.remotePes) {
      if (waiting == task.fromPe) return;  // already queued
    }
    d.remotePes.push_back(task.fromPe);
    ctrs.add(Ctr::ArrayReadsRemoteDeferred);
  }

  void amPageArrive(std::uint16_t pe, SimTime t, AmTask& task) {
    PeState& P = pes[pe];
    SimTime done =
        unitSched(pe, Unit::AM, t, tm.memWrite * tm.pageElems);  // "Receive Page"
    if (cfg.cachePages) {
      P.cache[pageKey(task.arr, task.offset)].merge(task.mask);
    }
    ctrs.add(Ctr::ArrayPagesReceived);
    // Satisfy every waiting read that this page covers.
    const ArrayInfo* info = store.find(task.arr);
    auto ait = P.pendingRemote.find(task.arr);
    if (ait == P.pendingRemote.end()) return;
    const std::int64_t lo = task.offset * tm.pageElems;
    const std::int64_t hi = lo + tm.pageElems - 1;
    for (auto it = ait->second.begin(); it != ait->second.end();) {
      const std::int64_t off = it->first;
      const int within = static_cast<int>(off - lo);
      if (off >= lo && off <= hi && task.mask.test(within)) {
        for (const Cont& c : it->second) {
          fillSlotLater(pe, done + tm.unitSignal, c,
                        info->elems[static_cast<std::size_t>(off)]);
        }
        it = ait->second.erase(it);
      } else {
        ++it;
      }
    }
  }

  void amWrite(std::uint16_t pe, SimTime t, AmTask& task) {
    PeState& P = pes[pe];
    ArrayInfo* info = store.find(task.arr);
    std::int64_t offset;
    if (!resolveOffset(*info, task.i0, task.i1, offset)) {
      unitSched(pe, Unit::AM, t, tm.memRead);
      runtimeError("array write out of bounds");
      return;
    }
    const int owner = info->owner(offset);
    // Under fail-stop replay a re-executed frame rewrites elements it wrote
    // before the kill. Single assignment makes the replay value identical,
    // so the rewrite is a no-op (nobody can still be waiting on a present
    // element) rather than a violation; a *different* value still faults.
    if (killMode() && !task.forwarded &&
        !info->elems[static_cast<std::size_t>(offset)].empty() &&
        info->elems[static_cast<std::size_t>(offset)].identical(task.v)) {
      unitSched(pe, Unit::AM, t, tm.memWrite);
      ctrs.add(Ctr::ArrayWritesReplayDup);
      return;
    }
    if (owner != pe) {
      // Remote write: commit the value here (single assignment makes it
      // final, so the writer may also cache it — its own read-after-write,
      // e.g. a recurrence over a distributed array, then stays local), and
      // forward a token-sized notification to the owner. Only its arrival
      // makes the element present there (atOwner) and wakes any readers
      // queued on it.
      if (!store.write(task.arr, offset, task.v)) {
        unitSched(pe, Unit::AM, t, tm.memWrite);
        runtimeError("single-assignment violation: array #" +
                     std::to_string(task.arr) + " element " +
                     std::to_string(offset) + " written twice");
        return;
      }
      if (cfg.cachePages) {
        P.cache[pageKey(task.arr, info->layout.pageOfOffset(offset))].set(
            static_cast<int>(offset % tm.pageElems));
      }
      SimTime done = unitSched(pe, Unit::AM, t, tm.memWrite + tm.memRead);
      ctrs.add(Ctr::ArrayWritesRemote);
      task.forwarded = true;
      amToRemote(pe, static_cast<std::uint16_t>(owner), done, task,
                 /*pageSized=*/false);
      return;
    }
    if (!task.forwarded && !store.write(task.arr, offset, task.v)) {
      unitSched(pe, Unit::AM, t, tm.memWrite);
      runtimeError("single-assignment violation: array #" +
                   std::to_string(task.arr) + " element " +
                   std::to_string(offset) + " written twice");
      return;
    }
    info->atOwner[static_cast<std::size_t>(offset)] = true;
    // "Array Write: memory_write_time + number_queued_reads * message_time".
    auto dit = P.deferred.find(task.arr);
    Deferred* d = nullptr;
    if (dit != P.deferred.end()) {
      auto oit = dit->second.find(offset);
      if (oit != dit->second.end()) d = &oit->second;
    }
    const std::int64_t queued =
        d ? static_cast<std::int64_t>(d->localWaiters.size()) : 0;
    SimTime done = unitSched(pe, Unit::AM, t,
                             tm.memWrite + tm.unitSignal * queued);
    if (d) {
      for (const Cont& c : d->localWaiters) {
        fillSlotLater(pe, done + tm.unitSignal, c, task.v);
      }
      // Remote readers queued on this element get the value itself as a
      // token-sized response (the write "reactivates all PEs blocked on that
      // location"); future reads of the page still fetch and cache it whole.
      for (std::uint16_t toPe : d->remotePes) {
        AmTask resp;
        resp.kind = AmTask::Kind::ValueArrive;
        resp.arr = task.arr;
        resp.offset = offset;
        resp.v = task.v;
        amToRemote(pe, toPe, done, resp, /*pageSized=*/false);
      }
      dit->second.erase(offset);
    }
  }

  // --- fail-stop recovery (kill mode) --------------------------------------

  /// True for Array Manager tasks a PE enqueues against itself on behalf of
  /// its own frames (reads, writes, allocations, header queries). After a
  /// kill these are volatile-state artifacts of the dead incarnation — the
  /// replayed frames re-issue every one of them — and must be dropped, not
  /// held: a stale Read, for instance, would re-register its continuation
  /// under the *old* round's element and poison a multi-round slot with a
  /// later iteration's value once the response lands. Network-origin tasks
  /// (forwarded writes, remote read requests, page/value responses, header
  /// installs) stay held: their senders acked and moved on, so the held
  /// copy can be the only one left.
  static bool amTaskIsLocalRequest(const AmTask& task) {
    switch (task.kind) {
      case AmTask::Kind::Read:
      case AmTask::Kind::Alloc:
      case AmTask::Kind::Rf:
      case AmTask::Kind::DimQ:
        return true;
      case AmTask::Kind::Write:
        return !task.forwarded;
      default:
        return false;
    }
  }

  /// PE-local events a kill makes obsolete: EU kicks, AM slot fills and the
  /// PE's own Array Manager requests, which re-execution regenerates.
  static bool droppedOnKill(const Ev& ev) {
    return ev.kind == EvKind::EuKick || ev.kind == EvKind::SlotFill ||
           (ev.kind == EvKind::AmArrive && amTaskIsLocalRequest(ev.am));
  }

  /// True when a PE-local event stamped with incarnation `inc` belongs to a
  /// life of `pe` that is over (or the PE is inside its dead window).
  bool lostLife(std::uint16_t pe, std::uint32_t inc) const {
    return inc != pes[pe].incarnation || pes[pe].dead;
  }

  /// Filters events touching the killed PE. Events from a previous
  /// incarnation are volatile-state artifacts: droppedOnKill events are
  /// dropped, while token and network-origin Array Manager deliveries are
  /// *held* — their senders may have retired before the kill and will
  /// never resend — and re-injected after the rebuild, where the logical
  /// dedup filters absorb any copy a replay also regenerates. Returns true
  /// when the event must not be dispatched.
  bool staleOrHeld(Ev& ev) {
    switch (ev.kind) {
      case EvKind::EuKick:
      case EvKind::TokenAtMu:
      case EvKind::TokenDeliver:
      case EvKind::AmArrive:
      case EvKind::SlotFill:
        break;
      default:
        return false;  // network-layer + kill events are never PE-volatile
    }
    PeState& P = pes[ev.pe];
    if (!lostLife(ev.pe, ev.inc)) return false;
    if (droppedOnKill(ev)) {
      ctrs.add(Ctr::RecoveryDroppedEvents);
      return true;
    }
    if (P.dead) {
      ctrs.add(Ctr::RecoveryHeldEvents);
      deadHeld.push_back(std::move(ev));
      return true;
    }
    // Already restarted: deliver as a fresh arrival; dedup does the rest.
    if (ev.kind == EvKind::TokenDeliver) {
      deliverToken(ev.pe, ev.t, ev.tok, /*fromMu=*/true);
      return true;
    }
    ev.inc = P.incarnation;
    return false;
  }

  void peKill(std::uint16_t pe, SimTime t) {
    PeState& P = pes[pe];
    ctrs.add(Ctr::FaultKills);
    P.incarnation += 1;
    P.dead = true;
    if (calendar) {
      // Triage the victim's pending events NOW, straight off its index, in
      // the same key order the binary heap engine would have popped
      // them across the dead window. Only events ordered before the
      // PeRestart event qualify: anything later pops after the rebuild and
      // takes the ordinary already-restarted path. No PE-local event
      // targeting a dead PE is ever pushed during the dead window (the PE
      // itself is not running, and remote arrivals ride NetDeliver, which
      // drops at a dead receiver), so this captures exactly the set
      // dispatch-time triage would have seen. The taken slots stay queued
      // as ghosts: until each one's key comes up, it must keep
      // steering the EU yield check exactly as the still-queued event does
      // in the heap engine, and its pop is counted when it happens. (Kicks
      // live in the kick heap, unindexed, and are dropped as they pop.)
      for (Ev& held : cq.takeIndexed(restartKey_)) {
        if (droppedOnKill(held)) {
          ctrs.add(Ctr::RecoveryDroppedEvents);
        } else {
          ctrs.add(Ctr::RecoveryHeldEvents);
          deadHeld.push_back(std::move(held));
        }
      }
      killTriaged_ = true;
    }
    for (const Frame& f : P.frames)
      if (f.state != FrameState::Dead) liveChange(/*up=*/false);
    endSlice(pe, P.euFree);
    P.frames.clear();
    P.match.clear();
    P.readyQ.clear();
    P.current = -1;
    P.lastFrame = 0xFFFFFFFFu;
    P.euFree = t;
    P.kickScheduled = false;
    P.headers.clear();
    P.pendingHeader.clear();
    P.cache.clear();
    P.pendingRemote.clear();
    P.deferred.clear();
    P.rx.resetReceiver();
    P.dedup.clear();
    P.pendingReplay.clear();
  }

  /// Rebuilds the killed PE from its receive log, then re-injects the held
  /// in-flight deliveries and asks surviving PEs to re-announce reads that
  /// were parked at the dead owner (whose deferred-read queues died with it).
  void peRestart(std::uint16_t pe, SimTime t) {
    PeState& P = pes[pe];
    PODS_CHECK(P.dead);
    P.dead = false;
    ctrs.add(Ctr::FaultRestarts);
    RecoveryLog& L = recLogs[pe];
    for (std::size_t i = 0; i < L.entries.size(); ++i) {
      const RecEntry& e = L.entries[i];
      switch (e.kind) {
        case RecEntry::Kind::Boot:
        case RecEntry::Kind::CtxToken: {
          std::uint32_t idx;
          if (e.kind == RecEntry::Kind::Boot) {
            idx = rebuildFrame(P, e.spCode, e.ctx);
          } else {
            P.dedup.firstCtx(e.ctx, e.slot);
            auto it = P.match.find(e.ctx);
            idx = it != P.match.end() ? it->second
                                      : rebuildFrame(P, e.spCode, e.ctx);
            P.frames[idx].slots[e.slot] = e.v;
          }
          break;
        }
        case RecEntry::Kind::ConToken:
          // Not applied here: held back until the re-executing consumer
          // re-sends to the original sender's context (after the matching
          // round's CLEAR), so multi-round slots refill in program order.
          // The consumer frame exists by log order (its creating record
          // precedes every delivery into it).
          PODS_CHECK_MSG(e.frame < P.frames.size(),
                         "replayed delivery targets an unknown frame");
          P.dedup.firstCont(P.frames[e.frame].ctx, e.senderCtx, e.sendKey);
          P.pendingReplay[e.senderCtx].push_back(i);
          break;
        case RecEntry::Kind::End: {
          auto it = P.match.find(e.ctx);
          PODS_CHECK_MSG(it != P.match.end(),
                         "recovery log retires an unknown context");
          Frame& f = P.frames[it->second];
          f.state = FrameState::Dead;
          f.slots.clear();
          P.rx.retireCtx(e.ctx);
          P.dedup.retire(e.ctx);
          L.mints.erase(e.ctx);
          P.match.erase(it);
          liveChange(/*up=*/false);
          break;
        }
        case RecEntry::Kind::Recv:
        case RecEntry::Kind::Am:
          PODS_UNREACHABLE("multi-process record in a simulator recovery log");
      }
    }
    // Every frame that was live at the kill restarts from pc 0. Headers come
    // back from the global store: every distributed array broadcast its
    // header to all PEs, and an undistributed array homed here was installed
    // by this PE's own allocation (which the mint log replays identically).
    std::int64_t replayed = 0;
    for (std::uint32_t idx = 0; idx < P.frames.size(); ++idx) {
      if (P.frames[idx].state == FrameState::Dead) continue;
      P.frames[idx].replaying = true;
      P.readyQ.push_back(idx);
      ++replayed;
    }
    ctrs.add(Ctr::RecoveryReplayedFrames, replayed);
    for (const auto& [id, info] : store.all()) {
      if (info.distributed || info.homePe == static_cast<int>(pe))
        P.headers.emplace(id, 0);
    }
    for (Ev held : deadHeld) {
      // In-flight continuation tokens were acked before the kill, so this
      // held copy is the only one left. Delivering it now could land in a
      // multi-round (CLEARed) slot ahead of the round that consumes it and
      // be wiped; park it with the logged responses instead, so the trigger
      // re-delivers it in program order. Context tokens are one-shot per
      // (ctx, slot) and safe to deliver at any time.
      if (held.kind != EvKind::AmArrive && held.tok.toCont &&
          held.tok.sendKey != 0) {
        // A held copy into a frame that has since retired (or never came
        // back) was never going to be applied: parked entries are only
        // re-delivered into live re-sending frames. Dropping it here keeps
        // the dedup ledger consumer-keyed.
        const std::uint32_t cf = held.tok.cont.frame;
        if (cf >= P.frames.size() ||
            P.frames[cf].state == FrameState::Dead) {
          ctrs.add(Ctr::TokensDropped);
          continue;
        }
        if (P.dedup.firstCont(P.frames[cf].ctx, held.tok.senderCtx,
                              held.tok.sendKey)) {
          RecEntry e;
          e.kind = RecEntry::Kind::ConToken;
          e.frame = held.tok.cont.frame;
          e.slot = held.tok.cont.slot;
          e.v = held.tok.v;
          e.add = held.tok.add;
          e.senderCtx = held.tok.senderCtx;
          e.sendKey = held.tok.sendKey;
          P.pendingReplay[e.senderCtx].push_back(L.entries.size());
          L.entries.push_back(e);
        }
        continue;
      }
      held.t = t;
      held.kind = held.kind == EvKind::AmArrive ? EvKind::AmArrive
                                                : EvKind::TokenAtMu;
      push(std::move(held));
    }
    deadHeld.clear();
    // Survivors re-announce reads whose owner-side deferral died with `pe`.
    for (std::size_t from = 0; from < pes.size(); ++from) {
      if (from == pe) continue;
      for (const auto& [arr, offs] : pes[from].pendingRemote) {
        const ArrayInfo* info = store.find(arr);
        for (const auto& [offset, conts] : offs) {
          if (info->owner(offset) != static_cast<int>(pe)) continue;
          AmTask req;
          req.kind = AmTask::Kind::RemoteReadReq;
          req.arr = arr;
          req.offset = offset;
          req.fromPe = static_cast<std::uint16_t>(from);
          amToRemote(static_cast<std::uint16_t>(from), pe, t, req,
                     /*pageSized=*/false);
          ctrs.add(Ctr::RecoveryReRequestedReads);
        }
      }
    }
    pushKick(pe, t);
  }

  /// Frame reconstruction during restart: no stats/profile counting (these
  /// are the same instances that were already counted at first creation).
  std::uint32_t rebuildFrame(PeState& P, std::uint16_t spCode,
                             std::uint64_t ctx) {
    Frame f;
    f.spCode = spCode;
    f.ctx = ctx;
    f.slots.assign(prog.sp(spCode).numSlots, Value{});
    const std::uint32_t idx = static_cast<std::uint32_t>(P.frames.size());
    P.frames.push_back(std::move(f));
    P.match[ctx] = idx;
    liveChange(/*up=*/true);
    return idx;
  }

  /// On-demand re-delivery of logged responses: frame `frameIdx` (re-)sent a
  /// token to context `target`, so every logged continuation-addressed
  /// delivery *from* that context *into* this frame is due now. Entries
  /// addressed to other frames stay parked (e.g. array-read wakeups — their
  /// consumers refill by re-reading the surviving I-structure instead).
  void replayResponsesFor(std::uint16_t pe, std::uint64_t target,
                          std::uint32_t frameIdx) {
    PeState& P = pes[pe];
    auto it = P.pendingReplay.find(target);
    if (it == P.pendingReplay.end()) return;
    auto& idxs = it->second;
    for (std::size_t i = 0; i < idxs.size();) {
      const RecEntry& e = recLogs[pe].entries[idxs[i]];
      if (e.frame != frameIdx) {
        ++i;
        continue;
      }
      Frame& f = P.frames[frameIdx];
      PODS_CHECK_MSG(e.slot < f.slots.size(), "replayed slot out of range");
      if (e.add) {
        std::int64_t cur = f.slots[e.slot].empty() ? 0 : f.slots[e.slot].asInt();
        f.slots[e.slot] = Value::intv(cur + e.v.asInt());
      } else {
        f.slots[e.slot] = e.v;
      }
      ctrs.add(Ctr::RecoveryReplayedTokens);
      idxs.erase(idxs.begin() + static_cast<std::ptrdiff_t>(i));
    }
    if (idxs.empty()) P.pendingReplay.erase(it);
  }

  // --- main loop ------------------------------------------------------------

  RunStats run() {
    // Boot: instantiate main's frame on PE 0 with context 0.
    {
      PeState& P0 = pes[0];
      Frame f;
      f.spCode = prog.mainSp;
      f.ctx = 0;
      f.slots.assign(prog.sp(prog.mainSp).numSlots, Value{});
      P0.frames.push_back(std::move(f));
      P0.match[0] = 0;
      P0.readyQ.push_back(0);
      ctrs.add(Ctr::SpInstantiated);
      ++stats.spProfiles[prog.mainSp].instances;
      liveChange(/*up=*/true);
      pushKick(0, kTimeZero);
    }
    if (killMode()) {
      if (cfg.faults.killPe >= cfg.numPEs) {
        runtimeError("kill fault targets PE " +
                     std::to_string(cfg.faults.killPe) + " but only " +
                     std::to_string(cfg.numPEs) + " PEs exist");
        stats.ok = false;
        return finalize();
      }
      // The boot frame is not spawned by a token; log it so a kill of PE 0
      // can rebuild main.
      RecEntry boot;
      boot.kind = RecEntry::Kind::Boot;
      boot.spCode = prog.mainSp;
      boot.ctx = 0;
      recLogs[0].entries.push_back(boot);
      Ev kill;
      kill.kind = EvKind::PeKill;
      kill.pe = static_cast<std::uint16_t>(cfg.faults.killPe);
      kill.t = usec(cfg.faults.killTimeUs);
      push(std::move(kill));
      Ev restart;
      restart.kind = EvKind::PeRestart;
      restart.pe = static_cast<std::uint16_t>(cfg.faults.killPe);
      restart.t = usec(cfg.faults.killTimeUs + cfg.faults.killRestartUs);
      restartKey_ = push(std::move(restart));
    }
    while (!queueEmpty()) {
      if (calendar && kickIsNext()) {
        const Kick k = kicks.top();
        kicks.pop();
        ++eventsProcessed;
        const SimTime t{k.key.t};
        if (stopRequested(EvKind::EuKick, k.pe, t)) return finalize();
        now = t;
        actorPe = k.pe;
        actorT = t;
        // The staleOrHeld rule for a kick: one from a lost life is dropped.
        if (killMode() && lostLife(k.pe, k.inc)) {
          ctrs.add(Ctr::RecoveryDroppedEvents);
          ++staleKicks;
          continue;
        }
        euKick(k.pe, t);
        if (now > lastUseful) lastUseful = now;
        continue;
      }
      bool ghost = false;
      Ev ev = popEvent(&ghost);
      if (lookahead) {
        // Events pop in key order, so this one is its PE's earliest.
        auto& own = pendingAt[ev.pe];
        PODS_CHECK(!own.empty() && own.top() == ev.t.ns);
        own.pop();
      }
      // LinkTimer wakeups are calendar-engine plumbing: a due one is the
      // heap engine's NetTimeout event, counted and reported as such.
      if (ev.kind == EvKind::LinkTimer && !linkTimerDue(ev)) continue;
      ++eventsProcessed;
      if (stopRequested(ev.kind == EvKind::LinkTimer ? EvKind::NetTimeout : ev.kind,
                        ev.pe, ev.t))
        return finalize();
      now = ev.t;
      actorPe = ev.pe;
      actorT = ev.t;
      // Protocol bookkeeping (acks, retransmit timers, suppressed
      // duplicates) can trail past the last real work; `lastUseful` tracks
      // the completion time the program actually observed.
      bool useful = true;
      // A ghost is a kill-triaged event popping at its reserved key:
      // the drop/hold bookkeeping already happened at peKill, so the pop is
      // counted (above) but not dispatched — the same no-op the heap engine
      // performs when staleOrHeld swallows the event here.
      if (ghost) continue;
      if (killMode() && staleOrHeld(ev)) continue;
      switch (ev.kind) {
        case EvKind::EuKick:
          euKick(ev.pe, ev.t);
          break;
        case EvKind::TokenAtMu: {
          SimTime done = unitSched(ev.pe, Unit::MU, ev.t, tm.matchTime);
          ctrs.add(Ctr::TokensMatched);
          Ev del;
          del.t = done;
          del.kind = EvKind::TokenDeliver;
          del.pe = ev.pe;
          del.tok = std::move(ev.tok);
          push(std::move(del));
          break;
        }
        case EvKind::TokenDeliver:
          deliverToken(ev.pe, ev.t, ev.tok, /*fromMu=*/true);
          break;
        case EvKind::AmArrive:
          amHandle(ev.pe, ev.t, ev.am);
          break;
        case EvKind::SlotFill:
          deliverToken(ev.pe, ev.t, ev.tok, /*fromMu=*/false);
          break;
        case EvKind::NetDeliver:
          useful = netDeliver(ev);
          break;
        case EvKind::NetAckArrive: {
          sender.onAck(ev.msgId);
          retx.erase(ev.msgId);
          // Calendar engine: cancel the message's armed timer entry; it
          // still pops, as a no-op, at its reserved key.
          if (calendar) armedTimers.erase(ev.msgId);
          useful = false;
          break;
        }
        case EvKind::NetTimeout:
          fireTimeout(ev.msgId, ev.attempt, ev.t);
          useful = false;
          break;
        case EvKind::LinkTimer:
          linkTimerFire(ev);
          useful = false;
          break;
        case EvKind::PeKill:
          peKill(ev.pe, ev.t);
          useful = false;
          break;
        case EvKind::PeRestart:
          peRestart(ev.pe, ev.t);
          useful = false;
          break;
      }
      if (useful && now > lastUseful) lastUseful = now;
    }
    // Index hygiene: after a drained run every indexed entry was either
    // triaged at the kill or popped (and unlinked) normally.
    if (calendar && killTriaged_)
      PODS_CHECK_MSG(cq.indexedEmpty(),
                     "stale per-PE indexed events survived kill triage");
    stats.total = faulty() ? lastUseful : now;
    // EU time may extend past the last event.
    for (const PeState& P : pes) stats.total = std::max(stats.total, P.euFree);
    return finalize();
  }

  /// The per-event prologue, run on every pop after it is counted: the
  /// external abort flag, then the maxEvents safety valve. On a stop it
  /// writes the forensic report — which event tripped it, where, and what
  /// was still live — and returns true. stats.total is stamped from the
  /// tripping event itself (`now` still holds the previous event's time
  /// here), so the reported total and tripping time agree.
  bool stopRequested(EvKind kind, std::uint16_t pe, SimTime t) {
    if (cfg.abort != nullptr && cfg.abort->load(std::memory_order_relaxed)) {
      stats.error = "aborted: external stop requested (watchdog) after " +
                    std::to_string(eventsProcessed) +
                    " events at simulated t=" + std::to_string(t.us()) + "us";
    } else if (cfg.maxEvents && eventsProcessed > cfg.maxEvents) {
      int alive = 0;
      const std::string sample = liveSpSample(alive);
      stats.error =
          "event budget exhausted (possible livelock): event " +
          std::to_string(eventsProcessed) + " exceeds maxEvents=" +
          std::to_string(cfg.maxEvents) + "; tripping event was " +
          evKindName(kind) + " on PE " + std::to_string(pe) +
          " at simulated t=" + std::to_string(t.us()) + "us; " +
          std::to_string(alive) + " SPs live;" + sample;
    } else {
      return false;
    }
    stats.ok = false;
    stats.total = t;
    return true;
  }

  /// Samples live (non-Dead) frames for diagnostics: "[pe0 conduction pc=3
  /// blocked on row]" entries, capped at ~200 chars. Sets `alive` to the
  /// full count. Shared by the deadlock, event-budget, and abort reports.
  std::string liveSpSample(int& alive) const {
    alive = 0;
    std::string sample;
    for (std::size_t pe = 0; pe < pes.size(); ++pe) {
      for (const Frame& f : pes[pe].frames) {
        if (f.state != FrameState::Dead) {
          ++alive;
          if (sample.size() < 200) {
            sample += " [pe" + std::to_string(pe) + " " +
                      prog.sp(f.spCode).name + " pc=" + std::to_string(f.pc) +
                      (f.state == FrameState::Blocked
                           ? " blocked on " +
                                 prog.sp(f.spCode).slotName(f.blockedSlot)
                           : "") +
                      "]";
          }
        }
      }
    }
    return sample;
  }

  RunStats finalize() {
    for (std::size_t pe = 0; pe < pes.size(); ++pe) {
      stats.busy[pe] = pes[pe].unitBusy;
    }
    stats.counters.add("events", static_cast<std::int64_t>(eventsProcessed));
    stats.counters.add("sp.peakLive", peakLive());
    // Counter parity with native.instructions, summed here so the hot path
    // pays nothing beyond the per-SP profile it already keeps.
    std::int64_t instructions = 0;
    for (const SpProfile& p : stats.spProfiles) instructions += p.instructions;
    stats.counters.add("sim.instructions", instructions);
    stats.events = eventsProcessed;
    // Event-engine health gauges. Deterministic (derived from the event
    // stream alone), but engine-specific: the bit-identity suites compare
    // counter maps with the sim.eventq.* prefix stripped.
    if (calendar) {
      const EventQStats& eq = cq.stats();
      stats.counters.add("sim.eventq.peakDepth", eq.peakDepth);
      stats.counters.add("sim.eventq.peakBucket", eq.peakBucket);
      stats.counters.add("sim.eventq.pours", eq.pours);
      stats.counters.add("sim.eventq.widthDoublings", eq.widthDoublings);
      stats.counters.add("sim.eventq.ghostPops", eq.ghostPops);
      stats.counters.add("sim.eventq.indexTaken", eq.indexTaken);
      stats.counters.add("sim.eventq.pushedNear", eq.pushedNear);
      stats.counters.add("sim.eventq.pushedRing", eq.pushedRing);
      stats.counters.add("sim.eventq.pushedOverflow", eq.pushedOverflow);
      stats.counters.add("sim.eventq.bucketWidthNs", cq.bucketWidthNs());
      stats.counters.add("sim.eventq.staleKicks", staleKicks);
    } else {
      stats.counters.add("sim.eventq.peakDepth", heapPeak);
    }
    if (faulty()) {
      // Protocol counters accumulate inside the delivery endpoints; roll
      // them (plus canonical zero registrations, so every faulty run
      // reports the same counter-name set) into the run's registry.
      sender.addStats(stats.counters);
      for (const PeState& P : pes) P.rx.addStats(stats.counters);
      proto::Delivery::registerInjectionCounters(stats.counters);
    }
    if (killMode()) {
      // Recovery-ledger residency after END-pruning: bounded by the number
      // of *live* instances, not the length of the run (see recovery.hpp).
      std::int64_t liveKeys = 0, liveMints = 0;
      for (const PeState& P : pes) liveKeys += P.dedup.liveKeys();
      for (const RecoveryLog& L : recLogs)
        for (const auto& [ctx, m] : L.mints) liveMints += static_cast<std::int64_t>(m.size());
      stats.counters.add("recovery.dedup.liveKeys", liveKeys);
      stats.counters.add("recovery.mints.live", liveMints);
    }
    if (tracing) {
      // A run cut short leaves slices open; close them where their EU stood.
      for (std::size_t pe = 0; pe < pes.size(); ++pe)
        endSlice(static_cast<std::uint16_t>(pe), pes[pe].euFree);
      writeTrace();
    }
    ctrs.emitTo(stats.counters);  // after writeTrace, which may count an error
    // Diagnose incomplete executions.
    if (stats.error.empty()) {
      int alive = 0;
      const std::string sample = liveSpSample(alive);
      if (alive > 0) {
        stats.error = "deadlock: " + std::to_string(alive) +
                      " SPs never completed;" + sample;
      } else {
        for (std::size_t r = 0; r < resultSet.size(); ++r) {
          if (!resultSet[r]) {
            stats.error = "program result " + std::to_string(r) + " never set";
            break;
          }
        }
      }
    }
    stats.ok = stats.error.empty();
    return stats;
  }
};

Machine::Machine(const SpProgram& prog, MachineConfig cfg)
    : impl_(std::make_unique<Impl>(prog, cfg)) {}

Machine::~Machine() = default;

RunStats Machine::run() {
  const auto t0 = std::chrono::steady_clock::now();
  RunStats s = impl_->run();
  s.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return s;
}

const ArrayStore& Machine::arrays() const { return impl_->store; }

}  // namespace pods::sim

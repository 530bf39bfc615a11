#include "native/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>

#include "proto/delivery.hpp"
#include "support/check.hpp"

namespace pods::native {

namespace {

using Clock = std::chrono::steady_clock;

Clock::duration micros(double us) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::micro>(us));
}

void put16(std::uint8_t* p, std::uint16_t v) { std::memcpy(p, &v, 2); }
void put64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
std::uint16_t get16(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
std::uint64_t get64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Datagram type bytes (first byte of every UDP packet). Only two exist: a
// batch of token records and a cumulative ack. Both carry an incarnation
// (epoch) byte, so a respawned sender's renumbered stream is never confused
// with its predecessor's; in-process every epoch is 0. Every other first
// byte — including the bare token record, whose leading byte is
// kRecordTag — is rejected and counted as a bad datagram.
constexpr std::uint8_t kTypeBatch = 6;
constexpr std::uint8_t kTypeCumAck = 7;

// First byte of every 65-byte token record inside a batch.
constexpr std::uint8_t kRecordTag = 1;

// Cumulative ack: type + ackerPe u16 + cumSeq u64 + bitmap u64 + epoch u8.
// The epoch is the *acked stream's sender's* incarnation as known by the
// acker — a reborn sender must drop acks for its predecessor's stream,
// whose seq numbers would otherwise wrongly retire the fresh renumbered
// ones.
constexpr std::size_t kCumAckWireBytes = 20;

/// Batch header: type + srcPe u16 + count u16 + epoch u8.
void putBatchHeader(std::uint8_t* out, std::uint16_t srcPe, int count,
                    std::uint8_t epoch) {
  out[0] = kTypeBatch;
  put16(out + 1, srcPe);
  put16(out + 3, static_cast<std::uint16_t>(count));
  out[5] = epoch;
}

std::size_t batchBytes(int count) {
  return kBatchHeaderBytes + static_cast<std::size_t>(count) * kTokenWireBytes;
}

// Outbox flush deadline: how long a partially-filled batch may sit before
// the timer thread ships it. The sending worker's loop flushes far more
// often than this; the deadline only covers a worker stuck in a long slice.
constexpr double kFlushDeadlineUs = 50.0;

// Lazy-ack threshold: a receiver answers partial batches and healed
// duplicates immediately, but lets full-batch streams run this many tokens
// between cumulative acks (see onBatch).
constexpr std::int64_t kAckLazyTokens = 64;

/// Per-(src,dst) link counters. Written from worker, receiver, and timer
/// threads; plain atomics, rolled into the Counters map after the run.
struct LinkStat {
  std::atomic<std::int64_t> tokens{0};     // logical tokens first sent
  std::atomic<std::int64_t> datagrams{0};  // wire transmissions (UDP)
  std::atomic<std::int64_t> bytes{0};      // wire bytes (UDP)
  std::atomic<std::int64_t> retx{0};       // retransmissions
};

void addLinkStats(Counters& out, const std::vector<LinkStat>& links,
                  int numPes) {
  for (int f = 0; f < numPes; ++f) {
    for (int t = 0; t < numPes; ++t) {
      const LinkStat& l = links[static_cast<std::size_t>(f * numPes + t)];
      if (const auto v = l.tokens.load())
        out.add(proto::linkCounterName(f, t, "tokens"), v);
      if (const auto v = l.datagrams.load())
        out.add(proto::linkCounterName(f, t, "datagrams"), v);
      if (const auto v = l.bytes.load())
        out.add(proto::linkCounterName(f, t, "bytes"), v);
      if (const auto v = l.retx.load())
        out.add(proto::linkCounterName(f, t, "retx"), v);
    }
  }
}

// ---------------------------------------------------------------------------
// InboxTransport: the original in-process path, verbatim. Without fault
// injection a send is a direct deposit; with it, every send rolls the
// seeded dice and dropped/delayed tokens are re-driven by a wall-clock
// retransmit daemon with exponential backoff.
// ---------------------------------------------------------------------------

class InboxTransport final : public Transport {
 public:
  InboxTransport(TransportSink& sink, const FaultPlan& plan, int numPes)
      : sink_(sink),
        plan_(plan),
        numPes_(numPes),
        links_(plan.enabled()
                   ? static_cast<std::size_t>(numPes) * numPes
                   : 0),
        sender_(plan.config().retry, /*faultsEnabled=*/true) {}

  ~InboxTransport() override { stop(); }

  const char* name() const override { return "inbox"; }

  bool start(std::string*) override {
    if (plan_.enabled() && !retxThread_.joinable()) {
      retxThread_ = std::thread([this] { retxMain(); });
    }
    return true;
  }

  void send(int fromPe, int toPe, NToken tok) override {
    if (!plan_.enabled()) {
      sink_.deposit(toPe, fromPe, std::move(tok));
      return;
    }
    if (tok.msgId == 0) tok.msgId = netSeq_.fetch_add(1) + 1;
    link(fromPe, toPe).tokens.fetch_add(1);
    {
      std::lock_guard<std::mutex> g(senderM_);
      sender_.onSend(tok.msgId);
    }
    transmit(fromPe, toPe, std::move(tok), /*lane=*/fromPe);
  }

  void stop() override {
    if (!retxThread_.joinable()) return;
    {
      std::lock_guard<std::mutex> g(retxM_);
      retxStop_ = true;
    }
    retxCv_.notify_all();
    retxThread_.join();
  }

  void addStats(Counters& out) const override {
    if (!plan_.enabled()) return;
    out.add(proto::kFaultDrops, faultDrops_.load());
    out.add(proto::kFaultDups, faultDups_.load());
    out.add(proto::kFaultDelays, faultDelays_.load());
    {
      std::lock_guard<std::mutex> g(senderM_);
      sender_.addStats(out);
    }
    addLinkStats(out, links_, numPes_);
  }

 private:
  /// A token parked in the retransmit daemon: either a dropped message
  /// waiting for its backoff to expire (`redecide` — the resend rolls fresh
  /// fault dice) or a delayed one waiting out its injected latency
  /// (delivered as-is).
  struct RetxItem {
    Clock::time_point due;
    int fromPe = 0;
    int toPe = 0;
    bool redecide = true;
    NToken tok;
  };
  struct RetxLater {
    bool operator()(const RetxItem& a, const RetxItem& b) const {
      return a.due > b.due;  // min-heap on due time
    }
  };

  LinkStat& link(int fromPe, int toPe) {
    return links_[static_cast<std::size_t>(fromPe * numPes_ + toPe)];
  }

  /// The inbox path has no ack round-trip, so a settled token (anything but
  /// a drop) is reported to the protocol core as acknowledged — the drop
  /// branch then drives retransmit/give-up entirely through the core.
  void settle(std::uint64_t msgId) {
    std::lock_guard<std::mutex> g(senderM_);
    sender_.onAck(msgId);
  }

  /// One transmission attempt: rolls the seeded dice, then delivers,
  /// duplicates, or hands the token to the retransmit daemon. The token's
  /// quiescence charges ride along untouched. `lane` identifies the calling
  /// thread for the destination's SPSC inbox rings (worker PE id, or
  /// numPes_ from the retransmit daemon).
  void transmit(int fromPe, int toPe, NToken tok, int lane) {
    switch (plan_.action(netSeq_.fetch_add(1) + 1)) {
      case FaultAction::Drop: {
        faultDrops_.fetch_add(1);
        proto::TimeoutDecision d;
        {
          std::lock_guard<std::mutex> g(senderM_);
          d = sender_.onTimeout(tok.msgId);
        }
        if (d.kind == proto::TimeoutDecision::Kind::GiveUp) {
          sink_.transportFail("reliable delivery gave up on a token to "
                              "worker " +
                              std::to_string(toPe) + " after " +
                              std::to_string(d.attempt) + " attempts");
          return;
        }
        scheduleRetx(fromPe, toPe, std::move(tok), d.backoffUs,
                     /*redecide=*/true);
        break;
      }
      case FaultAction::Duplicate: {
        faultDups_.fetch_add(1);
        settle(tok.msgId);
        NToken copy = tok;
        sink_.deposit(toPe, lane, std::move(tok));
        // The duplicate is a real extra message: it carries its own
        // quiescence charges, consumed when the receiver dedups it.
        sink_.chargeDuplicate();
        sink_.deposit(toPe, lane, std::move(copy));
        break;
      }
      case FaultAction::Delay:
        faultDelays_.fetch_add(1);
        settle(tok.msgId);
        scheduleRetx(fromPe, toPe, std::move(tok),
                     plan_.config().nativeDelayUs, /*redecide=*/false);
        break;
      case FaultAction::Deliver:
        settle(tok.msgId);
        sink_.deposit(toPe, lane, std::move(tok));
        break;
    }
  }

  void scheduleRetx(int fromPe, int toPe, NToken tok, double delayUs,
                    bool redecide) {
    RetxItem item;
    item.due = Clock::now() + micros(delayUs);
    item.fromPe = fromPe;
    item.toPe = toPe;
    item.redecide = redecide;
    item.tok = std::move(tok);
    {
      std::lock_guard<std::mutex> g(retxM_);
      retxQ_.push(std::move(item));
    }
    retxCv_.notify_one();
  }

  /// The retransmit daemon: sleeps until the earliest due token, then
  /// re-drives it — a delayed token is delivered as-is; a dropped one counts
  /// as a resend and rolls fresh dice (it may be dropped again, backing off
  /// exponentially up to maxAttempts). Exits only when stop() raises
  /// `retxStop_` after the workers have joined; parked tokens hold pending
  /// and inboxTokens charges, so the program cannot terminate or declare
  /// deadlock while anything is still in here.
  void retxMain() {
    std::unique_lock<std::mutex> g(retxM_);
    while (!retxStop_) {
      if (retxQ_.empty()) {
        retxCv_.wait(g, [&] { return retxStop_ || !retxQ_.empty(); });
        continue;
      }
      const auto due = retxQ_.top().due;
      // Also wake when a newly parked token is due *earlier* than the one
      // we went to sleep on, so a short-backoff retransmit is never stuck
      // behind a long-backoff wait.
      if (retxCv_.wait_until(
              g, due, [&] { return retxStop_ || retxQ_.top().due < due; })) {
        if (retxStop_) break;
        continue;
      }
      while (!retxQ_.empty() && retxQ_.top().due <= Clock::now()) {
        RetxItem item = retxQ_.top();
        retxQ_.pop();
        g.unlock();
        if (item.redecide) {
          link(item.fromPe, item.toPe).retx.fetch_add(1);
          transmit(item.fromPe, item.toPe, std::move(item.tok),
                   /*lane=*/numPes_);
        } else {
          sink_.deposit(item.toPe, numPes_, std::move(item.tok));
        }
        g.lock();
      }
    }
  }

  TransportSink& sink_;
  FaultPlan plan_;
  const int numPes_;
  std::vector<LinkStat> links_;
  std::atomic<std::uint64_t> netSeq_{0};
  std::atomic<std::int64_t> faultDrops_{0};
  std::atomic<std::int64_t> faultDups_{0};
  std::atomic<std::int64_t> faultDelays_{0};
  /// Sender half of the delivery protocol core (backoff schedule, give-up,
  /// resend accounting). Shared by worker threads and the retransmit daemon.
  mutable std::mutex senderM_;
  proto::Delivery sender_;
  std::mutex retxM_;
  std::condition_variable retxCv_;
  std::priority_queue<RetxItem, std::vector<RetxItem>, RetxLater> retxQ_;
  bool retxStop_ = false;  // guarded by retxM_; set only after workers join
  std::thread retxThread_;
};

// ---------------------------------------------------------------------------
// UdpTransport: the one UDP link driver behind both --transport=udp and
// --transport=udp-multiproc. Every PE owns one UDP socket on 127.0.0.1 and
// tokens travel as batched, epoch-stamped datagrams with cumulative
// acknowledgment. The two modes differ only in which PEs are local:
//
//   udp            every PE is local: start() binds N ephemeral sockets,
//                  every epoch is 0, and there is no WorkerLink.
//   udp-multiproc  a worker process drives its one PE on the socket the
//                  supervisor bound and handed down. The supervisor keeps
//                  its own fd copy, so the port binding and any datagrams
//                  buffered in the kernel survive a kill -9 of the worker —
//                  the paper's "NIC outlives the PE". Peers are addressed by
//                  the Boot message's port table, outbound datagrams carry
//                  the worker's boot epoch, and its WorkerLink gates output
//                  commit.
//
// Sends coalesce per (src,dst) link: each link keeps a small outbox that
// accumulates 65-byte token records and ships them as one MTU-sized batch
// datagram when full (kBatchMaxTokens), when the sending worker's loop
// calls flush(), or when the 50 µs deadline timer fires.
//
// UDP gives no delivery guarantee even on loopback (a full SO_RCVBUF drops
// packets silently), so the reliable-delivery protocol ALWAYS runs:
//
//   sender    numbers each link's tokens with a dense 1-based sequence
//             (packed into the msgId, see proto::Delivery::packLinkMsgId),
//             keeps every unacked record's wire image per link, and
//             retransmits with exponential backoff until acknowledged
//             (giving up — failing the run — after maxAttempts). A
//             retransmitted record rides the link's next batch with its
//             ORIGINAL msgId (never re-registered, so quiescence is never
//             double-charged) alongside fresh tokens;
//   receiver  answers token-carrying datagrams with cumulative acks —
//             highest contiguously received seq plus a selective bitmap
//             for seqs above it — re-acking duplicates so a lost ack
//             self-heals, and suppresses duplicates by link sequence
//             before they reach the inbox;
//   acks      are themselves datagrams and may be lost; injected faults
//             roll dice on acks too (lossy-ack model, as in the simulator).
//
// Epochs: a respawned worker boots with epoch+1 and renumbers all of its
// links from seq 1. A receiver resets a link's window the first time it
// sees a higher epoch from a source and drops batches from older ones (the
// logical dedup ledgers absorb the replayed payloads); a sender drops acks
// stamped with another epoch than its own. At epoch 0 every check passes.
//
// Ack policy, chosen by whether a WorkerLink is present:
//
//   no link     ack on receipt. A partial batch ends a burst and a
//               duplicate means the sender is already retransmitting — both
//               ack immediately; a stream of full batches acks every
//               kAckLazyTokens tokens.
//   WorkerLink  output commit. A token is acked only once it was drained
//               AND its Recv record is stable at the supervisor
//               (noteDrained -> pumpAcks): an acked-but-unlogged token would
//               never be retransmitted and would vanish with the next kill.
//               An outbox is flushed only once the log records that
//               preceded its sends are stable (gateSeq): the NEWCTX/ALLOC
//               mints behind a send are not replay-stable until logged. A
//               duplicate re-acks the stable window at once.
//
// Fault injection composes at the datagram level: each transmission of a
// batch (first flush and every retransmit flush) rolls the seeded FaultPlan
// dice — Drop suppresses the sendto for the whole batch (the backoff timers
// recover each token), Duplicate sends the wire image twice, Delay parks
// the image in the timer. A worker's plan arrives with drop/dup/delay
// zeroed: in multi-process mode the supervisor injects faults by killing
// whole processes.
//
// Threads: one receiver thread polls every local socket — the "NIC", which
// a kill-mode fail-stop deliberately does NOT destroy — plus an eventfd
// that stop() raises; one timer thread drives retransmit batches, flush
// deadlines, and delayed sends. Backoff, give-up, sequence windows, and
// dedup decisions live in proto::Delivery: one sender endpoint under m_,
// and one receiver endpoint per local PE touched only by the receiver
// thread (the endpoint models the NIC and deliberately survives a
// kill-mode fail-stop of the PE).
//
// Lock order: lk.m (a link's outbox) and m_ (sender window + timer heap)
// are NEVER held together — every path releases one before taking the
// other, so the send path stays two short critical sections.
// ---------------------------------------------------------------------------

class UdpTransport final : public Transport {
 public:
  /// `sockFd < 0`: in-process, every PE is local and start() binds the
  /// sockets. Otherwise only `localPe` is local, on the inherited `sockFd`,
  /// and `peerPorts` addresses every PE.
  UdpTransport(TransportSink& sink, const FaultPlan& plan, int numPes,
               int localPe, std::uint8_t epoch, int sockFd,
               const std::vector<std::uint16_t>& peerPorts, WorkerLink* link)
      : sink_(sink),
        plan_(plan),
        numPes_(numPes),
        lo_(sockFd < 0 ? 0 : localPe),
        nLocal_(sockFd < 0 ? numPes : 1),
        epoch_(epoch),
        inheritedFd_(sockFd),
        link_(link),
        links_(static_cast<std::size_t>(numPes) * numPes),
        // Fault tests tune retry.rtoUs down to recover injected drops
        // quickly; honor it then. Fault-free, datagram loss is rare (large
        // SO_RCVBUF) and a sub-millisecond RTO just races thread scheduling
        // on the ack path, so the policy floors it — spurious retransmits
        // are harmless (receiver dedup) but wasteful.
        sender_(plan.config().retry, plan.enabled()),
        rx_(static_cast<std::size_t>(nLocal_),
            proto::Delivery(plan.config().retry, plan.enabled())),
        knownEpoch_(static_cast<std::size_t>(nLocal_) * numPes, 0),
        addrs_(static_cast<std::size_t>(numPes), sockaddr_in{}),
        outSlots_(new std::atomic<LinkOut*>[static_cast<std::size_t>(numPes) *
                                            numPes]),
        dirtySrc_(new std::atomic<int>[static_cast<std::size_t>(numPes)]) {
    for (std::size_t i = 0; i < static_cast<std::size_t>(numPes) * numPes; ++i)
      outSlots_[i].store(nullptr, std::memory_order_relaxed);
    for (int i = 0; i < numPes; ++i)
      dirtySrc_[i].store(0, std::memory_order_relaxed);
    for (std::size_t pe = 0; pe < peerPorts.size(); ++pe)
      addrs_[pe] = loopback(peerPorts[pe]);
    if (link_) {
      for (int pe = 0; pe < numPes; ++pe)
        acks_.push_back(std::make_unique<AckState>());
    }
  }

  ~UdpTransport() override {
    stop();
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(numPes_) * numPes_; ++i)
      delete outSlots_[i].load(std::memory_order_relaxed);
  }

  const char* name() const override {
    return inheritedFd_ < 0 ? "udp" : "udp-multiproc";
  }

  bool start(std::string* err) override {
    wakeFd_ = ::eventfd(0, EFD_CLOEXEC);
    if (wakeFd_ < 0) return startFailed(err, "eventfd()");
    if (inheritedFd_ >= 0) {
      fds_.assign(1, inheritedFd_);
    } else {
      for (int pe = 0; pe < numPes_; ++pe) {
        const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
        if (fd < 0) return startFailed(err, "socket()");
        fds_.push_back(fd);
        // Ephemeral port: each PE learns its address from the bind.
        sockaddr_in sa = loopback(0);
        socklen_t len = sizeof(sockaddr_in);
        if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0)
          return startFailed(err, "bind()");
        if (::getsockname(fd,
                          reinterpret_cast<sockaddr*>(
                              &addrs_[static_cast<std::size_t>(pe)]),
                          &len) != 0)
          return startFailed(err, "getsockname()");
      }
    }
    // Large receive buffer: loopback "packet loss" is exactly a full
    // receive queue, and every drop costs a backoff-delayed retransmit.
    const int rcvbuf = 4 << 20;
    for (const int fd : fds_)
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    rxThread_ = std::thread([this] { recvMain(); });
    timerThread_ = std::thread([this] { timerMain(); });
    return true;
  }

  /// Parks the token in the (fromPe,toPe) outbox; ships when the batch
  /// fills, when the worker's loop flushes, or at the deadline. The token's
  /// quiescence charge was made at enqueue and keeps it visible while it
  /// coalesces here.
  void send(int fromPe, int toPe, NToken tok) override {
    PODS_CHECK_MSG(isLocal(fromPe), "udp transport: send from a remote PE");
    LinkOut& lk = linkOut(fromPe, toPe);
    link(fromPe, toPe).tokens.fetch_add(1);
    tokensSent_.fetch_add(1);
    bool wrote = false;
    bool full = false;
    bool first = false;
    while (!wrote) {
      {
        std::lock_guard<std::mutex> g(lk.m);
        // The timer thread can leave the outbox exactly full: its
        // retransmit requeue appends up to the cap under lk.m and flushes
        // only after dropping it (and a gated outbox stays full until the
        // log catches up). Writing a record here in that window would run
        // past buf, so flush the full outbox ourselves and retry.
        if (lk.count < kBatchMaxTokens) {
          const std::uint64_t seq = ++lk.nextSeq;
          tok.msgId = proto::Delivery::packLinkMsgId(fromPe, toPe, seq);
          std::uint8_t* rec =
              lk.buf + kBatchHeaderBytes +
              static_cast<std::size_t>(lk.count) * kTokenWireBytes;
          wireEncodeToken(tok, static_cast<std::uint16_t>(fromPe), rec);
          std::memcpy(lk.unackedWire[seq].data(), rec, kTokenWireBytes);
          // Output commit: everything this token's payload may depend on
          // (mints, received tokens) is in the log stream by now — the
          // batch must not hit the wire before that prefix is stable.
          if (link_) lk.gateSeq = link_->logAppended();
          if (lk.count == 0) {
            first = true;
            dirtySrc_[fromPe].fetch_add(1, std::memory_order_release);
          }
          if (lk.freshCount == 0) lk.firstFreshSeq = seq;
          ++lk.count;
          ++lk.freshCount;
          full = lk.count == kBatchMaxTokens;
          wrote = true;
        }
      }
      if (!wrote) flushLink(fromPe, toPe, FlushWhy::Full);
    }
    if (full)
      flushLink(fromPe, toPe, FlushWhy::Full);
    else if (first)
      pushLinkTimer(TimerEv::Kind::Flush,
                    Clock::now() + micros(kFlushDeadlineUs), fromPe, toPe);
  }

  /// Ships everything coalescing in fromPe's outboxes. Called by the
  /// sending worker at the top of its scheduling loop; the dirty count
  /// makes the common (nothing pending) case one atomic load.
  void flush(int fromPe) override {
    if (dirtySrc_[fromPe].load(std::memory_order_acquire) == 0) return;
    for (int to = 0; to < numPes_; ++to) {
      if (to == fromPe) continue;
      if (linkOutIfExists(fromPe, to)) flushLink(fromPe, to, FlushWhy::Drain);
    }
  }

  void stop() override {
    if (!rxThread_.joinable()) return;
    {
      std::lock_guard<std::mutex> g(m_);
      timerStop_ = true;
    }
    timerCv_.notify_all();
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wakeFd_, &one, sizeof one);
    rxThread_.join();
    timerThread_.join();
    closeSockets();
  }

  void addStats(Counters& out) const override {
    out.add("net.udp.tokensSent", tokensSent_.load());
    out.add("net.udp.datagramsSent", datagramsSent_.load());
    out.add("net.udp.bytesSent", bytesSent_.load());
    out.add("net.udp.datagramsRecv", datagramsRecv_.load());
    out.add("net.udp.bytesRecv", bytesRecv_.load());
    out.add("net.udp.acksSent", acksSent_.load());
    out.add("net.udp.acksRecv", acksRecv_.load());
    out.add("net.udp.sendErrors", sendErrors_.load());
    out.add("net.udp.badDatagrams", badDatagrams_.load());
    out.add("net.udp.staleEpoch", staleEpoch_.load());
    out.add("net.udp.staleAcks", staleAcks_.load());
    out.add("net.udp.gatedFlushes", gatedFlushes_.load());
    const std::int64_t bd = batchDgrams_.load();
    const std::int64_t bt = batchTokens_.load();
    out.add("net.udp.batch.datagrams", bd);
    out.add("net.udp.batch.tokens", bt);
    out.add("net.udp.batch.tokensPerDgram", bd > 0 ? bt / bd : 0);
    out.add("net.udp.batch.flushFull", flushFull_.load());
    out.add("net.udp.batch.flushDeadline", flushDeadline_.load());
    out.add("net.udp.batch.flushDrain", flushDrain_.load());
    out.add("net.udp.batch.flushRetx", flushRetx_.load());
    {
      std::lock_guard<std::mutex> g(m_);
      sender_.addStats(out);
    }
    // The receiver thread is joined by stop() before stats are read.
    for (const proto::Delivery& rx : rx_) rx.addStats(out);
    if (plan_.enabled()) {
      out.add(proto::kFaultDrops, faultDrops_.load());
      out.add(proto::kFaultDups, faultDups_.load());
      out.add(proto::kFaultDelays, faultDelays_.load());
    }
    addLinkStats(out, links_, numPes_);
  }

  // ---- Worker-process hooks: called only with a WorkerLink, whose driver
  // has exactly one local PE (lo_). ---------------------------------------

  void noteDrained(std::uint64_t msgId, std::uint8_t epoch,
                   std::uint64_t logSeq) override {
    if (!link_ || msgId == 0) return;  // msgId 0: local delivery, no ack
    const int src = static_cast<int>(msgId >> 56) & 0xFF;
    AckState& ack = *acks_[static_cast<std::size_t>(src)];
    std::lock_guard<std::mutex> g(ack.m);
    // A token from a dead incarnation needs no ack — its sender is gone and
    // the reborn one re-sends under the new epoch.
    if (epoch != ack.epoch) return;
    ack.pend.push_back({proto::Delivery::linkMsgIdSeq(msgId), logSeq});
    ack.due.store(true, std::memory_order_release);
  }

  void pumpAcks() override {
    if (!link_) return;
    const std::uint64_t stable = link_->logStable();
    for (int src = 0; src < numPes_; ++src) {
      if (src == lo_) continue;
      AckState& ack = *acks_[static_cast<std::size_t>(src)];
      if (!ack.due.load(std::memory_order_acquire)) continue;
      proto::Delivery::CumAckView view;
      std::uint8_t epoch = 0;
      bool moved = false;
      {
        std::lock_guard<std::mutex> g(ack.m);
        while (!ack.pend.empty() && ack.pend.front().logSeq <= stable) {
          ack.win.acceptSeq(src, lo_, ack.pend.front().seq);
          ack.pend.pop_front();
          moved = true;
        }
        if (ack.pend.empty()) ack.due.store(false, std::memory_order_release);
        if (moved) {
          view = ack.win.cumAckView(src, lo_);
          epoch = ack.epoch;
        }
      }
      if (moved) sendCumAck(lo_, src, view, epoch);
    }
  }

  void onStableAdvance() override {
    flush(lo_);
    pumpAcks();
  }

  std::int64_t outstanding() const override {
    std::int64_t n = 0;
    for (int to = 0; to < numPes_; ++to) {
      if (LinkOut* lk = linkOutIfExists(lo_, to)) {
        std::lock_guard<std::mutex> g(lk->m);
        n += lk->count;
      }
    }
    {
      std::lock_guard<std::mutex> g(m_);
      n += static_cast<std::int64_t>(sender_.windowSize());
    }
    return n;
  }

  void primeRecv(std::uint64_t msgId, std::uint8_t epoch) override {
    if (!link_) return;
    // Pre-start rebuild (no threads yet). The log replays in receive order,
    // so per-source epochs are non-decreasing: only the newest incarnation's
    // stream is rebuilt — older streams died with their senders.
    const int src = static_cast<int>(msgId >> 56) & 0xFF;
    AckState& ack = *acks_[static_cast<std::size_t>(src)];
    std::uint8_t& known = knownEpoch(lo_, src);
    if (epoch < known) return;
    if (epoch > known) {
      known = epoch;
      rx_[0].resetRecvLink(src, lo_);
      ack.win = proto::Delivery();
      ack.epoch = epoch;
    }
    const std::uint64_t seq = proto::Delivery::linkMsgIdSeq(msgId);
    rx_[0].acceptSeq(src, lo_, seq);
    ack.win.acceptSeq(src, lo_, seq);
  }

  void barrierSnapshot(std::vector<std::uint64_t>& out) override {
    out.assign(static_cast<std::size_t>(numPes_), 0);
    for (int to = 0; to < numPes_; ++to) {
      if (LinkOut* lk = linkOutIfExists(lo_, to)) {
        std::lock_guard<std::mutex> g(lk->m);
        out[static_cast<std::size_t>(to)] = lk->nextSeq;
      }
    }
  }

  bool barrierPassed(const std::vector<std::uint64_t>& snap) override {
    for (int to = 0; to < numPes_; ++to) {
      const std::uint64_t upTo = snap[static_cast<std::size_t>(to)];
      if (upTo == 0) continue;
      {
        std::lock_guard<std::mutex> g(m_);
        const std::uint64_t low = sender_.lowestUnackedSeq(lo_, to);
        if (low != 0 && low <= upTo) return false;
      }
      // Tokens still coalescing (or gate-parked) in the outbox are not in
      // the sender window yet — lowestUnackedSeq alone would pass early.
      // (A nonzero snapshot means the link has sent, so its outbox exists.)
      LinkOut& lk = *linkOutIfExists(lo_, to);
      std::lock_guard<std::mutex> g(lk.m);
      if (lk.freshCount > 0 && lk.firstFreshSeq <= upTo) return false;
    }
    return true;
  }

 private:
  /// One (src,dst) link's sender state: the coalescing outbox (header
  /// space + up to kBatchMaxTokens records) and the wire image of every
  /// unacked record, keyed by link seq, for retransmission. Single fresh
  /// producer (worker src); the timer thread appends retransmits and the
  /// receiver thread erases acked images — all under m.
  struct LinkOut {
    std::mutex m;
    std::uint8_t buf[kBatchMaxBytes];
    int count = 0;       // records currently in buf
    int freshCount = 0;  // suffix of count that is first-send (not retx)
    std::uint64_t firstFreshSeq = 0;
    std::uint64_t nextSeq = 0;  // last assigned link sequence
    /// Output-commit gate: log stream position that must be stable before
    /// this outbox may hit the wire (high-water over its parked tokens).
    /// Stays 0 without a WorkerLink.
    std::uint64_t gateSeq = 0;
    std::unordered_map<std::uint64_t,
                       std::array<std::uint8_t, kTokenWireBytes>>
        unackedWire;
    /// Retransmit schedule: (deadline, seq) min-heap, consumed lazily (an
    /// acked seq is skipped when its deadline fires). The whole link keeps
    /// at most ~one live Retx timer event — `retxArmed`/`armedDue` dedup
    /// the arming — so the timer heap scales with links, not with batches.
    std::priority_queue<
        std::pair<Clock::time_point, std::uint64_t>,
        std::vector<std::pair<Clock::time_point, std::uint64_t>>,
        std::greater<std::pair<Clock::time_point, std::uint64_t>>>
        retxQ;
    bool retxArmed = false;
    Clock::time_point armedDue{};
  };

  /// Ack gating state for one source PE (WorkerLink only). The receiver
  /// thread deposits and wire-dedups but never acks fresh tokens; the
  /// worker thread reports each drain (with its Recv record's stream
  /// position) and pumpAcks() moves entries into the ackable window `win`
  /// once the supervisor has made their records stable.
  struct AckState {
    std::mutex m;
    struct Pend {
      std::uint64_t seq;
      std::uint64_t logSeq;
    };
    std::deque<Pend> pend;
    proto::Delivery win;      // ackable window: stable-logged seqs only
    std::uint8_t epoch = 0;   // sender incarnation the window belongs to
    std::atomic<bool> due{false};
  };

  enum class FlushWhy : std::uint8_t { Full, Drain, Deadline, Retx };

  struct TimerEv {
    Clock::time_point due;
    enum class Kind : std::uint8_t { Retx, Flush, DelayedWire } kind =
        Kind::Retx;
    int fromPe = 0;
    int toPe = 0;
    std::vector<std::uint8_t> wire;  // DelayedWire: parked datagram
  };
  struct EvLater {
    bool operator()(const TimerEv& a, const TimerEv& b) const {
      return a.due > b.due;
    }
  };

  static sockaddr_in loopback(std::uint16_t port) {
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = htons(port);
    return sa;
  }

  bool isLocal(int pe) const { return pe >= lo_ && pe < lo_ + nLocal_; }

  int fdOf(int localPe) const {
    return fds_[static_cast<std::size_t>(localPe - lo_)];
  }

  /// Highest sender incarnation `localPe` has seen from `src`. Receiver
  /// thread only (+ pre-start primeRecv).
  std::uint8_t& knownEpoch(int localPe, int src) {
    return knownEpoch_[static_cast<std::size_t>(localPe - lo_) * numPes_ +
                       static_cast<std::size_t>(src)];
  }

  LinkStat& link(int fromPe, int toPe) {
    return links_[static_cast<std::size_t>(fromPe * numPes_ + toPe)];
  }

  std::size_t slot(int fromPe, int toPe) const {
    return static_cast<std::size_t>(fromPe * numPes_ + toPe);
  }

  /// Outboxes allocate lazily (256 PEs all-to-all would be ~90 MB up
  /// front). Only the link's sending worker creates it, so the publication
  /// is a plain release store; every other thread reaches the link only
  /// after a send has happened.
  LinkOut& linkOut(int fromPe, int toPe) {
    std::atomic<LinkOut*>& cell = outSlots_[slot(fromPe, toPe)];
    LinkOut* lk = cell.load(std::memory_order_acquire);
    if (!lk) {
      lk = new LinkOut();
      cell.store(lk, std::memory_order_release);
    }
    return *lk;
  }

  LinkOut* linkOutIfExists(int fromPe, int toPe) const {
    return outSlots_[slot(fromPe, toPe)].load(std::memory_order_acquire);
  }

  bool startFailed(std::string* err, const char* what) {
    if (err)
      *err = std::string(name()) + " transport: " + what + ": " +
             std::strerror(errno);
    closeSockets();
    return false;
  }

  /// Closes the sockets this driver bound (an inherited socket belongs to
  /// the supervisor) and the stop eventfd.
  void closeSockets() {
    if (inheritedFd_ < 0)
      for (const int fd : fds_) ::close(fd);
    fds_.clear();
    if (wakeFd_ >= 0) ::close(wakeFd_);
    wakeFd_ = -1;
  }

  /// Raw datagram transmission from local PE `fromPe`'s socket. EINTR
  /// always retries; a transiently full stack (EAGAIN/ENOBUFS) gets a few
  /// yields before the failure is counted and treated as network loss —
  /// the retransmit timers recover token batches, re-acking recovers acks.
  void rawSend(int fromPe, int toPe, const void* data, std::size_t len) {
    const sockaddr_in& to = addrs_[static_cast<std::size_t>(toPe)];
    for (int attempt = 0;; ++attempt) {
      const ssize_t n =
          ::sendto(fdOf(fromPe), data, len, 0,
                   reinterpret_cast<const sockaddr*>(&to), sizeof to);
      if (n >= 0) return;
      if (errno == EINTR) continue;
      if ((errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) &&
          attempt < 4) {
        std::this_thread::yield();
        continue;
      }
      sendErrors_.fetch_add(1);
      return;
    }
  }

  void xmitWire(int fromPe, int toPe, const std::uint8_t* data,
                std::size_t len) {
    rawSend(fromPe, toPe, data, len);
    LinkStat& l = link(fromPe, toPe);
    l.datagrams.fetch_add(1);
    l.bytes.fetch_add(static_cast<std::int64_t>(len));
    datagramsSent_.fetch_add(1);
    bytesSent_.fetch_add(static_cast<std::int64_t>(len));
  }

  /// One transmission attempt of a batch datagram: rolls the seeded dice
  /// when fault injection is on, otherwise just sends. Drop suppresses the
  /// whole batch and relies on the per-token retransmit timers to recover.
  void attemptTransmit(int fromPe, int toPe, const std::uint8_t* data,
                       std::size_t len) {
    if (plan_.enabled()) {
      switch (plan_.action(txSeq_.fetch_add(1) + 1)) {
        case FaultAction::Drop:
          faultDrops_.fetch_add(1);
          return;
        case FaultAction::Duplicate:
          faultDups_.fetch_add(1);
          xmitWire(fromPe, toPe, data, len);
          break;  // fall through to the normal copy below
        case FaultAction::Delay: {
          faultDelays_.fetch_add(1);
          TimerEv ev;
          ev.due = Clock::now() + micros(plan_.config().nativeDelayUs);
          ev.kind = TimerEv::Kind::DelayedWire;
          ev.fromPe = fromPe;
          ev.toPe = toPe;
          ev.wire.assign(data, data + len);
          pushTimerEv(std::move(ev));
          return;
        }
        case FaultAction::Deliver:
          break;
      }
    }
    xmitWire(fromPe, toPe, data, len);
  }

  /// Pushes a timer event, waking the timer thread only when the event
  /// becomes the new earliest deadline — a later event will be seen when
  /// the thread wakes for the current front anyway, and every avoided
  /// notify is an avoided context switch on the send path.
  void pushTimerEv(TimerEv ev) {
    bool newFront = false;
    {
      std::lock_guard<std::mutex> g(m_);
      newFront = heap_.empty() || ev.due < heap_.front().due;
      heap_.push_back(std::move(ev));
      std::push_heap(heap_.begin(), heap_.end(), EvLater{});
    }
    if (newFront) timerCv_.notify_one();
  }

  void pushLinkTimer(TimerEv::Kind kind, Clock::time_point due, int fromPe,
                     int toPe) {
    TimerEv ev;
    ev.due = due;
    ev.kind = kind;
    ev.fromPe = fromPe;
    ev.toPe = toPe;
    pushTimerEv(std::move(ev));
  }

  /// Ships the (fromPe,toPe) outbox as one datagram: snapshot + reset the
  /// outbox under lk.m, register the fresh tokens' retransmit state under
  /// m_, then transmit with no lock held. Returns without sending when a
  /// concurrent flush already emptied the outbox, or while the output
  /// commit gate holds it.
  void flushLink(int fromPe, int toPe, FlushWhy why) {
    LinkOut* lkp = linkOutIfExists(fromPe, toPe);
    if (!lkp) return;
    LinkOut& lk = *lkp;
    std::uint8_t dgram[kBatchMaxBytes];
    std::size_t len = 0;
    int count = 0;
    int fresh = 0;
    std::uint64_t firstFreshSeq = 0;
    {
      std::lock_guard<std::mutex> g(lk.m);
      if (lk.count == 0) return;
      if (link_ && link_->logStable() < lk.gateSeq) {
        // Output commit: the log prefix behind these sends is not stable
        // yet. Retried by the worker loop's poll and onStableAdvance().
        gatedFlushes_.fetch_add(1);
        return;
      }
      count = lk.count;
      fresh = lk.freshCount;
      firstFreshSeq = lk.firstFreshSeq;
      putBatchHeader(lk.buf, static_cast<std::uint16_t>(fromPe), count,
                     epoch_);
      len = batchBytes(count);
      std::memcpy(dgram, lk.buf, len);
      lk.count = 0;
      lk.freshCount = 0;
      dirtySrc_[fromPe].fetch_sub(1, std::memory_order_release);
    }
    if (fresh > 0) {
      const std::uint64_t firstMsgId =
          proto::Delivery::packLinkMsgId(fromPe, toPe, firstFreshSeq);
      {
        std::lock_guard<std::mutex> g(m_);
        sender_.onSendBatch(firstMsgId, fresh);
      }
      // Schedule the batch's retransmit deadline on the link's own queue;
      // a timer event is pushed only when the link isn't armed yet (or
      // this deadline precedes the armed one) — typically once per burst,
      // not once per batch.
      const auto due = Clock::now() + micros(sender_.initialRtoUs());
      bool arm = false;
      {
        std::lock_guard<std::mutex> g(lk.m);
        for (int i = 0; i < fresh; ++i)
          lk.retxQ.emplace(due,
                           firstFreshSeq + static_cast<std::uint64_t>(i));
        if (!lk.retxArmed || due < lk.armedDue) {
          lk.retxArmed = true;
          lk.armedDue = due;
          arm = true;
        }
      }
      if (arm) pushLinkTimer(TimerEv::Kind::Retx, due, fromPe, toPe);
    }
    switch (why) {
      case FlushWhy::Full: flushFull_.fetch_add(1); break;
      case FlushWhy::Drain: flushDrain_.fetch_add(1); break;
      case FlushWhy::Deadline: flushDeadline_.fetch_add(1); break;
      case FlushWhy::Retx: flushRetx_.fetch_add(1); break;
    }
    batchDgrams_.fetch_add(1);
    batchTokens_.fetch_add(count);
    attemptTransmit(fromPe, toPe, dgram, len);
  }

  /// Appends the still-unacked wire images of `msgIds` to their link's
  /// outbox (original msgId — the receiver's window dedups, quiescence was
  /// charged exactly once at the original enqueue) and ships immediately,
  /// letting retransmits ride with any fresh tokens already coalescing.
  void requeueRetransmits(int fromPe, int toPe,
                          const std::vector<std::uint64_t>& msgIds) {
    LinkOut* lkp = linkOutIfExists(fromPe, toPe);
    if (!lkp) return;
    LinkOut& lk = *lkp;
    std::size_t i = 0;
    while (i < msgIds.size()) {
      bool needFlush = false;
      {
        std::lock_guard<std::mutex> g(lk.m);
        for (; i < msgIds.size(); ++i) {
          const std::uint64_t seq =
              proto::Delivery::linkMsgIdSeq(msgIds[i]);
          auto it = lk.unackedWire.find(seq);
          if (it == lk.unackedWire.end()) continue;  // acked meanwhile
          if (lk.count == kBatchMaxTokens) {
            needFlush = true;
            break;
          }
          std::memcpy(lk.buf + kBatchHeaderBytes +
                          static_cast<std::size_t>(lk.count) *
                              kTokenWireBytes,
                      it->second.data(), kTokenWireBytes);
          if (lk.count == 0)
            dirtySrc_[fromPe].fetch_add(1, std::memory_order_release);
          ++lk.count;
          link(fromPe, toPe).retx.fetch_add(1);
        }
      }
      if (needFlush) flushLink(fromPe, toPe, FlushWhy::Retx);
    }
    flushLink(fromPe, toPe, FlushWhy::Retx);
  }

  /// A link's retransmit deadline fired: pop every due (deadline, seq)
  /// entry, let the protocol core decide each one (entries acked since
  /// they were scheduled come back Stale and vanish), requeue the
  /// survivors' wire images, and re-arm a single event at the link's next
  /// outstanding deadline.
  void fireRetx(int fromPe, int toPe) {
    LinkOut* lkp = linkOutIfExists(fromPe, toPe);
    if (!lkp) return;
    LinkOut& lk = *lkp;
    std::vector<std::uint64_t> expired;
    {
      std::lock_guard<std::mutex> g(lk.m);
      const auto now = Clock::now();
      while (!lk.retxQ.empty() && lk.retxQ.top().first <= now) {
        expired.push_back(lk.retxQ.top().second);
        lk.retxQ.pop();
      }
    }
    std::vector<std::uint64_t> again;  // msgIds to retransmit...
    std::vector<double> backoffUs;     // ...and their re-check distances
    int gaveUpAttempt = 0;
    if (!expired.empty()) {
      std::lock_guard<std::mutex> g(m_);
      for (const std::uint64_t seq : expired) {
        const proto::TimeoutDecision d = sender_.onTimeout(
            proto::Delivery::packLinkMsgId(fromPe, toPe, seq));
        if (d.kind == proto::TimeoutDecision::Kind::Stale) continue;
        if (d.kind == proto::TimeoutDecision::Kind::GiveUp) {
          gaveUpAttempt = d.attempt;
          continue;
        }
        again.push_back(proto::Delivery::packLinkMsgId(fromPe, toPe, seq));
        backoffUs.push_back(d.backoffUs);
      }
    }
    if (gaveUpAttempt != 0) {
      sink_.transportFail(std::string(name()) +
                          " transport: reliable delivery gave up on a token "
                          "from worker " +
                          std::to_string(fromPe) + " to worker " +
                          std::to_string(toPe) + " after " +
                          std::to_string(gaveUpAttempt) + " attempts");
    }
    if (!again.empty()) requeueRetransmits(fromPe, toPe, again);
    bool arm = false;
    Clock::time_point due{};
    {
      std::lock_guard<std::mutex> g(lk.m);
      const auto now = Clock::now();
      for (std::size_t i = 0; i < again.size(); ++i)
        lk.retxQ.emplace(now + micros(backoffUs[i]),
                         proto::Delivery::linkMsgIdSeq(again[i]));
      if (!lk.retxQ.empty()) {
        due = lk.retxQ.top().first;
        lk.retxArmed = true;
        lk.armedDue = due;
        arm = true;
      } else {
        lk.retxArmed = false;
      }
    }
    if (arm) pushLinkTimer(TimerEv::Kind::Retx, due, fromPe, toPe);
  }

  /// One cumulative ack datagram from local PE `ackerPe` for the stream
  /// `srcPe` sends it under incarnation `epoch`, rolled through the same
  /// fault dice as data (lossy-ack model; Delay is treated as Deliver —
  /// re-acking already covers lateness).
  void sendCumAck(int ackerPe, int srcPe,
                  const proto::Delivery::CumAckView& view,
                  std::uint8_t epoch) {
    std::uint8_t pkt[kCumAckWireBytes];
    pkt[0] = kTypeCumAck;
    put16(pkt + 1, static_cast<std::uint16_t>(ackerPe));
    put64(pkt + 3, view.cum);
    put64(pkt + 11, view.bitmap);
    pkt[19] = epoch;
    int copies = 1;
    if (plan_.enabled()) {
      switch (plan_.action(txSeq_.fetch_add(1) + 1)) {
        case FaultAction::Drop:
          faultDrops_.fetch_add(1);
          copies = 0;
          break;
        case FaultAction::Duplicate:
          faultDups_.fetch_add(1);
          copies = 2;
          break;
        default:
          break;
      }
    }
    for (int i = 0; i < copies; ++i) {
      rawSend(ackerPe, srcPe, pkt, sizeof pkt);
      acksSent_.fetch_add(1);
    }
  }

  /// Per-thread scratch for the receiver loop.
  struct RxScratch {
    std::uint8_t buf[2048];
    std::vector<NToken> toks;
    std::vector<NToken> fresh;
    /// Tokens received per (local dst, src) link since its last ack (the
    /// lazy full-batch rule of the ack-on-receipt policy).
    std::vector<std::int64_t> sinceAck;
  };

  /// Receiver loop: one thread polls every local socket — the machine's
  /// "NIC" — and deposits first copies into the owner's inbox via the
  /// service lane. One thread for all PEs keeps the single-producer-per-
  /// lane invariant trivially true and the machine's thread count (and
  /// context-switch pressure) flat in PEs. stop() wakes it through the
  /// eventfd.
  void recvMain() {
    RxScratch rs;
    rs.sinceAck.assign(static_cast<std::size_t>(nLocal_) * numPes_, 0);
    std::vector<pollfd> pfds(static_cast<std::size_t>(nLocal_) + 1);
    for (int i = 0; i < nLocal_; ++i)
      pfds[static_cast<std::size_t>(i)] = {fds_[static_cast<std::size_t>(i)],
                                           POLLIN, 0};
    pfds.back() = {wakeFd_, POLLIN, 0};
    for (;;) {
      if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1) < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (pfds.back().revents != 0) break;  // stop()
      for (int i = 0; i < nLocal_; ++i)
        if (pfds[static_cast<std::size_t>(i)].revents != 0)
          drainSocket(lo_ + i, rs);
    }
    // stop() runs after every worker has joined, so every sendto already
    // made loopback delivery: one non-blocking sweep drains acks (and late
    // retransmits) still queued behind the wake, and acksSent/acksRecv
    // close exactly on a fault-free in-process run.
    for (int i = 0; i < nLocal_; ++i) drainSocket(lo_ + i, rs);
  }

  /// Handles every datagram queued on local PE `pe`'s socket.
  void drainSocket(int pe, RxScratch& rs) {
    for (;;) {
      const ssize_t n =
          ::recv(fdOf(pe), rs.buf, sizeof rs.buf, MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN: this socket is drained
      }
      if (n < 1) continue;
      datagramsRecv_.fetch_add(1);
      bytesRecv_.fetch_add(n);
      const std::size_t len = static_cast<std::size_t>(n);
      switch (rs.buf[0]) {
        case kTypeBatch: onBatch(pe, len, rs); break;
        case kTypeCumAck: onCumAck(pe, rs.buf, len); break;
        default: badDatagrams_.fetch_add(1); break;
      }
    }
  }

  /// A batch datagram for local PE `pe`: epoch window, receive dedup, the
  /// ack policy, then deposits.
  void onBatch(int pe, std::size_t n, RxScratch& rs) {
    std::uint16_t srcPe = 0;
    if (!wireDecodeBatch(rs.buf, n, rs.toks, &srcPe) || srcPe >= numPes_ ||
        srcPe == pe) {
      badDatagrams_.fetch_add(1);
      return;
    }
    const std::uint8_t e = rs.toks.front().epoch;
    std::uint8_t& known = knownEpoch(pe, srcPe);
    if (e < known) {
      // The sender of this datagram is dead; its reborn successor
      // renumbered the link. Nothing from the old stream may touch the new
      // windows.
      staleEpoch_.fetch_add(1);
      return;
    }
    proto::Delivery& rx = rx_[static_cast<std::size_t>(pe - lo_)];
    if (e > known) {
      known = e;
      rx.resetRecvLink(srcPe, pe);
      if (link_) {
        AckState& ack = *acks_[srcPe];
        std::lock_guard<std::mutex> g(ack.m);
        ack.pend.clear();
        ack.win = proto::Delivery();
        ack.epoch = e;
      }
    }
    rs.fresh.clear();
    for (NToken& tok : rs.toks) {
      if (rx.acceptSeq(srcPe, pe, proto::Delivery::linkMsgIdSeq(tok.msgId)))
        rs.fresh.push_back(std::move(tok));
    }
    // The ack (when due) is composed after the window update and sent
    // before the deposits, so at termination the final ack is already in
    // flight toward the sender's socket.
    const bool hadDup = rs.fresh.size() != rs.toks.size();
    if (link_) {
      // Fresh tokens wait for noteDrained -> pumpAcks. A duplicate means
      // the sender is retransmitting: re-ack the stable window now (it
      // never covers unlogged tokens).
      if (hadDup) {
        AckState& ack = *acks_[srcPe];
        proto::Delivery::CumAckView view;
        std::uint8_t ackEpoch = 0;
        {
          std::lock_guard<std::mutex> g(ack.m);
          view = ack.win.cumAckView(srcPe, pe);
          ackEpoch = ack.epoch;
        }
        sendCumAck(pe, srcPe, view, ackEpoch);
      }
    } else {
      const bool full = static_cast<int>(rs.toks.size()) == kBatchMaxTokens;
      std::int64_t& since =
          rs.sinceAck[static_cast<std::size_t>(pe - lo_) * numPes_ + srcPe];
      since += static_cast<std::int64_t>(rs.toks.size());
      if (!full || hadDup || since >= kAckLazyTokens) {
        rx.count(proto::kAcks);
        sendCumAck(pe, srcPe, rx.cumAckView(srcPe, pe), e);
        since = 0;
      }
    }
    for (NToken& tok : rs.fresh) {
      // Receiver dedup MUST precede the ring deposit: a retransmitted
      // token that reached the inbox twice would double-release its
      // single quiescence charge.
      PODS_CHECK_MSG(
          rx.seenSeq(srcPe, pe, proto::Delivery::linkMsgIdSeq(tok.msgId)),
          "udp transport: token deposited before dedup recorded it");
      sink_.deposit(pe, numPes_, std::move(tok));
    }
  }

  /// A cumulative ack for the stream local PE `pe` sends to the acker.
  void onCumAck(int pe, const std::uint8_t* buf, std::size_t n) {
    if (n != kCumAckWireBytes) {
      badDatagrams_.fetch_add(1);
      return;
    }
    const std::uint16_t acker = get16(buf + 1);
    if (acker >= numPes_ || acker == pe) {
      badDatagrams_.fetch_add(1);
      return;
    }
    if (buf[19] != epoch_) {
      // An ack for a previous incarnation of this process: its seq numbers
      // refer to the dead stream and would wrongly retire the renumbered
      // fresh sends.
      staleAcks_.fetch_add(1);
      return;
    }
    acksRecv_.fetch_add(1);
    std::vector<std::uint64_t> retired;
    {
      std::lock_guard<std::mutex> g(m_);
      retired = sender_.onCumAck(pe, acker, get64(buf + 3), get64(buf + 11));
    }
    if (!retired.empty()) {
      if (LinkOut* lk = linkOutIfExists(pe, acker)) {
        std::lock_guard<std::mutex> g(lk->m);
        for (const std::uint64_t id : retired)
          lk->unackedWire.erase(proto::Delivery::linkMsgIdSeq(id));
      }
    }
  }

  /// Timer loop: drives flush deadlines for partially-filled outboxes,
  /// retransmit batches for unacked tokens (fresh dice per flush,
  /// exponential backoff, give-up after maxAttempts fails the run), and
  /// fault-injected delayed sends (the original wire image, no dice).
  void timerMain() {
    std::unique_lock<std::mutex> g(m_);
    while (!timerStop_) {
      if (heap_.empty()) {
        timerCv_.wait(g, [&] { return timerStop_ || !heap_.empty(); });
        continue;
      }
      const auto due = heap_.front().due;
      if (timerCv_.wait_until(g, due, [&] {
            return timerStop_ || heap_.front().due < due;
          })) {
        if (timerStop_) break;
        continue;  // an earlier event was parked; recompute the sleep
      }
      while (!heap_.empty() && heap_.front().due <= Clock::now()) {
        std::pop_heap(heap_.begin(), heap_.end(), EvLater{});
        TimerEv ev = std::move(heap_.back());
        heap_.pop_back();
        g.unlock();
        switch (ev.kind) {
          case TimerEv::Kind::Flush:
            flushLink(ev.fromPe, ev.toPe, FlushWhy::Deadline);
            break;
          case TimerEv::Kind::DelayedWire:
            xmitWire(ev.fromPe, ev.toPe, ev.wire.data(), ev.wire.size());
            break;
          case TimerEv::Kind::Retx:
            fireRetx(ev.fromPe, ev.toPe);
            break;
        }
        g.lock();
      }
    }
  }

  TransportSink& sink_;
  FaultPlan plan_;
  const int numPes_;
  /// Local PEs are [lo_, lo_ + nLocal_): every PE in-process, the worker's
  /// own PE in multi-process mode.
  const int lo_;
  const int nLocal_;
  const std::uint8_t epoch_;  // this process's incarnation (0 in-process)
  const int inheritedFd_;     // supervisor-bound socket, or -1
  WorkerLink* const link_;
  std::vector<LinkStat> links_;
  /// Protocol core endpoints: sender half under m_, one receiver half per
  /// local PE owned by the receiver thread (read by addStats after join).
  proto::Delivery sender_;
  std::vector<proto::Delivery> rx_;
  std::vector<std::uint8_t> knownEpoch_;  // see knownEpoch()
  std::vector<std::unique_ptr<AckState>> acks_;  // per source; link_ only
  std::vector<sockaddr_in> addrs_;  // every PE's socket address
  /// Per-link outboxes (lazily allocated; see linkOut) and a per-source
  /// count of non-empty ones so the worker-loop flush is one atomic load
  /// when nothing is pending.
  std::unique_ptr<std::atomic<LinkOut*>[]> outSlots_;
  std::unique_ptr<std::atomic<int>[]> dirtySrc_;

  std::vector<int> fds_;  // local sockets, indexed by pe - lo_
  int wakeFd_ = -1;       // eventfd: stop() wakes the receiver through it
  std::thread rxThread_;
  std::thread timerThread_;

  mutable std::mutex m_;  // guards heap_, timerStop_, sender_
  std::condition_variable timerCv_;
  std::vector<TimerEv> heap_;  // min-heap on due (std::push_heap/pop_heap)
  bool timerStop_ = false;

  std::atomic<std::uint64_t> txSeq_{0};
  std::atomic<std::int64_t> tokensSent_{0};
  std::atomic<std::int64_t> datagramsSent_{0};
  std::atomic<std::int64_t> bytesSent_{0};
  std::atomic<std::int64_t> datagramsRecv_{0};
  std::atomic<std::int64_t> bytesRecv_{0};
  std::atomic<std::int64_t> acksSent_{0};
  std::atomic<std::int64_t> acksRecv_{0};
  std::atomic<std::int64_t> sendErrors_{0};
  std::atomic<std::int64_t> badDatagrams_{0};
  std::atomic<std::int64_t> staleEpoch_{0};
  std::atomic<std::int64_t> staleAcks_{0};
  std::atomic<std::int64_t> gatedFlushes_{0};
  std::atomic<std::int64_t> batchDgrams_{0};
  std::atomic<std::int64_t> batchTokens_{0};
  std::atomic<std::int64_t> flushFull_{0};
  std::atomic<std::int64_t> flushDeadline_{0};
  std::atomic<std::int64_t> flushDrain_{0};
  std::atomic<std::int64_t> flushRetx_{0};
  std::atomic<std::int64_t> faultDrops_{0};
  std::atomic<std::int64_t> faultDups_{0};
  std::atomic<std::int64_t> faultDelays_{0};
};

}  // namespace

bool parseTransportKind(const std::string& name, TransportKind& out) {
  if (name == "inbox") {
    out = TransportKind::Inbox;
    return true;
  }
  if (name == "udp") {
    out = TransportKind::Udp;
    return true;
  }
  if (name == "udp-multiproc") {
    out = TransportKind::UdpMultiproc;
    return true;
  }
  return false;
}

const char* transportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::Udp: return "udp";
    case TransportKind::UdpMultiproc: return "udp-multiproc";
    case TransportKind::Inbox: break;
  }
  return "inbox";
}

void wireEncodeToken(const NToken& tok, std::uint16_t srcPe,
                     std::uint8_t out[kTokenWireBytes]) {
  out[0] = kRecordTag;
  // Flag byte: bit 0 = toCont, bit 1 = add, bits 2..4 = AmKind (0 for
  // ordinary tokens, so the non-array wire stays bit-identical), bits 5..7
  // reserved (decoder rejects them nonzero).
  out[1] = static_cast<std::uint8_t>((tok.toCont ? 1 : 0) | (tok.add ? 2 : 0) |
                                     ((tok.amKind & 0x7u) << 2));
  put16(out + 2, srcPe);
  put16(out + 4, tok.spCode);
  put16(out + 6, tok.slot);
  put64(out + 8, tok.ctx);
  put64(out + 16, tok.cont.pack());
  out[24] = static_cast<std::uint8_t>(tok.v.tag);
  put64(out + 25, tok.v.bits);
  put64(out + 33, tok.msgId);
  put64(out + 41, tok.senderCtx);
  put64(out + 49, tok.sendKey);
  put64(out + 57, tok.wakeKey);
}

bool wireDecodeToken(const std::uint8_t* data, std::size_t len, NToken& tok,
                     std::uint16_t* srcPe) {
  if (len != kTokenWireBytes || data[0] != kRecordTag) return false;
  if (data[1] & ~0x1Fu) return false;  // bits 5..7 reserved
  const std::uint8_t amKind = (data[1] >> 2) & 0x7u;
  if (amKind > kMaxWireAmKind) return false;  // AllocMeta is log-only
  if (data[24] > static_cast<std::uint8_t>(Tag::Cont)) return false;
  tok.toCont = (data[1] & 1) != 0;
  tok.add = (data[1] & 2) != 0;
  tok.amKind = amKind;
  if (srcPe) *srcPe = get16(data + 2);
  tok.spCode = get16(data + 4);
  tok.slot = get16(data + 6);
  tok.ctx = get64(data + 8);
  tok.cont = Cont::unpack(get64(data + 16));
  tok.v.tag = static_cast<Tag>(data[24]);
  tok.v.bits = get64(data + 25);
  tok.msgId = get64(data + 33);
  tok.senderCtx = get64(data + 41);
  tok.sendKey = get64(data + 49);
  tok.wakeKey = get64(data + 57);
  return true;
}

std::size_t wireEncodeBatch(const NToken* toks, int count, std::uint16_t srcPe,
                            std::uint8_t epoch, std::uint8_t* out) {
  PODS_CHECK_MSG(count >= 1 && count <= kBatchMaxTokens,
                 "wireEncodeBatch: count out of range");
  putBatchHeader(out, srcPe, count, epoch);
  for (int i = 0; i < count; ++i)
    wireEncodeToken(toks[i], srcPe,
                    out + kBatchHeaderBytes +
                        static_cast<std::size_t>(i) * kTokenWireBytes);
  return batchBytes(count);
}

bool wireDecodeBatch(const std::uint8_t* data, std::size_t len,
                     std::vector<NToken>& out, std::uint16_t* srcPe) {
  out.clear();
  if (len < kBatchHeaderBytes || data[0] != kTypeBatch) return false;
  const std::uint16_t src = get16(data + 1);
  const int count = get16(data + 3);
  const std::uint8_t epoch = data[5];
  // The length must be exactly header + count records: truncation or
  // trailing junk rejects.
  if (count < 1 || count > kBatchMaxTokens || len != batchBytes(count))
    return false;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    NToken tok;
    std::uint16_t recSrc = 0;
    if (!wireDecodeToken(data + kBatchHeaderBytes +
                             static_cast<std::size_t>(i) * kTokenWireBytes,
                         kTokenWireBytes, tok, &recSrc) ||
        recSrc != src) {
      out.clear();  // all-or-nothing: one bad record rejects the datagram
      return false;
    }
    tok.epoch = epoch;
    out.push_back(tok);
  }
  if (srcPe) *srcPe = src;
  return true;
}

std::unique_ptr<Transport> makeInboxTransport(TransportSink& sink,
                                              const FaultPlan& plan,
                                              int numPes) {
  return std::make_unique<InboxTransport>(sink, plan, numPes);
}

std::unique_ptr<Transport> makeUdpTransport(TransportSink& sink,
                                            const FaultPlan& plan,
                                            int numPes) {
  return std::make_unique<UdpTransport>(sink, plan, numPes, /*localPe=*/0,
                                        /*epoch=*/0, /*sockFd=*/-1,
                                        std::vector<std::uint16_t>{},
                                        /*link=*/nullptr);
}

std::unique_ptr<Transport> makeTransport(TransportKind kind,
                                         TransportSink& sink,
                                         const FaultPlan& plan, int numPes) {
  if (kind == TransportKind::Udp) return makeUdpTransport(sink, plan, numPes);
  return makeInboxTransport(sink, plan, numPes);
}

std::unique_ptr<Transport> makeUdpMultiprocTransport(
    TransportSink& sink, const FaultPlan& plan, int numPes, int localPe,
    std::uint8_t epoch, int sockFd, const std::vector<std::uint16_t>& peerPorts,
    WorkerLink* link) {
  PODS_CHECK_MSG(sockFd >= 0, "udp-multiproc: no inherited socket fd");
  PODS_CHECK_MSG(static_cast<int>(peerPorts.size()) == numPes,
                 "udp-multiproc: port table size mismatch");
  return std::make_unique<UdpTransport>(sink, plan, numPes, localPe, epoch,
                                        sockFd, peerPorts, link);
}

}  // namespace pods::native

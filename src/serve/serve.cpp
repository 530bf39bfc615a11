#include "serve/serve.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <list>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "proto/ctl.hpp"
#include "support/check.hpp"

namespace pods::serve {

std::uint64_t configHash(const ServeConfig& c) {
  proto::ctl::Writer w;
  w.u16(proto::ctl::kVersion);
  w.u32(static_cast<std::uint32_t>(c.pes));
  w.u32(static_cast<std::uint32_t>(c.pageElems));
  return proto::ctl::fnv1a(w.out.data(), w.out.size());
}

std::uint64_t sourceHash(const std::string& source) {
  return proto::ctl::fnv1a(
      reinterpret_cast<const std::uint8_t*>(source.data()), source.size());
}

struct JobRunner::Impl : native::ExecPool {
  const ServeConfig cfg;

  // ---- Warm worker pool (native::ExecPool) -------------------------------
  // Sized maxInflight * pes: every executing job parks exactly `pes` bodies
  // on the pool for its whole run, so the bound is exact — a smaller pool
  // would deadlock, a larger one would idle.
  std::mutex poolM;
  std::condition_variable poolCv;
  std::deque<std::function<void()>> poolQ;
  bool poolStop = false;
  std::vector<std::thread> poolThreads;

  void dispatch(std::function<void()> fn) override {
    {
      std::lock_guard<std::mutex> g(poolM);
      poolQ.push_back(std::move(fn));
    }
    poolCv.notify_one();
  }

  void poolMain() {
    for (;;) {
      std::function<void()> fn;
      {
        std::unique_lock<std::mutex> g(poolM);
        poolCv.wait(g, [&] { return poolStop || !poolQ.empty(); });
        if (poolQ.empty()) return;  // poolStop and drained
        fn = std::move(poolQ.front());
        poolQ.pop_front();
      }
      fn();
    }
  }

  // ---- Admission + executors --------------------------------------------
  struct PendingJob {
    JobRequest req;
    std::function<void(JobReply)> done;
    std::uint32_t jobId = 0;
  };
  mutable std::mutex m;  // guards jobQ, inflight, jobSeq, cache, st
  std::condition_variable cv;
  std::deque<PendingJob> jobQ;
  bool stopFlag = false;
  int inflight = 0;
  std::uint32_t jobSeq = 0;
  std::vector<std::thread> executors;
  Counters st;

  // ---- Compiled-program cache (LRU) -------------------------------------
  struct CacheEntry {
    std::shared_ptr<const Compiled> compiled;
    std::list<std::uint64_t>::iterator lruIt;
  };
  std::unordered_map<std::uint64_t, CacheEntry> cache;
  std::list<std::uint64_t> lru;  // front = most recently used

  // ---- Per-job deadline watchdog ----------------------------------------
  // One shared timer thread arms every timed job's abort flag. A job that
  // ends disarms its entry, so the list holds only running timed jobs.
  struct Deadline {
    std::chrono::steady_clock::time_point at;
    std::shared_ptr<std::atomic<bool>> flag;
  };
  mutable std::mutex dlM;
  std::condition_variable dlCv;
  std::vector<Deadline> deadlines;
  bool dlStop = false;
  std::thread dlThread;

  explicit Impl(const ServeConfig& c) : cfg(c) {
    PODS_CHECK_MSG(cfg.pes >= 1 && cfg.maxInflight >= 1 && cfg.maxQueue >= 0 &&
                       cfg.cacheCapacity >= 1,
                   "invalid serve config");
    const int poolSize = cfg.maxInflight * cfg.pes;
    poolThreads.reserve(static_cast<std::size_t>(poolSize));
    for (int i = 0; i < poolSize; ++i)
      poolThreads.emplace_back([this] { poolMain(); });
    executors.reserve(static_cast<std::size_t>(cfg.maxInflight));
    for (int i = 0; i < cfg.maxInflight; ++i)
      executors.emplace_back([this] { execMain(); });
    dlThread = std::thread([this] { watchdogMain(); });
  }

  ~Impl() override {
    {
      std::lock_guard<std::mutex> g(m);
      stopFlag = true;
    }
    cv.notify_all();
    // Executors finish every admitted job before exiting, which in turn
    // returns all pool bodies; only then may the pool threads stop.
    for (std::thread& t : executors) t.join();
    {
      std::lock_guard<std::mutex> g(poolM);
      poolStop = true;
    }
    poolCv.notify_all();
    for (std::thread& t : poolThreads) t.join();
    {
      std::lock_guard<std::mutex> g(dlM);
      dlStop = true;
    }
    dlCv.notify_all();
    dlThread.join();
  }

  void watchdogMain() {
    std::unique_lock<std::mutex> g(dlM);
    for (;;) {
      if (dlStop) return;
      if (deadlines.empty()) {
        dlCv.wait(g);
        continue;
      }
      auto next = deadlines.front().at;
      for (const Deadline& d : deadlines)
        if (d.at < next) next = d.at;
      dlCv.wait_until(g, next);
      const auto now = std::chrono::steady_clock::now();
      for (auto it = deadlines.begin(); it != deadlines.end();) {
        if (it->at <= now) {
          it->flag->store(true);
          it = deadlines.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  void armDeadline(std::shared_ptr<std::atomic<bool>> flag,
                   std::uint32_t afterMs) {
    {
      std::lock_guard<std::mutex> g(dlM);
      deadlines.push_back(
          {std::chrono::steady_clock::now() +
               std::chrono::milliseconds(afterMs),
           std::move(flag)});
    }
    dlCv.notify_all();
  }

  /// Drops a job's deadline if it has not fired. The watchdog may still wake
  /// at the dropped time; it then finds nothing due and waits again.
  void disarmDeadline(const std::shared_ptr<std::atomic<bool>>& flag) {
    std::lock_guard<std::mutex> g(dlM);
    for (auto it = deadlines.begin(); it != deadlines.end(); ++it) {
      if (it->flag == flag) {
        deadlines.erase(it);
        return;
      }
    }
  }

  /// Cache lookup under `m`; refreshes LRU position and counts hit/miss.
  std::shared_ptr<const Compiled> cacheLookup(std::uint64_t h) {
    auto it = cache.find(h);
    if (it == cache.end()) {
      st.add("serve.cache.misses");
      return nullptr;
    }
    lru.erase(it->second.lruIt);
    lru.push_front(h);
    it->second.lruIt = lru.begin();
    st.add("serve.cache.hits");
    return it->second.compiled;
  }

  /// Cache insert under `m`; evicts the LRU tail past capacity. Evicted
  /// programs stay alive (shared_ptr) for any job still executing them.
  void cacheInsert(std::uint64_t h, std::shared_ptr<const Compiled> c) {
    if (cache.count(h) != 0) return;  // lost a compile race — keep the first
    lru.push_front(h);
    cache.emplace(h, CacheEntry{std::move(c), lru.begin()});
    while (cache.size() > static_cast<std::size_t>(cfg.cacheCapacity)) {
      cache.erase(lru.back());
      lru.pop_back();
      st.add("serve.cache.evictions");
    }
  }

  void execMain() {
    for (;;) {
      PendingJob job;
      {
        std::unique_lock<std::mutex> g(m);
        cv.wait(g, [&] { return stopFlag || !jobQ.empty(); });
        if (jobQ.empty()) return;  // stopFlag and drained
        job = std::move(jobQ.front());
        jobQ.pop_front();
        ++inflight;
        st.add("serve.jobs.started");
      }
      cv.notify_all();  // a submit may be waiting on queue headroom checks
      JobReply rep = execute(job);
      {
        std::lock_guard<std::mutex> g(m);
        --inflight;
        if (rep.ok) {
          st.add("serve.jobs.ok");
        } else if (rep.error.rfind("aborted", 0) == 0) {
          st.add("serve.jobs.aborted");
        } else {
          st.add("serve.jobs.failed");
        }
        // Canonical per-job counters aggregated un-namespaced: names are a
        // fixed set, so daemon totals stay bounded however many jobs run.
        st.merge(rep.counters);
      }
      cv.notify_all();
      job.done(std::move(rep));
    }
  }

  JobReply execute(PendingJob& job) {
    JobReply rep;
    rep.jobId = job.jobId;
    std::shared_ptr<const Compiled> compiled;
    std::uint64_t h = 0;
    if (job.req.byHash) {
      h = job.req.hash;
      {
        std::lock_guard<std::mutex> g(m);
        compiled = cacheLookup(h);
      }
      rep.sourceHash = h;
      if (compiled == nullptr) {
        rep.error =
            "unknown compiled handle (evicted or never submitted); "
            "resubmit the program source";
        return rep;
      }
      rep.cacheHit = true;
    } else {
      h = sourceHash(job.req.source);
      rep.sourceHash = h;
      {
        std::lock_guard<std::mutex> g(m);
        compiled = cacheLookup(h);
      }
      if (compiled != nullptr) {
        rep.cacheHit = true;
      } else {
        CompileResult cr = compile(job.req.source);
        if (!cr.ok) {
          rep.error = "compile failed: " + cr.diagnostics;
          return rep;
        }
        compiled = std::shared_ptr<const Compiled>(std::move(cr.compiled));
        std::lock_guard<std::mutex> g(m);
        cacheInsert(h, compiled);
      }
    }

    native::NativeConfig nc;
    nc.numWorkers = cfg.pes;
    nc.pageElems = cfg.pageElems;
    nc.jobId = job.jobId;
    nc.pool = this;
    std::shared_ptr<std::atomic<bool>> abortFlag;
    if (job.req.timeoutMs != 0) {
      abortFlag = std::make_shared<std::atomic<bool>>(false);
      nc.abort = abortFlag.get();
      armDeadline(abortFlag, job.req.timeoutMs);
    }
    NativeRun run = runNative(*compiled, nc);
    if (abortFlag) disarmDeadline(abortFlag);
    rep.ok = run.stats.ok;
    rep.error = run.stats.error;
    rep.wallMs = run.stats.wallSeconds * 1e3;
    rep.out = std::move(run.out);
    rep.counters = std::move(run.stats.counters);
    return rep;
  }
};

JobRunner::JobRunner(const ServeConfig& cfg)
    : impl_(std::make_unique<Impl>(cfg)) {}

JobRunner::~JobRunner() = default;

bool JobRunner::submit(JobRequest req, std::function<void(JobReply)> done,
                       std::uint32_t* inflight, std::uint32_t* queued) {
  Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> g(im.m);
    im.st.add("serve.submits");
    if (req.byHash) im.st.add("serve.submits.byHandle");
    const int admitted = im.inflight + static_cast<int>(im.jobQ.size());
    if (admitted >= im.cfg.maxInflight + im.cfg.maxQueue) {
      im.st.add("serve.busyRejects");
      if (inflight) *inflight = static_cast<std::uint32_t>(im.inflight);
      if (queued) *queued = static_cast<std::uint32_t>(im.jobQ.size());
      return false;
    }
    Impl::PendingJob job;
    job.req = std::move(req);
    job.done = std::move(done);
    job.jobId = ++im.jobSeq;
    im.jobQ.push_back(std::move(job));
  }
  im.cv.notify_all();
  return true;
}

JobReply JobRunner::run(JobRequest req) {
  std::mutex m;
  std::condition_variable cv;
  bool ready = false;
  JobReply out;
  std::uint32_t inflight = 0, queued = 0;
  const bool admitted = submit(
      std::move(req),
      [&](JobReply rep) {
        std::lock_guard<std::mutex> g(m);
        out = std::move(rep);
        ready = true;
        cv.notify_all();
      },
      &inflight, &queued);
  if (!admitted) {
    out.busy = true;
    out.inflight = inflight;
    out.queued = queued;
    return out;
  }
  std::unique_lock<std::mutex> g(m);
  cv.wait(g, [&] { return ready; });
  return out;
}

void JobRunner::drain() {
  Impl& im = *impl_;
  std::unique_lock<std::mutex> g(im.m);
  im.cv.wait(g, [&] { return im.inflight == 0 && im.jobQ.empty(); });
}

Counters JobRunner::stats() const {
  const Impl& im = *impl_;
  std::lock_guard<std::mutex> g(im.m);
  Counters out = im.st;
  // Pre-register the counters the stats schema requires for the serve
  // engine: an idle daemon's artifact must carry them at zero, not omit
  // them (add(name, 0) creates the key without changing a live value).
  for (const char* name : {"serve.submits", "serve.jobs.ok",
                           "serve.cache.hits", "serve.cache.misses"})
    out.add(name, 0);
  out.add("serve.inflight", im.inflight);
  out.add("serve.queued", static_cast<std::int64_t>(im.jobQ.size()));
  out.add("serve.cache.size", static_cast<std::int64_t>(im.cache.size()));
  std::lock_guard<std::mutex> dg(im.dlM);
  out.add("serve.deadlines", static_cast<std::int64_t>(im.deadlines.size()));
  return out;
}

const ServeConfig& JobRunner::config() const { return impl_->cfg; }

}  // namespace pods::serve

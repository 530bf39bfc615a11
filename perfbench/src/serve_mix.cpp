// serve-mix: an in-process podsd on a Unix socket with four closed-loop
// clients. Three of every four submits name a hot program by its cached
// hash; the fourth sends a fresh source from a cold set larger than the
// compiled-program cache, so it always misses and compiles.
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "proto/ctl.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"
#include "workloads/kernels.hpp"
#include "workloads/livermore.hpp"
#include "workloads/simple.hpp"

namespace perfbench {

namespace {

constexpr int kClients = 4;
constexpr std::uint32_t kTimeoutMs = 60'000;

namespace ctl = pods::proto::ctl;

pods::serve::ServeConfig serveConfig() {
  pods::serve::ServeConfig cfg;
  cfg.pes = 4;
  cfg.maxInflight = 2;
  cfg.maxQueue = 8;  // 2 running + 8 queued > 4 clients: never busy
  cfg.cacheCapacity = 24;
  return cfg;
}

struct Program {
  std::string source;
  std::uint64_t hash = 0;
  pods::ProgramOutputs ref;
};

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Hot set: SIMPLE 16, programs/heat.idl, and the Livermore kernels.
std::vector<std::string> hotSources(bool tiny) {
  const int n = tiny ? 16 : 64;
  std::vector<std::string> out = {pods::workloads::simpleSource(tiny ? 8 : 16, 1),
                                  readFile("programs/heat.idl")};
  for (const auto& k : pods::workloads::livermoreKernels())
    out.push_back(pods::workloads::livermoreSource(k.number, n));
  return out;
}

/// Cold set: 48 distinct small programs, twice what the 24-entry cache
/// holds, each resent only after all the others: a cold submit always
/// misses. The hot set stays cached: between two touches of a hot program
/// each of the 4 clients sends at most one hot rotation (8 hot + 3 cold),
/// so at most 8 + 4 * 3 = 20 other entries are touched — fewer than 24.
std::vector<std::string> coldSources(bool tiny) {
  std::vector<std::string> out;
  for (int n : {40, 48, 56, 72, 80, 88, 96})
    for (const auto& k : pods::workloads::livermoreKernels())
      out.push_back(pods::workloads::livermoreSource(k.number, tiny ? n / 4 : n));
  for (int n : {10, 12, 14, 16, 18, 20}) out.push_back(pods::workloads::stencilSource(n, 2));
  return out;
}

/// The counters a JobResult carries are namespaced job.<id>.*; strip that.
pods::Counters jobCounters(const ctl::JobResultMsg& m) {
  const std::string prefix = "job." + std::to_string(m.jobId) + ".";
  pods::Counters c;
  for (const auto& [k, v] : m.counters)
    c.add(k.rfind(prefix, 0) == 0 ? k.substr(prefix.size()) : k, v);
  return c;
}

/// A started daemon plus connected, handshaken clients.
struct Service {
  std::unique_ptr<pods::serve::Daemon> daemon;
  std::vector<std::unique_ptr<pods::serve::Client>> clients;

  ~Service() {
    for (auto& c : clients) c->close();
    if (daemon) daemon->stop();
  }
};

/// Set-up as a user pays it: daemon start, every client's handshake, and
/// one submit of each hot program (compile, cache fill, pool warm-up).
std::unique_ptr<Service> startService(const std::string& sock,
                                      std::vector<Program>& hot) {
  auto svc = std::make_unique<Service>();
  std::filesystem::remove(sock);
  pods::serve::Endpoint ep;
  ep.unixPath = sock;
  svc->daemon = std::make_unique<pods::serve::Daemon>(serveConfig(), ep);
  std::string err;
  if (!svc->daemon->start(&err)) die("daemon start: " + err);
  for (int i = 0; i < kClients; ++i) {
    auto c = std::make_unique<pods::serve::Client>();
    if (!c->connectUnix(sock, &err) || !c->handshake(nullptr, &err))
      die("client connect: " + err);
    svc->clients.push_back(std::move(c));
  }
  for (Program& p : hot) {
    pods::serve::Client::Reply rep;
    if (!svc->clients[0]->submitSource(p.source, kTimeoutMs, &rep, &err))
      die("warm-up submit: " + err);
    if (rep.busy || !rep.result.ok) die("warm-up job failed: " + rep.result.error);
    p.hash = rep.result.sourceHash;
  }
  return svc;
}

/// Per-job observations for the per-layer metrics.
struct ServeSample {
  bool hit = false;
  double waitMs = 0.0, runMs = 0.0;
  double resultBytes = 0.0, decodeUs = 0.0;
  EuWork eu;
};

struct ClientResult {
  JobLog log;
  std::vector<ServeSample> samples;
};

}  // namespace

void runServeMix(const Options& opts, Report& r) {
  std::vector<Program> hot, cold;
  for (std::string& s : hotSources(opts.tiny)) hot.push_back({std::move(s), 0, {}});
  for (std::string& s : coldSources(opts.tiny)) cold.push_back({std::move(s), 0, {}});
  for (auto* set : {&hot, &cold})
    for (Program& p : *set) p.ref = reference(*compileOrDie(p.source), opts);

  // The seed orders the cold set and staggers each client's hot rotation.
  pods::SplitMix64 rng(opts.seed * 0x9E3779B97F4A7C15ULL + 3);
  std::vector<std::size_t> coldOrder(cold.size());
  for (std::size_t i = 0; i < coldOrder.size(); ++i) coldOrder[i] = i;
  for (std::size_t i = coldOrder.size() - 1; i > 0; --i)
    std::swap(coldOrder[i], coldOrder[rng.below(i + 1)]);
  std::vector<std::size_t> hotOffset(kClients);
  for (auto& o : hotOffset) o = rng.below(hot.size());

  std::filesystem::create_directories(".bench_build");
  const std::string sock =
      ".bench_build/perfbench-serve-" + std::to_string(::getpid()) + ".sock";
  std::unique_ptr<Service> svc;
  const std::vector<double> setup =
      timeSetups([&] { svc.reset(); }, [&] { svc = startService(sock, hot); });

  std::atomic<std::size_t> coldCursor{0};
  std::atomic<std::uint32_t> jobIds{0};
  std::vector<ClientResult> results(kClients);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds));
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int ci = 0; ci < kClients; ++ci) {
    threads.emplace_back([&, ci] {
      pods::serve::Client& client = *svc->clients[static_cast<std::size_t>(ci)];
      ClientResult& out = results[static_cast<std::size_t>(ci)];
      std::size_t hotNext = hotOffset[static_cast<std::size_t>(ci)];
      for (std::uint32_t k = 0; k == 0 || Clock::now() < deadline; ++k) {
        const std::uint32_t job = jobIds.fetch_add(1);
        const bool traced = opts.trace && job % 2 == 1;
        Tracer* t = traced ? r.tracer : nullptr;
        const auto tid = static_cast<std::uint32_t>(ci);
        const bool isHot = k % 4 != 3;
        const Program& p =
            isHot ? hot[hotNext++ % hot.size()]
                  : cold[coldOrder[coldCursor.fetch_add(1) % cold.size()]];
        Span js(t, "job", Tracer::kNoSpan, job, tid);
        std::vector<std::string> bad;
        pods::serve::Client::Reply rep;
        std::string err;
        bool sent = false;
        const auto j0 = Clock::now();
        {
          Span s(t, isHot ? "serve.submitHash" : "serve.submitSource", js.id(), job, tid);
          sent = isHot ? client.submitHash(p.hash, kTimeoutMs, &rep, &err)
                       : client.submitSource(p.source, kTimeoutMs, &rep, &err);
        }
        const double ms = msSince(j0);
        if (!sent) {
          bad.push_back("transport-error (" + err + ")");
          out.log.record(job, ms, traced, bad);
          return;  // the connection is gone; this client stops
        }
        const ctl::JobResultMsg& res = rep.result;
        if (rep.busy) bad.push_back("busy");
        else if (!res.ok) bad.push_back("job-error (" + res.error + ")");
        if (!rep.busy) {
          if (isHot && !res.cacheHit) bad.push_back("hot-miss");
          if (!isHot && res.cacheHit) bad.push_back("cold-hit");
          {
            Span s(t, "check.sameOutputs", js.id(), job, tid);
            checkOutputs(pods::serve::Client::toOutputs(res), p.ref, bad);
          }
          const pods::Counters c = jobCounters(res);
          {
            Span s(t, "check.ledger", js.id(), job, tid);
            checkNativeLedger(c, false, bad);
          }
          ServeSample smp;
          smp.hit = res.cacheHit != 0;
          smp.waitMs = ms - res.wallMs;
          smp.runMs = res.wallMs;
          smp.eu = euWorkOf(c);
          if (opts.trace) {
            // The client decoded this frame already; re-encode it and time
            // a second decode of the same bytes from outside.
            Span s(t, "proto.decodeJobResult", js.id(), job, tid);
            std::vector<std::uint8_t> bytes;
            ctl::encodeJobResult(res, bytes);
            ctl::JobResultMsg again;
            const auto d0 = Clock::now();
            if (!ctl::decodeJobResult(bytes.data(), bytes.size(), again))
              bad.push_back("jobresult-redecode");
            smp.decodeUs = msSince(d0) * 1e3;
            smp.resultBytes = static_cast<double>(bytes.size());
          }
          out.samples.push_back(smp);
        }
        js.end();
        out.log.record(job, ms, traced, bad);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const double window = msSince(t0) / 1e3;
  svc.reset();
  std::filesystem::remove(sock);

  JobLog log;
  std::vector<ServeSample> samples;
  for (const ClientResult& cr : results) {
    log.merge(cr.log);
    samples.insert(samples.end(), cr.samples.begin(), cr.samples.end());
  }
  r.attempted = log.attempted;
  r.failed = log.failed;
  if (!opts.trace) {
    reportEndToEnd(r, log, window, setup);
    return;
  }
  reportTraceOverhead(r, log);
  std::vector<std::string> coldSrc;
  for (const Program& p : cold) coldSrc.push_back(p.source);
  probeCompile(coldSrc, opts.tiny ? 1 : 3, *r.tracer, r);

  std::vector<ServeSample> hits;
  for (const ServeSample& s : samples)
    if (s.hit) hits.push_back(s);
  r.add("serve.wait_ms", medianOf(samples, [](const ServeSample& s) { return s.waitMs; }), "ms");
  r.add("serve.run_ms", medianOf(samples, [](const ServeSample& s) { return s.runMs; }), "ms");
  r.add("serve.cache_hit_ratio",
        samples.empty() ? 0.0
                        : static_cast<double>(hits.size()) / static_cast<double>(samples.size()),
        "ratio");
  r.add("proto.jobresult_bytes",
        medianOf(samples, [](const ServeSample& s) { return s.resultBytes; }), "bytes");
  r.add("proto.decode_us", medianOf(samples, [](const ServeSample& s) { return s.decodeUs; }),
        "us");
  r.add("native.ns_per_instr",
        medianOf(hits, [](const ServeSample& s) {
          return s.eu.instrs > 0 ? s.runMs * 1e6 / static_cast<double>(s.eu.instrs) : 0.0;
        }),
        "ns");
  r.add("native.instrs_per_job", medianOf(hits, [](const ServeSample& s) { return s.eu.instrs; }),
        "count");
  r.add("native.frames_per_job", medianOf(hits, [](const ServeSample& s) { return s.eu.frames; }),
        "count");
  r.add("native.idle_transitions_per_job",
        medianOf(hits, [](const ServeSample& s) { return s.eu.idle; }), "count");

  const JobLog probe =
      probeMultiprocWire(opts, r, static_cast<std::uint32_t>(log.attempted));
  r.attempted += probe.attempted;
  r.failed += probe.failed;
}

}  // namespace perfbench

// The multi-process probe on serve-mix's traced run: the heat stencil as
// forked worker processes exchanging tokens and array messages over UDP
// loopback, for the transport, store and procmgr layers.
#include "proto/delivery.hpp"
#include "workloads.hpp"
#include "workloads/kernels.hpp"

namespace perfbench {

namespace {

/// Checked jobs the probe runs.
constexpr int kProbeJobs = 12;

/// A one-element program: what a multi-process run costs with no work.
constexpr const char* kOneElement =
    "def main() -> array { let a = array(1); a[0] = 1.0; return a; }\n";

/// Per-job counters the probe turns into per-layer metrics.
struct JobSample {
  double ms = 0.0;
  std::int64_t tokens = 0, datagrams = 0, resent = 0;
  std::int64_t readReqs = 0, parks = 0, gated = 0, ctlFrames = 0;
};

JobSample sampleOf(double ms, const pods::Counters& c) {
  JobSample s;
  s.ms = ms;
  s.tokens = c.get("net.udp.tokensSent");
  s.datagrams = c.get("net.udp.datagramsSent");
  s.resent = c.get(pods::proto::kResent);
  s.readReqs = c.get("net.am.readReqSent");
  s.parks = c.get("net.am.parks");
  s.gated = c.get("net.udp.gatedFlushes");
  s.ctlFrames = c.get("net.ctl.frames");
  return s;
}

/// Median runNative wall time of `reps` runs of `c` under `cfg`, in ms.
double medianRunMs(const pods::Compiled& c, const pods::native::NativeConfig& cfg,
                   int reps, Tracer& t, const char* span) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    Span s(&t, span);
    const auto t0 = Clock::now();
    const pods::NativeRun run = pods::runNative(c, cfg);
    ms.push_back(msSince(t0));
    if (!run.stats.ok) die(std::string(span) + " run failed: " + run.stats.error);
  }
  return median(std::move(ms));
}

}  // namespace

JobLog probeMultiprocWire(const Options& opts, Report& r, std::uint32_t firstJob) {
  pods::native::NativeConfig cfg;
  cfg.numWorkers = 4;
  cfg.transport = pods::native::TransportKind::UdpMultiproc;
  cfg.store = pods::native::StoreKind::Wire;
  // The seed sets the hot edge's temperature: same work, fresh values.
  const std::string src =
      substituteOnce(pods::workloads::stencilSource(opts.tiny ? 16 : 96, opts.tiny ? 2 : 5),
                     "then 100.0", "then " + seededReal(opts.seed, 2, 50.0, 150.0));
  const std::unique_ptr<pods::Compiled> c = compileOrDie(src);
  const pods::ProgramOutputs ref = reference(*c, opts);
  (void)pods::runNative(*c, cfg);  // warm-up: page in code, sockets, allocator

  JobLog log;
  std::vector<JobSample> samples;
  for (int i = 0; i < (opts.tiny ? 2 : kProbeJobs); ++i) {
    const std::uint32_t job = firstJob + static_cast<std::uint32_t>(i);
    Span js(r.tracer, "job", Tracer::kNoSpan, job);
    std::vector<std::string> bad;
    pods::NativeRun run;
    const auto t0 = Clock::now();
    {
      Span s(r.tracer, "procmgr.runNative", js.id(), job);
      run = pods::runNative(*c, cfg);
    }
    const double ms = msSince(t0);
    if (!run.stats.ok) bad.push_back("run-error (" + run.stats.error + ")");
    {
      Span s(r.tracer, "check.sameOutputs", js.id(), job);
      checkOutputs(run.out, ref, bad);
    }
    {
      Span s(r.tracer, "check.ledger", js.id(), job);
      checkNativeLedger(run.stats.counters, true, bad);
    }
    log.record(job, ms, true, bad);
    samples.push_back(sampleOf(ms, run.stats.counters));
  }

  r.add("transport.us_per_token", medianOf(samples, [](const JobSample& s) {
          return s.tokens > 0 ? s.ms * 1e3 / static_cast<double>(s.tokens) : 0.0;
        }),
        "us");
  r.add("transport.tokens_per_datagram", medianOf(samples, [](const JobSample& s) {
          return s.datagrams > 0 ? static_cast<double>(s.tokens) /
                                       static_cast<double>(s.datagrams)
                                 : 0.0;
        }),
        "ratio");
  std::int64_t resent = 0;
  for (const JobSample& s : samples) resent += s.resent;
  r.add("transport.retx_resent",
        static_cast<double>(resent) / static_cast<double>(samples.size()), "count");
  const double readReqs = medianOf(samples, [](const JobSample& s) { return s.readReqs; });
  r.add("store.readreqs_per_job", readReqs, "count");
  r.add("store.parks_per_job", medianOf(samples, [](const JobSample& s) { return s.parks; }),
        "count");
  r.add("procmgr.gated_flushes_per_job",
        medianOf(samples, [](const JobSample& s) { return s.gated; }), "count");
  r.add("procmgr.ctl_frames_per_job",
        medianOf(samples, [](const JobSample& s) { return s.ctlFrames; }), "count");

  // Wire-store cost per remote read: the same job with the local (shm)
  // store, differenced against the wire-store median, over its read count.
  const int reps = opts.tiny ? 2 : 10;
  pods::native::NativeConfig local = cfg;
  local.store = pods::native::StoreKind::Local;
  const double localMs = medianRunMs(*c, local, reps, *r.tracer, "procmgr.runNative.localStore");
  r.add("store.us_per_remote_read",
        readReqs > 0 ? (medianOf(samples, [](const JobSample& s) { return s.ms; }) - localMs) *
                           1e3 / readReqs
                     : 0.0,
        "us");
  const std::unique_ptr<pods::Compiled> one = compileOrDie(kOneElement);
  r.add("procmgr.fixed_ms", medianRunMs(*one, cfg, reps, *r.tracer, "procmgr.runNative.oneElement"),
        "ms");
  return log;
}

}  // namespace perfbench

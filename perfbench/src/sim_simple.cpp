// sim-simple: the paper's own benchmark on the cycle-accounted simulator.
#include "workloads.hpp"
#include "workloads/simple.hpp"

namespace perfbench {

void runSimSimple(const Options& opts, Report& r) {
  const int n = opts.tiny ? 8 : 64;
  pods::sim::MachineConfig mc;
  mc.numPEs = opts.tiny ? 4 : 16;
  // The seed perturbs the time step: same program shape, fresh inputs.
  const std::string src =
      substituteOnce(pods::workloads::simpleSource(n, 1), "let dt = 0.002;",
                     "let dt = " + seededReal(opts.seed, 1, 0.0015, 0.0025) + ";");

  std::unique_ptr<pods::Compiled> c;
  const std::vector<double> setup =
      timeSetups([&] { c.reset(); }, [&] { c = compileOrDie(src); });
  const pods::ProgramOutputs ref = reference(*c, opts);
  const pods::PodsRun warm = pods::runPods(*c, mc);
  const std::int64_t simNs = warm.stats.total.ns;
  const std::uint64_t events = warm.stats.events;

  JobLog log;
  std::vector<double> nsPerEvent;
  const double window = closedLoop(opts, [&](std::uint32_t job, bool traced) {
    Tracer* t = traced ? r.tracer : nullptr;
    Span js(t, "job", Tracer::kNoSpan, job);
    std::vector<std::string> bad;
    pods::PodsRun run;
    const auto t0 = Clock::now();
    {
      Span s(t, "sim.runPods", js.id(), job);
      run = pods::runPods(*c, mc);
    }
    const double ms = msSince(t0);
    if (!run.stats.ok) bad.push_back("run-error (" + run.stats.error + ")");
    {
      Span s(t, "check.sameOutputs", js.id(), job);
      checkOutputs(run.out, ref, bad);
    }
    if (run.stats.total.ns != simNs) bad.push_back("sim-time-changed");
    if (run.stats.events != events) bad.push_back("sim-events-changed");
    if (run.stats.events > 0)
      nsPerEvent.push_back(ms * 1e6 / static_cast<double>(run.stats.events));
    log.record(job, ms, traced, bad);
  });
  r.attempted = log.attempted;
  r.failed = log.failed;

  if (!opts.trace) {
    reportEndToEnd(r, log, window, setup);
    return;
  }
  reportTraceOverhead(r, log);
  probeCompile({src}, opts.tiny ? 2 : 20, *r.tracer, r);
  std::int64_t instrs = 0;
  for (const pods::sim::SpProfile& p : warm.stats.spProfiles) instrs += p.instructions;
  r.add("sim.host_ns_per_event", median(nsPerEvent), "ns");
  r.add("sim.events_per_instr",
        instrs > 0 ? static_cast<double>(events) / static_cast<double>(instrs) : 0.0,
        "ratio");
  r.add("sim.events", static_cast<double>(events), "count");
  r.add("sim.eu_util", warm.stats.avgUtilization(pods::sim::Unit::EU), "ratio");
  r.add("sim.sim_time_ms", warm.stats.total.ms(), "ms");
}

}  // namespace perfbench

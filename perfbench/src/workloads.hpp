// The benchmark's two workloads (see perfbench/README.md for why each was
// chosen). Each runs closed loop for opts.seconds, checks every job, and
// fills the report: end-to-end metrics when untraced, per-layer metrics
// when opts.trace is set.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

void runSimSimple(const Options& opts, Report& r);
void runServeMix(const Options& opts, Report& r);

/// Traced run only: compiles every source `reps` times through the public
/// stage functions (lex, parse, inline, sema, graphgen, verify, plan,
/// translate), one span per stage, and reports each stage's median time per
/// program plus translate.sp_instrs (mean SP instructions per program).
void probeCompile(const std::vector<std::string>& sources, int reps,
                  Tracer& tracer, Report& r);

/// Traced run of serve-mix only: a fixed number of checked heat 96x96 jobs
/// as 4 worker processes over UDP loopback with the wire store, numbered
/// from `firstJob` on, then the same job with the local store and a
/// one-element program. Reports the transport, store and procmgr metrics
/// and returns the checked jobs' log, which the caller adds to the run's
/// attempted and failed totals.
JobLog probeMultiprocWire(const Options& opts, Report& r, std::uint32_t firstJob);

}  // namespace perfbench

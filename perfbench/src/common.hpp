// Shared pieces of the benchmark binary: options, the per-job log that
// turns closed-loop jobs into end-to-end metrics, the output and ledger
// checks, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pods.hpp"
#include "support/stats.hpp"
#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test sizes: every workload shrinks to a few milliseconds a job.
  bool tiny = false;
  /// Flips one element of every reference output, so every job must be
  /// counted failed — the proof that the output gate can fail.
  bool corruptReference = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports back to main().
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  Tracer* tracer = nullptr;  // set on the traced run

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Latencies and pass/fail of the jobs one closed-loop caller ran.
struct JobLog {
  std::vector<double> latencyMs;
  std::vector<double> tracedMs;  // traced run: latencies of traced jobs
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Records one finished job. A job with any violation counts failed once;
  /// the first few violations of the process are printed by name.
  void record(std::uint32_t job, double ms, bool traced,
              const std::vector<std::string>& violations);
  void merge(const JobLog& o);
};

/// Calls job(index, traced) closed loop — the next job starts when the
/// previous one returns — until opts.seconds have elapsed, and returns the
/// window in seconds. On the traced run every other job is traced, so the
/// untraced half gives the tracing overhead.
template <typename F>
double closedLoop(const Options& opts, F&& job) {
  const auto t0 = Clock::now();
  std::uint32_t i = 0;
  do {
    job(i, opts.trace && i % 2 == 1);
    ++i;
  } while (msSince(t0) < opts.seconds * 1e3);
  return msSince(t0) / 1e3;
}

/// Times `fn` once, in seconds.
template <typename F>
double timeSeconds(F&& fn) {
  const auto t0 = Clock::now();
  fn();
  return msSince(t0) / 1e3;
}

/// Set-up samples, in seconds: times `setup` again and again, at least
/// kMinSetupReps times and for at least kSetupWindowSeconds, so that the
/// median of many repetitions stands for one set-up. `teardown` undoes the
/// previous repetition before each timed one, outside the timer.
constexpr std::size_t kMinSetupReps = 20;
constexpr double kSetupWindowSeconds = 3.0;

template <typename Teardown, typename Setup>
std::vector<double> timeSetups(Teardown&& teardown, Setup&& setup) {
  std::vector<double> seconds;
  const auto t0 = Clock::now();
  do {
    teardown();
    seconds.push_back(timeSeconds(setup));
  } while (seconds.size() < kMinSetupReps || msSince(t0) < kSetupWindowSeconds * 1e3);
  return seconds;
}

/// Mean; median, and linear-interpolated quantile q in [0, 1].
double mean(const std::vector<double>& v);
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Median of f(x) over the samples x in `v`.
template <typename T, typename F>
double medianOf(const std::vector<T>& v, F&& f) {
  std::vector<double> xs;
  xs.reserve(v.size());
  for (const T& x : v) xs.push_back(static_cast<double>(f(x)));
  return median(std::move(xs));
}

/// The native EU's work in one job, from the counters the job returned.
struct EuWork {
  std::int64_t instrs = 0, frames = 0, idle = 0;
};
EuWork euWorkOf(const pods::Counters& c);

/// Adds job_mean_ms, jobs_per_s and setup_s (median of the
/// set-up repetitions); peak_rss_mb is added by main() after the run.
void reportEndToEnd(Report& r, const JobLog& log, double windowSeconds,
                    const std::vector<double>& setupSeconds);

/// Traced run: trace.overhead_ms (traced minus untraced job p50).
void reportTraceOverhead(Report& r, const JobLog& log);

/// Compiles `source` or aborts the benchmark with the diagnostics.
std::unique_ptr<pods::Compiled> compileOrDie(const std::string& source);

/// The reference outputs of a compiled program: the sequential evaluator,
/// corrupted on purpose when opts.corruptReference is set.
pods::ProgramOutputs reference(const pods::Compiled& c, const Options& opts);

/// Output gate: appends "wrong-output" (and prints why) on a mismatch.
void checkOutputs(const pods::ProgramOutputs& got,
                  const pods::ProgramOutputs& ref,
                  std::vector<std::string>& violations);

/// Ledger checks on the counters a native job returned (canonical names:
/// native.*, net.am.*, net.retx.*). Appends one name per violation.
/// `udp`: the run used a UDP transport, whose fault-free retransmits are
/// timer-driven (a receiver descheduled past the RTO floor triggers one) and
/// are therefore measured as transport.retx_resent, not counted as failures.
void checkNativeLedger(const pods::Counters& c, bool udp,
                       std::vector<std::string>& violations);

/// Replaces the first `literal` in `src` by `replacement`; aborts when the
/// literal is missing (the generator changed under the benchmark).
std::string substituteOnce(std::string src, const std::string& literal,
                           const std::string& replacement);

/// A seeded real in [lo, hi), printed with every digit IdLite accepts.
std::string seededReal(std::uint64_t seed, std::uint64_t salt, double lo,
                       double hi);

/// Peak resident set of this process plus its largest waited-for child, MB.
double peakRssMb();

[[noreturn]] void die(const std::string& msg);

}  // namespace perfbench

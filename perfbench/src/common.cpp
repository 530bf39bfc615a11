#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "proto/delivery.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

/// Violations printed per process; the rest are only counted.
constexpr int kMaxPrinted = 20;
std::atomic<int> printed{0};

}  // namespace

void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

void JobLog::record(std::uint32_t job, double ms, bool traced,
                    const std::vector<std::string>& violations) {
  ++attempted;
  (traced ? tracedMs : latencyMs).push_back(ms);
  if (violations.empty()) return;
  ++failed;
  if (printed.fetch_add(1) >= kMaxPrinted) return;
  std::string names;
  for (const std::string& v : violations) names += (names.empty() ? "" : ", ") + v;
  std::fprintf(stderr, "perfbench: job %u failed: %s\n", job, names.c_str());
}

void JobLog::merge(const JobLog& o) {
  latencyMs.insert(latencyMs.end(), o.latencyMs.begin(), o.latencyMs.end());
  tracedMs.insert(tracedMs.end(), o.tracedMs.begin(), o.tracedMs.end());
  attempted += o.attempted;
  failed += o.failed;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void reportEndToEnd(Report& r, const JobLog& log, double windowSeconds,
                    const std::vector<double>& setupSeconds) {
  // The mean, not a quantile: on a shared host jobs can run in two speed
  // modes set by other tenants, and a quantile jumps between them when the
  // share of slow time nears its level, while the mean moves in proportion
  // to that share (perfbench/README.md, "Host").
  r.add("job_mean_ms", mean(log.latencyMs), "ms");
  r.add("jobs_per_s",
        static_cast<double>(log.attempted - log.failed) / windowSeconds, "1/s");
  r.add("setup_s", median(setupSeconds), "s");
  std::fprintf(stderr,
               "perfbench: %zu jobs in %.3f s; mean %.3f ms, p50 %.3f ms, "
               "p90 %.3f ms; fail_ratio %.6f\n",
               log.latencyMs.size(), windowSeconds, mean(log.latencyMs),
               quantile(log.latencyMs, 0.5), quantile(log.latencyMs, 0.9),
               log.attempted ? static_cast<double>(log.failed) /
                                   static_cast<double>(log.attempted)
                             : 0.0);
}

void reportTraceOverhead(Report& r, const JobLog& log) {
  const double traced = median(log.tracedMs);
  const double untraced = median(log.latencyMs);
  std::fprintf(stderr,
               "perfbench: traced job p50 %.3f ms (%zu jobs), untraced %.3f ms "
               "(%zu jobs)\n",
               traced, log.tracedMs.size(), untraced, log.latencyMs.size());
  r.add("trace.overhead_ms", traced - untraced, "ms");
}

EuWork euWorkOf(const pods::Counters& c) {
  return {c.get("native.instructions"), c.get("native.framesCreated"),
          c.get("native.idleTransitions")};
}

std::unique_ptr<pods::Compiled> compileOrDie(const std::string& source) {
  pods::CompileResult cr = pods::compile(source);
  if (!cr.ok) die("compile failed:\n" + cr.diagnostics);
  return std::move(cr.compiled);
}

pods::ProgramOutputs reference(const pods::Compiled& c, const Options& opts) {
  pods::ProgramOutputs ref = pods::runSequentialBaseline(c).out;
  if (!opts.corruptReference) return ref;
  for (std::size_t i = 0; i < ref.results.size(); ++i) {
    if (ref.arrays[i] && !ref.arrays[i]->elems.empty()) {
      pods::Value& v = ref.arrays[i]->elems.front();
      v = pods::Value::realv(v.isNumeric() ? v.asReal() + 1.0 : 1.0);
      return ref;
    }
    if (ref.results[i].isNumeric()) {
      ref.results[i] = pods::Value::realv(ref.results[i].asReal() + 1.0);
      return ref;
    }
  }
  die("reference has nothing to corrupt");
}

void checkOutputs(const pods::ProgramOutputs& got,
                  const pods::ProgramOutputs& ref,
                  std::vector<std::string>& violations) {
  std::string why;
  if (pods::sameOutputs(got, ref, &why)) return;
  violations.push_back("wrong-output (" + why + ")");
}

void checkNativeLedger(const pods::Counters& c, bool udp,
                       std::vector<std::string>& violations) {
  if (c.get("native.framesCreated") != c.get("native.framesRetired"))
    violations.push_back("frames-created-ne-retired");
  if (c.get("native.framesLive") != 0) violations.push_back("frames-live");
  if (c.get("net.am.readReqSent") != c.get("net.am.readReqServed"))
    violations.push_back("readreq-sent-ne-served");
  if (c.get("net.am.parks") != c.get("net.am.parkFills"))
    violations.push_back("parks-ne-parkfills");
  if (!udp && c.get(pods::proto::kResent) != 0) violations.push_back("retx-resent");
}

std::string substituteOnce(std::string src, const std::string& literal,
                           const std::string& replacement) {
  const std::size_t at = src.find(literal);
  if (at == std::string::npos) die("workload source lacks '" + literal + "'");
  return src.replace(at, literal.size(), replacement);
}

std::string seededReal(std::uint64_t seed, std::uint64_t salt, double lo,
                       double hi) {
  pods::SplitMix64 rng(seed * 0x9E3779B97F4A7C15ULL + salt);
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6f", rng.range(lo, hi));
  return buf;
}

double peakRssMb() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(self.ru_maxrss + kids.ru_maxrss) / 1024.0;
}

}  // namespace perfbench

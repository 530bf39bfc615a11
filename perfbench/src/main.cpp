// pods_perfbench: the PODS benchmark binary.
//
//   pods_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--tiny] [--corrupt-reference]
//
// Runs one workload closed loop for the window, checks every job, and
// prints as its last line of stdout one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they
// are the per-layer set, the spans go to
// .bench_build/traces/<workload>-<seed>.json
// and a self-time table goes to stderr. Human-readable lines go to stderr.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>

#include "native/procmgr.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (test_bench.py checks the two agree).
constexpr MetricSpec kEndToEnd[] = {
    {"job_mean_ms", "ms"},
    {"jobs_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"frontend.lex_us", "us"},
    {"frontend.parse_us", "us"},
    {"frontend.inline_us", "us"},
    {"frontend.sema_us", "us"},
    {"ir.graphgen_us", "us"},
    {"ir.verify_us", "us"},
    {"partition.plan_us", "us"},
    {"translate.translate_us", "us"},
    {"translate.sp_instrs", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.events_per_instr", "ratio"},
    {"sim.events", "count"},
    {"sim.eu_util", "ratio"},
    {"sim.sim_time_ms", "ms"},
    {"native.ns_per_instr", "ns"},
    {"native.instrs_per_job", "count"},
    {"native.frames_per_job", "count"},
    {"native.idle_transitions_per_job", "count"},
    {"transport.us_per_token", "us"},
    {"transport.tokens_per_datagram", "ratio"},
    {"transport.retx_resent", "count"},
    {"store.readreqs_per_job", "count"},
    {"store.parks_per_job", "count"},
    {"store.us_per_remote_read", "us"},
    {"procmgr.gated_flushes_per_job", "count"},
    {"procmgr.ctl_frames_per_job", "count"},
    {"procmgr.fixed_ms", "ms"},
    {"serve.wait_ms", "ms"},
    {"serve.run_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"proto.jobresult_bytes", "bytes"},
    {"proto.decode_us", "us"},
    {"trace.overhead_ms", "ms"},
    {"bench.fail_ratio", "ratio"},
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: pods_perfbench --workload "
               "sim-simple|serve-mix --seed N "
               "--seconds S --trace 0|1 [--tiny] [--corrupt-reference]\n",
               msg.c_str());
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options o;
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      const std::string v = value();
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("bad --seed " + v);
    } else if (a == "--seconds") {
      const std::string v = value();
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0.0) || o.seconds > 600.0)
        usage("bad --seconds " + v);
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("bad --trace " + v);
      o.trace = v == "1";
      haveTrace = true;
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--corrupt-reference") {
      o.corruptReference = true;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (o.workload.empty() || !haveTrace) usage("--workload and --trace are required");
  return o;
}

/// Orders the report's metrics as `specs` lists them, filling a layer the
/// workload does not exercise with 0. A metric outside `specs` or with the
/// wrong unit is a bug in this binary.
std::vector<Metric> select(const std::vector<Metric>& got,
                           const MetricSpec* specs, std::size_t n,
                           bool fillMissing) {
  std::map<std::string, Metric> byName;
  for (const Metric& m : got) {
    if (!byName.emplace(m.name, m).second) die("metric reported twice: " + m.name);
  }
  std::vector<Metric> out;
  for (std::size_t i = 0; i < n; ++i) {
    auto it = byName.find(specs[i].name);
    if (it == byName.end()) {
      if (!fillMissing) die(std::string("metric not reported: ") + specs[i].name);
      out.push_back({specs[i].name, 0.0, specs[i].unit});
      continue;
    }
    if (it->second.unit != specs[i].unit) die("unit mismatch for " + it->first);
    if (!std::isfinite(it->second.value)) die("non-finite value for " + it->first);
    out.push_back(it->second);
    byName.erase(it);
  }
  if (!byName.empty()) die("metric not in the benchmark's list: " + byName.begin()->first);
  return out;
}

/// Pins this process to the last CPU it may run on; every thread and worker
/// process it starts afterwards inherits the pin. The host grants about one
/// core of quota across four vCPUs, so unpinned multi-threaded jobs speed up
/// or slow down with the host's scheduling state; pinned, every workload
/// measures a per-core cost.
void pinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) die("cannot pin to one CPU");
    return;
  }
}

int run(const Options& o) {
  pinToOneCpu();
  Tracer tracer;
  Report r;
  if (o.trace) r.tracer = &tracer;
  if (o.workload == "sim-simple") runSimSimple(o, r);
  else if (o.workload == "serve-mix") runServeMix(o, r);
  else usage("unknown workload " + o.workload);

  std::vector<Metric> metrics;
  if (o.trace) {
    r.add("bench.fail_ratio",
          r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0.0,
          "ratio");
    metrics = select(r.metrics, kPerLayer, std::size(kPerLayer), true);
    tracer.printSelfTimes(stderr);
    const std::string dir = ".bench_build/traces";
    std::filesystem::create_directories(dir);
    const std::string path =
        dir + "/" + o.workload + "-" + std::to_string(o.seed) + ".json";
    if (!tracer.writeChrome(path)) die("cannot write " + path);
    std::fprintf(stderr, "perfbench: trace written to %s\n", path.c_str());
  } else {
    r.add("peak_rss_mb", peakRssMb(), "MB");
    metrics = select(r.metrics, kEndToEnd, std::size(kEndToEnd), false);
  }
  for (const Metric& m : metrics)
    std::fprintf(stderr, "  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());

  std::string json = "{\"correct\": ";
  json += (r.attempted > 0 && r.failed == 0) ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  // Multi-process workers are re-executed from /proc/self/exe; this must
  // come before anything else touches argv.
  pods::native::procmgr::maybeRunPodsWorker(argc, argv);
  return perfbench::run(perfbench::parseArgs(argc, argv));
}

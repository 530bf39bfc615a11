// Micro-benchmarks (google-benchmark) of the simulator event engine: the
// calendar queue against the reference std::priority_queue under the classic
// hold model (steady-state pop-one push-one at a future deadline), and the
// two engines end-to-end through simulated runs: an 8-PE fill, and a 16-PE
// lockstep SIMPLE run whose event stream is mostly EU kicks. These measure
// the *host-side* cost of event dispatch, not simulated time.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "core/pods.hpp"
#include "sim/event_queue.hpp"
#include "workloads/kernels.hpp"
#include "workloads/simple.hpp"

namespace {

// Roughly the footprint of a sim Ev payload, so the slab/heap traffic of the
// two engines is compared on even terms.
struct Payload {
  std::uint64_t words[6] = {};
};

std::uint64_t lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s >> 33;
}

// Hold-model deltas: mostly near-future (compute/net latencies), with an
// occasional far-future retransmit-backoff-shaped outlier. Mirrors the
// distribution the simulator actually feeds the queue.
std::int64_t holdDelta(std::uint64_t& rng) {
  if (lcg(rng) % 64 == 0)
    return static_cast<std::int64_t>(lcg(rng) % 40'000'000);
  return static_cast<std::int64_t>(lcg(rng) % 30'000);
}

void BM_CalendarHold(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  pods::sim::CalendarQueue<Payload> q;
  std::uint64_t rng = 42, seq = 0;
  std::int64_t now = 0;
  for (std::size_t i = 0; i < depth; ++i)
    q.push({holdDelta(rng), 0, pods::sim::packSrc(0, ++seq)}, Payload{});
  for (auto _ : state) {
    pods::sim::EvKey k;
    Payload p = q.pop(&k);
    benchmark::DoNotOptimize(p);
    now = k.t;
    q.push({now + holdDelta(rng), now, pods::sim::packSrc(0, ++seq)}, Payload{});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CalendarHold)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

void BM_HeapHold(benchmark::State& state) {
  struct Ent {
    pods::sim::EvKey key;
    Payload p;
  };
  struct Later {
    bool operator()(const Ent& a, const Ent& b) const { return b.key < a.key; }
  };
  const auto depth = static_cast<std::size_t>(state.range(0));
  std::priority_queue<Ent, std::vector<Ent>, Later> q;
  std::uint64_t rng = 42, seq = 0;
  std::int64_t now = 0;
  for (std::size_t i = 0; i < depth; ++i)
    q.push({{holdDelta(rng), 0, pods::sim::packSrc(0, ++seq)}, Payload{}});
  for (auto _ : state) {
    Ent e = q.top();
    q.pop();
    benchmark::DoNotOptimize(e);
    now = e.key.t;
    q.push({{now + holdDelta(rng), now, pods::sim::packSrc(0, ++seq)}, Payload{}});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapHold)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

// End-to-end: the same 8-PE workload through both engines. The delta here is
// the whole-run win (or cost) of the calendar engine, timer collapse
// included; bit-identical outputs are asserted by the fuzz suites, not here.
void BM_SimRun(benchmark::State& state, const std::string& source, int pes,
               pods::sim::EventEngine engine) {
  auto cr = pods::compile(source);
  std::uint64_t events = 0;
  std::int64_t instrs = 0;
  for (auto _ : state) {
    pods::sim::MachineConfig mc;
    mc.numPEs = pes;
    mc.eventEngine = engine;
    pods::PodsRun run = pods::runPods(*cr.compiled, mc);
    events += run.stats.events;
    instrs += run.stats.counters.get("sim.instructions");
    benchmark::DoNotOptimize(run);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["events/instr"] =
      instrs > 0 ? static_cast<double>(events) / static_cast<double>(instrs) : 0.0;
}
void BM_SimFill2d_Calendar(benchmark::State& state) {
  BM_SimRun(state, pods::workloads::fill2dSource(32, 32), 8,
            pods::sim::EventEngine::Calendar);
}
void BM_SimFill2d_Heap(benchmark::State& state) {
  BM_SimRun(state, pods::workloads::fill2dSource(32, 32), 8,
            pods::sim::EventEngine::BinaryHeap);
}
BENCHMARK(BM_SimFill2d_Calendar);
BENCHMARK(BM_SimFill2d_Heap);

// The kick path: under the exact yield rule (the heap engine) 16 PEs in
// lockstep yield to the queue after nearly every instruction, so most events
// are EU kicks; the calendar engine's lookahead lets each EU run on for up
// to the 23 us cross-PE latency.
void BM_SimSimple16_Calendar(benchmark::State& state) {
  BM_SimRun(state, pods::workloads::simpleSource(32, 1), 16,
            pods::sim::EventEngine::Calendar);
}
void BM_SimSimple16_Heap(benchmark::State& state) {
  BM_SimRun(state, pods::workloads::simpleSource(32, 1), 16,
            pods::sim::EventEngine::BinaryHeap);
}
BENCHMARK(BM_SimSimple16_Calendar)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimSimple16_Heap)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

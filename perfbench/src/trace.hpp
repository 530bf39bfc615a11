// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only around calls the benchmark makes into the PODS
// public API (compile stages, runPods, runNative, the serve client, the
// ctl decoder, the output and ledger checks); nothing inside the program is
// instrumented. Each span has a name, start, end, parent span and job id.
// At the end of a run the spans are written in the simulator's Chrome-trace
// shape ({"traceEvents":[{"name","ph":"X","pid","tid","ts","dur"}]}) and
// summarised as a per-name self-time table.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr std::int32_t kNoSpan = -1;
  /// Spans past this many are counted and dropped; the written trace then
  /// carries one truncation marker, like the simulator's writer.
  static constexpr std::size_t kMaxSpans = 200'000;

  struct SpanRec {
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = kNoSpan;
    std::uint32_t job = 0;
    std::uint32_t tid = 0;
  };

  Tracer();

  /// Opens a span and returns its id (kNoSpan once the cap is hit).
  /// Thread-safe.
  std::int32_t open(std::string name, std::int32_t parent, std::uint32_t job,
                    std::uint32_t tid);
  void close(std::int32_t id);

  bool writeChrome(const std::string& path) const;
  /// Per-name count, total and self time (duration minus the part covered
  /// by child spans), sorted by self time.
  void printSelfTimes(std::FILE* out) const;

 private:
  std::int64_t nowNs() const;

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex m_;  // guards spans_ and dropped_
  std::vector<SpanRec> spans_;
  std::int64_t dropped_ = 0;
};

/// RAII span. A null tracer records nothing, which is how untraced jobs and
/// the untraced run skip the recorder entirely.
class Span {
 public:
  Span(Tracer* t, const char* name, std::int32_t parent = Tracer::kNoSpan,
       std::uint32_t job = 0, std::uint32_t tid = 0)
      : t_(t), id_(t ? t->open(name, parent, job, tid) : Tracer::kNoSpan) {}
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void end() {
    if (t_ && id_ != Tracer::kNoSpan) t_->close(id_);
    t_ = nullptr;
  }
  std::int32_t id() const { return id_; }

 private:
  Tracer* t_;
  std::int32_t id_;
};

}  // namespace perfbench

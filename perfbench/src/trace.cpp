#include "trace.hpp"

#include <algorithm>
#include <map>

#include "support/stats.hpp"

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::int32_t Tracer::open(std::string name, std::int32_t parent,
                          std::uint32_t job, std::uint32_t tid) {
  const std::int64_t t = nowNs();
  std::lock_guard<std::mutex> g(m_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return kNoSpan;
  }
  spans_.push_back({std::move(name), t, -1, parent, job, tid});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::close(std::int32_t id) {
  const std::int64_t t = nowNs();
  std::lock_guard<std::mutex> g(m_);
  spans_[static_cast<std::size_t>(id)].endNs = t;
}

bool Tracer::writeChrome(const std::string& path) const {
  std::lock_guard<std::mutex> g(m_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  std::int64_t lastEnd = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    if (s.endNs < 0) continue;
    lastEnd = std::max(lastEnd, s.endNs);
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"job\":%u}}",
                 first ? "" : ",\n", pods::jsonEscape(s.name).c_str(), s.tid,
                 static_cast<double>(s.startNs) / 1e3,
                 static_cast<double>(s.endNs - s.startNs) / 1e3, i, s.parent,
                 s.job);
    first = false;
  }
  if (dropped_ > 0) {
    std::fprintf(f,
                 "%s{\"name\":\"trace truncated: %lld events dropped\","
                 "\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":%.3f,\"s\":\"g\"}",
                 first ? "" : ",\n", static_cast<long long>(dropped_),
                 static_cast<double>(lastEnd) / 1e3);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

void Tracer::printSelfTimes(std::FILE* out) const {
  std::lock_guard<std::mutex> g(m_);
  std::vector<std::int64_t> childNs(spans_.size(), 0);
  for (const SpanRec& s : spans_)
    if (s.parent != kNoSpan && s.endNs >= 0)
      childNs[static_cast<std::size_t>(s.parent)] += s.endNs - s.startNs;
  struct Row {
    std::int64_t count = 0;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    if (s.endNs < 0) continue;
    Row& r = rows[s.name];
    ++r.count;
    r.totalNs += s.endNs - s.startNs;
    r.selfNs += s.endNs - s.startNs - childNs[i];
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.selfNs > b.second.selfNs;
  });
  std::fprintf(out, "%-30s %8s %12s %12s %12s\n", "span", "count", "total_ms",
               "self_ms", "self_us/call");
  for (const auto& [name, r] : sorted) {
    std::fprintf(out, "%-30s %8lld %12.3f %12.3f %12.3f\n", name.c_str(),
                 static_cast<long long>(r.count),
                 static_cast<double>(r.totalNs) / 1e6,
                 static_cast<double>(r.selfNs) / 1e6,
                 static_cast<double>(r.selfNs) / 1e3 /
                     static_cast<double>(r.count));
  }
  if (dropped_ > 0)
    std::fprintf(out, "(%lld spans dropped past the cap)\n",
                 static_cast<long long>(dropped_));
}

}  // namespace perfbench

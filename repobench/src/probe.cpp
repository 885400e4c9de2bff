#include "probe.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <map>

namespace repobench {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

double heap_in_use_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks) + static_cast<double>(mi.hblkhd);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<SpanTotals> aggregate(const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> by_name;
  for (const SpanLog* log : logs) {
    // Spans are appended at their end, so a child precedes its parent.
    // Sort by (start asc, end desc) and walk with a stack of open spans to
    // charge each span's duration to its innermost enclosing parent.
    std::vector<Span> spans = log->spans();
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                      : a.end_ns > b.end_ns;
    });
    std::vector<double> child_ns(spans.size(), 0.0);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      while (!open.empty() && spans[open.back()].end_ns <= spans[i].start_ns) {
        open.pop_back();
      }
      if (!open.empty()) {
        child_ns[open.back()] +=
            static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      }
      open.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double dur =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      SpanTotals& t = by_name[spans[i].name];
      t.name = spans[i].name;
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur - child_ns[i];
      t.durations_ns.push_back(dur);
    }
  }
  std::vector<SpanTotals> out;
  out.reserve(by_name.size());
  for (auto& [name, t] : by_name) {
    std::sort(t.durations_ns.begin(), t.durations_ns.end());
    out.push_back(std::move(t));
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (const SpanLog* log : logs) {
    const std::string thread =
        log->tid() == 0 ? "main"
                        : "segment " + std::to_string(log->tid() - 1);
    std::fprintf(f,
                 "%s  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
                 "\"tid\": %u, \"args\": {\"name\": \"%s\"}}",
                 first ? "" : ",\n", log->tid(), thread.c_str());
    first = false;
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   ",\n  {\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                   "\"dur\": %.3f, \"pid\": 0, \"tid\": %u, \"args\": "
                   "{\"op\": %llu}}",
                   s.name, 1e-3 * static_cast<double>(s.start_ns - origin),
                   1e-3 * static_cast<double>(s.end_ns - s.start_ns),
                   log->tid(), static_cast<unsigned long long>(s.op));
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace repobench
